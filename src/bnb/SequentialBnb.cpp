//===- bnb/SequentialBnb.cpp - Single-processor MUT searches --------------===//
//
// Algorithm BBU on one processor, as DFS (`solveMutSequential`) or
// best-first (`solveMutBestFirst`): one search loop over a stack or a
// heap frontier.
//
//===----------------------------------------------------------------------===//

#include "bnb/BestFirstBnb.h"
#include "bnb/Search.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace mutk;

namespace {

/// The open nodes with their cached lower bounds: the paper's DFS stack
/// (back = most promising), or a best-first binary heap on the bound. An
/// explicit heap (std::push_heap/pop_heap over a vector) instead of
/// std::priority_queue: the checkpoint needs to walk the whole frontier,
/// which the adaptor hides.
template <bool BestFirst> struct Frontier {
  std::vector<BranchedChild> Nodes;

  static bool worse(const BranchedChild &A, const BranchedChild &B) {
    return A.LowerBound > B.LowerBound;
  }
  void push(BranchedChild &&Child) {
    Nodes.push_back(std::move(Child));
    if constexpr (BestFirst)
      std::push_heap(Nodes.begin(), Nodes.end(), worse);
  }
  BranchedChild pop() {
    if constexpr (BestFirst)
      std::pop_heap(Nodes.begin(), Nodes.end(), worse);
    BranchedChild Top = std::move(Nodes.back());
    Nodes.pop_back();
    return Top;
  }
};

/// The single-processor search, best-first or DFS, with checkpointing,
/// resume and co-optimal collection. \returns the peak frontier size.
template <bool BestFirst>
std::size_t searchSerial(const DistanceMatrix &M, const BnbOptions &Options,
                         MutResult &Result) {
  assert(!(Options.Checkpoint && Options.CollectAllOptimal) &&
         "checkpointing does not capture the co-optimal set");
  if (solveTrivial(M, Result))
    return 0;

  BnbEngine Engine(M, Options);
  const double Eps = Options.Epsilon;
  const std::uint64_t MatrixKey = checkpointKey(M, Options);
  Incumbent Inc(Engine);
  BnbStats &Stats = Result.Stats;

  // The frontier caches each node's lower bound (the heap key; the DFS
  // re-check reads it too).
  Frontier<BestFirst> Open;
  if (const SearchCheckpoint *Resume =
          resumeSearch(M, Options, MatrixKey, Inc, Stats)) {
    Open.Nodes.reserve(Resume->Frontier.size());
    for (const Topology &T : Resume->Frontier)
      Open.Nodes.push_back(BranchedChild{T, Engine.lowerBound(T)});
    if constexpr (BestFirst)
      std::make_heap(Open.Nodes.begin(), Open.Nodes.end(), Open.worse);
  } else {
    Topology Root = Engine.rootTopology();
    double Lb = Engine.lowerBound(Root);
    Open.push(BranchedChild{std::move(Root), Lb});
  }

  std::vector<PhyloTree> Optimal;
  auto offer = [&](const Topology &Child) {
    if (Inc.offer(Child, Eps)) {
      ++Stats.UbUpdates;
      if (Options.CollectAllOptimal) {
        Optimal.clear();
        Optimal.push_back(Engine.finalize(Child));
      }
    } else if (Options.CollectAllOptimal && Child.cost() <= Inc.Ub + Eps) {
      Optimal.push_back(Engine.finalize(Child));
    }
  };

  CheckpointPacer Pacer(Options.CheckpointEveryNodes,
                        Options.CheckpointEverySeconds, Stats.Branched);
  Expander Step(Engine);
  std::size_t Peak = 0;
  while (!Open.Nodes.empty()) {
    if (budgetSpent(Options, Stats.Branched)) {
      Stats.Complete = false;
      break;
    }
    Peak = std::max(Peak, Open.Nodes.size());
    BranchedChild Next = Open.pop();
    if (Step.pruned(Next.Node, Next.LowerBound, Inc.Ub, Stats)) {
      if constexpr (!BestFirst)
        continue;
      // Best-first: once the best lower bound reaches the upper bound,
      // nothing left in the queue can improve on it.
      Stats.PrunedByBound += Open.Nodes.size();
      break;
    }
    Step.branch<BestFirst ? ChildOrder::BestFirst : ChildOrder::BestLast>(
        std::move(Next.Node), Inc.Ub, Stats, offer,
        [&Open](BranchedChild &&Child) { Open.push(std::move(Child)); });
    // After the expansion is fully applied the state is consistent: the
    // popped node is represented by its surviving children.
    if (Options.Checkpoint && Pacer.due(Stats.Branched)) {
      std::vector<Topology> Nodes;
      Nodes.reserve(Open.Nodes.size());
      for (const BranchedChild &Entry : Open.Nodes)
        Nodes.push_back(Entry.Node);
      writeCheckpoint(Engine, Options, MatrixKey, Inc, Stats,
                      std::move(Nodes));
      Pacer.taken(Stats.Branched);
    }
  }

  // The UPGMM seed may already have been optimal.
  if (Options.CollectAllOptimal && Optimal.empty() &&
      std::fabs(Engine.initialTree().weight() - Inc.Ub) <= Eps)
    Optimal.push_back(Engine.initialTree());
  Result.AllOptimal = std::move(Optimal);
  finishResult(Engine, M, Inc, Options.PublishMetrics, Result);
  return Peak;
}

} // namespace

MutResult mutk::solveMutSequential(const DistanceMatrix &M,
                                   const BnbOptions &Options) {
  MutResult Result;
  searchSerial</*BestFirst=*/false>(M, Options, Result);
  return Result;
}

BestFirstResult mutk::solveMutBestFirst(const DistanceMatrix &M,
                                        const BnbOptions &Options) {
  BestFirstResult Result;
  Result.PeakFrontier = searchSerial</*BestFirst=*/true>(M, Options, Result);
  return Result;
}
