//===- bnb/Search.h - The branch-and-bound search core ----------*- C++ -*-===//
///
/// \file
/// The one branch-and-bound search behind all five MUT drivers: the node
/// step, the parallel drivers' seeding phase, the incumbent, checkpoint
/// plumbing and the result finish. Drivers keep only their scheduling;
/// their policies are lambdas taken as template parameters, so the node
/// step inlines with no indirect call per node. docs/ALGORITHMS.md
/// ("One search core") describes the split and the DFS pool invariant:
/// a pool's back is its best node.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_BNB_SEARCH_H
#define MUTK_BNB_SEARCH_H

#include "bnb/Arena.h"
#include "bnb/Checkpoint.h"
#include "bnb/Engine.h"
#include "bnb/SequentialBnb.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace mutk {

/// Solves the degenerate sizes (`n <= 1`) no engine can handle.
/// \returns true when \p Result is final.
bool solveTrivial(const DistanceMatrix &M, MutResult &Result);

/// The best answer of one search: the upper bound, and the complete
/// topology that set it. Until a topology beats the seed, the answer is
/// the seed tree — the UPGMM tree, or a resumed checkpoint's incumbent.
struct Incumbent {
  explicit Incumbent(const BnbEngine &Engine)
      : Ub(Engine.initialUpperBound()), Seed(Engine.initialTree()) {}

  double Ub;
  PhyloTree Seed;
  Topology Best;
  bool HasBest = false;

  /// Adopts \p T when it beats the upper bound by more than \p Eps.
  /// \returns true on such a strict improvement.
  bool offer(const Topology &T, double Eps) {
    double Cost = T.cost();
    if (Cost >= Ub - Eps)
      return false;
    Ub = Cost;
    Best = T;
    HasBest = true;
    return true;
  }

  /// The incumbent as a tree in original labels.
  PhyloTree tree(const BnbEngine &Engine) const {
    return HasBest ? Engine.finalize(Best) : Seed;
  }
};

/// Stores \p Inc as \p Result's answer, audits its feasibility, and
/// publishes the counters when \p Publish.
void finishResult(const BnbEngine &Engine, const DistanceMatrix &M,
                  const Incumbent &Inc, bool Publish, MutResult &Result);

/// The matrix fingerprint that stamps this search's checkpoints and
/// guards its resume, or 0 when neither is in use (canonicalization is
/// O(n^2), so it is only paid for when needed).
std::uint64_t checkpointKey(const DistanceMatrix &M,
                            const BnbOptions &Options);

/// Starts from `Options.ResumeFrom` unless it is absent or stamped with a
/// different matrix: adopts its incumbent when that beats \p Inc, and
/// continues its counters in \p Stats. \returns the checkpoint whose
/// frontier to continue, or nullptr for a fresh start.
const SearchCheckpoint *resumeSearch(const DistanceMatrix &M,
                                     const BnbOptions &Options,
                                     std::uint64_t MatrixKey, Incumbent &Inc,
                                     BnbStats &Stats);

/// Hands `Options.Checkpoint` a snapshot of an unfinished search.
void writeCheckpoint(const BnbEngine &Engine, const BnbOptions &Options,
                     std::uint64_t MatrixKey, const Incumbent &Inc,
                     const BnbStats &Stats, std::vector<Topology> Frontier);

/// True once the branched-node budget (`MaxBranchedNodes`) is spent.
inline bool budgetSpent(const BnbOptions &Options, std::uint64_t Branched) {
  return Options.MaxBranchedNodes != 0 && Branched >= Options.MaxBranchedNodes;
}

/// The order in which one expansion hands its survivors on.
enum class ChildOrder {
  /// Worst first, best last: a DFS pool popping at the back takes the
  /// best child next.
  BestLast,
  /// Ascending lower bound, the order `branch()` returns.
  BestFirst,
};

/// One searcher's node step and scratch: the reused `branch()` output,
/// its insertion scores and the topology arena, so expansion allocates
/// nothing after warm-up.
/// Not thread-safe; every worker owns one.
class Expander {
public:
  explicit Expander(const BnbEngine &Engine)
      : Engine(Engine), Arena(Engine.numSpecies()) {}

  /// The bound re-check of a popped node whose lower bound is \p Lb: the
  /// upper bound may have improved since it was pushed. \returns true,
  /// counting it in `PrunedByBound` and recycling it, when it can no
  /// longer beat \p Ub (ties survive under `CollectAllOptimal`).
  bool pruned(Topology &Node, double Lb, double Ub, BnbStats &Stats) {
    const BnbOptions &Opts = Engine.options();
    if (Lb < Ub - Opts.Epsilon ||
        (Opts.CollectAllOptimal && Lb <= Ub + Opts.Epsilon))
      return false;
    ++Stats.PrunedByBound;
    Arena.release(std::move(Node));
    return true;
  }

  /// Branches \p Node against \p Ub: every complete child goes to
  /// \p OnSolution, every survivor to \p OnSurvivor, in \p Order. A
  /// complete \p Node (only the two-species root can be one) goes to
  /// \p OnSolution itself.
  template <ChildOrder Order = ChildOrder::BestLast, class SolutionFn,
            class SurvivorFn>
  void branch(Topology &&Node, double Ub, BnbStats &Stats,
              SolutionFn &&OnSolution, SurvivorFn &&OnSurvivor) {
    if (Engine.isComplete(Node)) {
      OnSolution(static_cast<const Topology &>(Node));
      Arena.release(std::move(Node));
      return;
    }
    ++Stats.Branched;
    Engine.branch(Node, Ub, Stats, Children, Scratch, &Arena);
    Arena.release(std::move(Node));
    const std::size_t Count = Children.size();
    for (std::size_t I = 0; I < Count; ++I) {
      BranchedChild &Child =
          Children[Order == ChildOrder::BestLast ? Count - 1 - I : I];
      if (Engine.isComplete(Child.Node)) {
        OnSolution(static_cast<const Topology &>(Child.Node));
        Arena.release(std::move(Child.Node));
        continue;
      }
      OnSurvivor(std::move(Child));
    }
  }

  /// The node step of a DFS pool: `pruned()`, else `branch()` with
  /// survivors handed on best last. \returns false when \p Node was
  /// pruned. (Pools never hold complete nodes, so true means branched.)
  template <class SolutionFn, class SurvivorFn>
  bool step(Topology &&Node, double Ub, BnbStats &Stats,
            SolutionFn &&OnSolution, SurvivorFn &&OnSurvivor) {
    if (pruned(Node, Engine.lowerBound(Node), Ub, Stats))
      return false;
    branch(std::move(Node), Ub, Stats, OnSolution, OnSurvivor);
    return true;
  }

  /// The master seeding phase (HPCAsia Steps 4-5): breadth-first
  /// expansion from the BBT root until the frontier holds at least
  /// `2 * Workers` nodes, offering complete topologies to \p Inc.
  /// \returns the frontier in discovery order.
  std::vector<Topology> seed(int Workers, Incumbent &Inc, BnbStats &Stats);

private:
  const BnbEngine &Engine;
  TopologyArena Arena;
  std::vector<BranchedChild> Children;
  BranchScratch Scratch;
};

/// Step 6 of the parallel drivers: sorts \p Frontier by lower bound and
/// deals it cyclically, best first, calling `Deal(Worker, Node)` with
/// `Worker` in `[0, Workers)`. A receiver pushes each dealt node to the
/// *front* of its pool, so the pool's back — its first pop — is the best
/// seed it was dealt.
template <class DealFn>
void dealSeeds(const BnbEngine &Engine, std::vector<Topology> &Frontier,
               int Workers, DealFn &&Deal) {
  std::sort(Frontier.begin(), Frontier.end(),
            [&Engine](const Topology &A, const Topology &B) {
              return Engine.lowerBound(A) < Engine.lowerBound(B);
            });
  for (std::size_t I = 0; I < Frontier.size(); ++I)
    Deal(static_cast<int>(I % static_cast<std::size_t>(Workers)),
         std::move(Frontier[I]));
  Frontier.clear();
}

} // namespace mutk

#endif // MUTK_BNB_SEARCH_H
