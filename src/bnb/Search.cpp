//===- bnb/Search.cpp - The branch-and-bound search core ------------------===//

#include "bnb/Search.h"

#include "matrix/Fingerprint.h"
#include "obs/Instruments.h"
#include "support/Audit.h"

#include <deque>
#include <iterator>

using namespace mutk;

bool mutk::solveTrivial(const DistanceMatrix &M, MutResult &Result) {
  if (M.size() > 1)
    return false;
  if (M.size() == 1) {
    Result.Tree.addLeaf(0);
    Result.Tree.setNames(M.names());
  }
  Result.Cost = 0.0;
  return true;
}

void mutk::finishResult(const BnbEngine &Engine, const DistanceMatrix &M,
                        const Incumbent &Inc, bool Publish,
                        MutResult &Result) {
  (void)M; // read by the audits only
  Result.Tree = Inc.tree(Engine);
  Result.Cost = Inc.Ub;
  // Any answer — optimal, truncated, or the UPGMM seed — must be a
  // feasible ultrametric tree for M (Definition 8: d_T >= M).
  MUTK_AUDIT(Result.Tree.hasMonotoneHeights(),
             "B&B result must be ultrametric (leaves at 0, heights "
             "nondecreasing toward the root)");
  MUTK_AUDIT(Result.Tree.dominatesMatrix(M),
             "B&B result must dominate the input matrix (d_T >= M)");
  if (Publish)
    obs::recordBnbSolve(Result.Stats);
}

std::uint64_t mutk::checkpointKey(const DistanceMatrix &M,
                                  const BnbOptions &Options) {
  return Options.Checkpoint || Options.ResumeFrom ? fingerprint(M) : 0;
}

const SearchCheckpoint *mutk::resumeSearch(const DistanceMatrix &M,
                                           const BnbOptions &Options,
                                           std::uint64_t MatrixKey,
                                           Incumbent &Inc, BnbStats &Stats) {
  // A checkpoint stamped with a different matrix must not seed this
  // search; a zero key on either side skips the comparison.
  const SearchCheckpoint *Resume = Options.ResumeFrom;
  if (!Resume || (Resume->MatrixKey != 0 && MatrixKey != 0 &&
                  Resume->MatrixKey != MatrixKey))
    return nullptr;
  if (Resume->UpperBound < Inc.Ub) {
    Inc.Ub = Resume->UpperBound;
    Inc.Seed = Resume->Incumbent;
    Inc.Seed.setNames(M.names());
  }
  Stats = Resume->Stats;
  Stats.Complete = true; // re-decided by this run
  return Resume;
}

void mutk::writeCheckpoint(const BnbEngine &Engine, const BnbOptions &Options,
                           std::uint64_t MatrixKey, const Incumbent &Inc,
                           const BnbStats &Stats,
                           std::vector<Topology> Frontier) {
  SearchCheckpoint Ck;
  Ck.Frontier = std::move(Frontier);
  Ck.Incumbent = Inc.tree(Engine);
  Ck.UpperBound = Inc.Ub;
  Ck.Stats = Stats;
  Ck.Stats.Complete = false; // a checkpoint is an unfinished search
  Ck.MatrixKey = MatrixKey;
  Options.Checkpoint->checkpoint(Ck);
}

std::vector<Topology> Expander::seed(int Workers, Incumbent &Inc,
                                     BnbStats &Stats) {
  const double Eps = Engine.options().Epsilon;
  auto offer = [&](const Topology &T) {
    if (Inc.offer(T, Eps))
      ++Stats.UbUpdates;
  };
  std::deque<Topology> Bfs;
  Bfs.push_back(Engine.rootTopology());
  while (!Bfs.empty() && static_cast<int>(Bfs.size()) < 2 * Workers) {
    Topology T = std::move(Bfs.front());
    Bfs.pop_front();
    branch<ChildOrder::BestFirst>(
        std::move(T), Inc.Ub, Stats, offer,
        [&Bfs](BranchedChild &&Child) { Bfs.push_back(std::move(Child.Node)); });
  }
  return {std::make_move_iterator(Bfs.begin()),
          std::make_move_iterator(Bfs.end())};
}
