//===- bnb/Checkpoint.h - B&B search-state capture --------------*- C++ -*-===//
///
/// \file
/// Checkpoint/resume support for the MUT solvers. Long exact solves are
/// the expensive asset of this codebase; a killed search that restarts
/// from scratch repays hours of branching for nothing. Every solver
/// (sequential DFS, best-first, threaded) can therefore periodically
/// hand its complete search state — the open frontier, the incumbent
/// tree and the upper bound — to a `CheckpointSink`, and every solver
/// accepts such a state through `BnbOptions::ResumeFrom` to continue
/// where a previous process stopped.
///
/// The sink receives *structured* state, not bytes: serialization lives
/// in `mp/Serialize.h` and durable storage in `persist/Checkpoint.h`, so
/// the solver layer stays free of I/O. Frontier topologies are in the
/// solver's maxmin-relabeled species space; resuming is only valid
/// against the same distance matrix (the persist layer records a matrix
/// fingerprint and refuses mismatches).
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_BNB_CHECKPOINT_H
#define MUTK_BNB_CHECKPOINT_H

#include "bnb/BnbOptions.h"
#include "bnb/Topology.h"
#include "tree/PhyloTree.h"

#include <chrono>
#include <cstdint>
#include <vector>

namespace mutk {

/// A resumable snapshot of a branch-and-bound search.
struct SearchCheckpoint {
  /// Open BBT nodes, in the solver's maxmin-relabeled label space. For
  /// the DFS solver this is the stack bottom-to-top; order is only a
  /// scheduling hint and never affects the optimum.
  std::vector<Topology> Frontier;
  /// Best feasible tree found so far, original labels (the UPGMM seed
  /// when no complete topology improved on it yet).
  PhyloTree Incumbent;
  /// Its weight — the current upper bound.
  double UpperBound = 0.0;
  /// Counters accumulated up to the capture point; resuming continues
  /// them so `MaxBranchedNodes` budgets span interruptions.
  BnbStats Stats;
  /// Fingerprint of the matrix the search ran on (`fingerprint(M)`),
  /// stamped by the solver; the persist layer refuses to resume a
  /// checkpoint against a different matrix.
  std::uint64_t MatrixKey = 0;
};

/// Receives checkpoints at the cadence configured in `BnbOptions`.
/// Implementations must be safe to call from the solving thread (the
/// threaded solver invokes it from its master thread only, between
/// worker rounds) and should persist atomically — see
/// `persist/Checkpoint.h` for the file-backed implementation.
class CheckpointSink {
public:
  virtual ~CheckpointSink() = default;
  virtual void checkpoint(const SearchCheckpoint &State) = 0;
};

/// Cadence tracker shared by the solvers: a checkpoint is due every
/// `EveryNodes` branched nodes or `EverySeconds` wall seconds, whichever
/// comes first. Both zero means "only the sink's presence decides" —
/// then `due()` is never true and no checkpoints are taken.
class CheckpointPacer {
public:
  CheckpointPacer(std::uint64_t EveryNodes, double EverySeconds,
                  std::uint64_t StartNodes = 0)
      : EveryNodes(EveryNodes), EverySeconds(EverySeconds),
        LastNodes(StartNodes),
        LastTime(std::chrono::steady_clock::now()) {}

  /// True when the configured node or time budget since the last
  /// checkpoint has elapsed.
  bool due(std::uint64_t BranchedNodes) const {
    if (EveryNodes > 0 && BranchedNodes - LastNodes >= EveryNodes)
      return true;
    if (EverySeconds > 0.0) {
      double Elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - LastTime)
                           .count();
      if (Elapsed >= EverySeconds)
        return true;
    }
    return false;
  }

  /// Resets both budgets after a checkpoint was written.
  void taken(std::uint64_t BranchedNodes) {
    LastNodes = BranchedNodes;
    LastTime = std::chrono::steady_clock::now();
  }

private:
  std::uint64_t EveryNodes;
  double EverySeconds;
  std::uint64_t LastNodes;
  std::chrono::steady_clock::time_point LastTime;
};

} // namespace mutk

#endif // MUTK_BNB_CHECKPOINT_H
