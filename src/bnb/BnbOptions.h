//===- bnb/BnbOptions.h - Solver options and statistics ---------*- C++ -*-===//
///
/// \file
/// Options shared by every MUT solver (sequential, threaded, simulated
/// cluster) and the statistics they report. The 3-3 relationship pruning
/// modes correspond to the HPCAsia paper: the paper applies the constraint
/// when inserting the third species ("we only used it in the initial
/// step") and names extending it to later insertions as future work — both
/// are implemented.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_BNB_BNBOPTIONS_H
#define MUTK_BNB_BNBOPTIONS_H

#include <cstdint>
#include <limits>

namespace mutk {

class CheckpointSink;
struct SearchCheckpoint;

/// Where the 3-3 relationship constraint is enforced during branching.
///
/// Pruning attribution precedence inside `BnbEngine::branch()`: when the
/// filter is cheap (`None` is a no-op; `ThirdSpecies` only examines the
/// insertion of species 2) it runs *before* the bound check, so a child
/// failing both tests is counted in `PrunedByThreeThree`. Under
/// `AllInsertions` the O(k^2) filter stays behind the bound check and
/// such a child is counted in `PrunedByBound` — the filter never runs on
/// bound-dead children. The set of surviving children is identical
/// either way; only the counter attribution differs.
enum class ThreeThreeMode {
  None,          ///< No triple pruning (pure Algorithm BBU).
  ThirdSpecies,  ///< Constrain only the insertion of species 3 (paper).
  AllInsertions, ///< Constrain every insertion (aggressive heuristic).
};

/// Options for the branch-and-bound solvers.
struct BnbOptions {
  ThreeThreeMode ThreeThree = ThreeThreeMode::None;

  /// Collect *every* optimal tree instead of one (Algorithm BBU gathers
  /// "all solutions from each node"). More memory, slightly less pruning.
  bool CollectAllOptimal = false;

  /// Abort after branching this many BBT nodes (0 = unlimited). The
  /// result is then the best tree found so far and `Complete` is false.
  std::uint64_t MaxBranchedNodes = 0;

  /// Starting upper bound; infinity means "run UPGMM" (Algorithm BBU
  /// Step 3).
  double InitialUpperBound = std::numeric_limits<double>::infinity();

  /// Floating-point slack for bound comparisons.
  double Epsilon = 1e-9;

  /// Treat the input matrix as already maxmin-relabeled and skip the
  /// permutation (identity labeling). Used by distributed drivers whose
  /// master relabels once and ships the permuted matrix to workers, so
  /// every rank provably shares one label space.
  bool AssumeMaxminOrdered = false;

  /// Polish the UPGMM seed with SPR local search before the search
  /// starts (an extension beyond Algorithm BBU): a tighter initial upper
  /// bound prunes more of the BBT at the cost of an O(n^4)-ish polish.
  bool ImproveInitialUpperBound = false;

  /// Flush this solve's `BnbStats` into the process-wide metrics
  /// registry (`mutk_bnb_*`, see docs/observability.md) when it
  /// finishes. One counter batch per solve — never on the search hot
  /// path. Disable for micro-benchmarks that call the solver in a tight
  /// loop and want zero shared-cache traffic.
  bool PublishMetrics = true;

  /// Checkpointing (see `bnb/Checkpoint.h`): when non-null, the solver
  /// hands its full search state to the sink every `CheckpointEveryNodes`
  /// branched nodes or `CheckpointEverySeconds` wall seconds, whichever
  /// fires first (a zero disables that trigger; both zero disables
  /// checkpointing even with a sink attached). Borrowed; must outlive
  /// the solve. Not supported together with `CollectAllOptimal` (the
  /// co-optimal set is not captured).
  CheckpointSink *Checkpoint = nullptr;
  std::uint64_t CheckpointEveryNodes = 0;
  double CheckpointEverySeconds = 0.0;

  /// Resume a previous search instead of starting from the root: the
  /// solver seeds its frontier, incumbent, upper bound and counters from
  /// this state. Must have been captured from a solve of the *same*
  /// matrix with the same `ThreeThree`/`AssumeMaxminOrdered` settings
  /// (the persist layer verifies the matrix fingerprint). Borrowed; must
  /// outlive the solve.
  const SearchCheckpoint *ResumeFrom = nullptr;
};

/// Counters reported by a solve.
struct BnbStats {
  /// BBT nodes expanded (one per branching step).
  std::uint64_t Branched = 0;
  /// Children generated across all branchings (before pruning).
  std::uint64_t Generated = 0;
  /// Children discarded because `LB >= UB`.
  std::uint64_t PrunedByBound = 0;
  /// Children discarded by the 3-3 relationship constraint.
  std::uint64_t PrunedByThreeThree = 0;
  /// Lower-bound evaluations inside `branch()` — exactly one per
  /// generated child: either the child's score, when it prunes the child
  /// unbuilt, or the built child's bound, cached next to the topology and
  /// reused by the pruning guard, the best-first sort and the caller.
  /// Carried on the MP wire, but not persisted in checkpoints, so it
  /// restarts at zero on resume.
  std::uint64_t BoundEvals = 0;
  /// Number of strict upper-bound improvements.
  std::uint64_t UbUpdates = 0;
  /// True if the search ran to exhaustion (result provably optimal).
  bool Complete = true;
};

} // namespace mutk

#endif // MUTK_BNB_BNBOPTIONS_H
