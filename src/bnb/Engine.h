//===- bnb/Engine.h - Shared branch-and-bound machinery ---------*- C++ -*-===//
///
/// \file
/// The per-solve machinery of Algorithm BBU: the maxmin relabeling, the
/// UPGMM initial upper bound, the admissible lower bound
/// `LB(v) = w(T_k) + sum_{i >= k} min_{j < i} M[i,j] / 2`
/// with precomputed suffix sums, and the branching rule with optional 3-3
/// filtering. Drivers do not call `branch()` themselves: the search core
/// in `bnb/Search.h` owns the node step and seeding on top of this
/// engine, and drivers add only their scheduling.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_BNB_ENGINE_H
#define MUTK_BNB_ENGINE_H

#include "bnb/BnbOptions.h"
#include "bnb/Topology.h"
#include "matrix/DistanceMatrix.h"
#include "tree/PhyloTree.h"

#include <vector>

namespace mutk {

class TopologyArena;

/// A surviving child of one branching step together with its lower
/// bound, computed exactly once inside `branch()` and reused by the
/// pruning guard, the best-first sort, and the caller (heap keys, pool
/// ordering).
struct BranchedChild {
  Topology Node;
  double LowerBound = 0.0;
};

/// Per-solver scratch for `BnbEngine::branch()`: the insertion scores of
/// `Topology::scoreInsertions` and the per-node maxima they are computed
/// from. Reusing one across calls keeps scoring allocation-free.
struct BranchScratch {
  std::vector<double> Costs;
  std::vector<double> X;
};

/// Immutable per-solve machinery. Thread-safe after construction (all
/// methods are const and touch no mutable state).
class BnbEngine {
public:
  /// Prepares a solve of \p M: relabels via maxmin permutation, computes
  /// the lower-bound suffix sums and the UPGMM upper bound.
  /// Requires `2 <= M.size() <= MaxBnbSpecies`.
  BnbEngine(const DistanceMatrix &M, const BnbOptions &Options);

  int numSpecies() const { return Relabeled.size(); }
  const BnbOptions &options() const { return Opts; }
  const DistanceMatrix &relabeledMatrix() const { return Relabeled; }
  const std::vector<int> &permutation() const { return Perm; }

  /// Weight of the UPGMM tree (the initial upper bound).
  double initialUpperBound() const { return InitialUb; }

  /// The UPGMM tree in *original* species labels.
  const PhyloTree &initialTree() const { return InitialUbTree; }

  /// The BBT root: the unique 2-species topology.
  Topology rootTopology() const;

  /// `LB(v)`: current cost plus the remaining-species bound.
  double lowerBound(const Topology &T) const {
    return T.cost() + Remainder[static_cast<std::size_t>(T.numPlaced())];
  }

  /// True if every species has been placed.
  bool isComplete(const Topology &T) const {
    return T.numPlaced() == numSpecies();
  }

  /// Expands \p T: inserts the next species at every position, applies
  /// the 3-3 filter per `options().ThreeThree`, drops children whose
  /// lower bound reaches \p UpperBound, and fills \p Children with the
  /// survivors sorted by ascending cached lower bound (best-first).
  /// \p Children is cleared first; reusing one vector (and one
  /// \p Scratch) across calls keeps its capacity and makes the expansion
  /// allocation-free.
  ///
  /// Every position is scored first (`Topology::scoreInsertions`, into
  /// \p Scratch). A child whose scored lower bound clears the pruning
  /// boundary by a rounding margin is pruned without being built; every
  /// other child is built and judged on its exact cost, so the pruned
  /// set, the survivors and their bounds are those of building every
  /// child (docs/ALGORITHMS.md, "Scoring children"). The insertion of
  /// species 2 under `ThirdSpecies` is always built, so the 3-3 filter
  /// keeps its precedence.
  ///
  /// Each generated child's lower bound is evaluated exactly once
  /// (`Stats.BoundEvals`): scored, or computed on the built child and
  /// cached in the `BranchedChild`. Pruning attribution follows the
  /// precedence documented on `ThreeThreeMode`.
  ///
  /// When \p Arena is non-null, built child topologies are drawn from it
  /// and pruned ones are returned to it; callers should release consumed
  /// survivors back to the same arena.
  ///
  /// \param [in,out] Stats Generated / PrunedByBound / PrunedByThreeThree
  /// / BoundEvals are incremented.
  void branch(const Topology &T, double UpperBound, BnbStats &Stats,
              std::vector<BranchedChild> &Children, BranchScratch &Scratch,
              TopologyArena *Arena = nullptr) const;

  /// Converts a complete topology back to original labels and attaches
  /// species names.
  PhyloTree finalize(const Topology &T) const;

private:
  BnbOptions Opts;
  std::vector<int> Perm;
  DistanceMatrix Relabeled;
  std::vector<double> Remainder; // Remainder[k] = sum_{i>=k} minHalf[i]
  double InitialUb = 0.0;
  PhyloTree InitialUbTree;
  std::vector<std::string> OriginalNames;

  bool threeThreeAllows(const Topology &Child) const;
};

} // namespace mutk

#endif // MUTK_BNB_ENGINE_H
