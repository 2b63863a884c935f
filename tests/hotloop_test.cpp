//===- tests/hotloop_test.cpp - B&B hot-loop invariants ---------*- C++ -*-===//
//
// Regression tests for the hot-loop overhaul: the once-per-child cached
// lower bound (BnbStats::BoundEvals), the 3-3-before-bound pruning
// attribution, the per-solver TopologyArena, the bitmask maxmin fast
// path, the threaded solver's deterministic stats aggregation, and
// child scoring (Topology::scoreInsertions) with branch() pruning on
// scores exactly as if it built every child.
//
//===----------------------------------------------------------------------===//

#include "bnb/Arena.h"
#include "bnb/BestFirstBnb.h"
#include "bnb/Engine.h"
#include "bnb/SequentialBnb.h"
#include "bnb/ThreeThree.h"
#include "bnb/Topology.h"
#include "matrix/Generators.h"
#include "matrix/MetricUtils.h"
#include "parallel/ThreadedBnb.h"
#include "seq/EvolutionSim.h"
#include "support/Rng.h"
#include "tree/Newick.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

using namespace mutk;

namespace {

BnbOptions quietOptions(ThreeThreeMode TT = ThreeThreeMode::None) {
  BnbOptions Options;
  Options.ThreeThree = TT;
  Options.PublishMetrics = false;
  return Options;
}

DistanceMatrix hardDna(int N, std::uint64_t Seed) {
  EvolutionSpec Spec;
  Spec.SequenceLength = 120;
  Spec.SubstitutionRate = 0.5;
  Spec.RateVariation = 1.2;
  return hmdnaLikeMatrix(N, Seed, Spec);
}

// ---------------------------------------------------------------------------
// S1: the lower bound is evaluated exactly once per generated child.
// ---------------------------------------------------------------------------

TEST(HotLoop, BranchEvaluatesBoundOncePerChild) {
  DistanceMatrix M = hmdnaLikeMatrix(10, 3);
  BnbEngine Engine(M, quietOptions());
  BnbStats Stats;
  std::vector<BranchedChild> Children;
  BranchScratch Scratch;
  Topology T = Engine.rootTopology();
  // Walk a few levels; at every branching the bound must have run
  // exactly once per generated child, and each survivor must carry the
  // bound the engine would recompute for it.
  while (!Engine.isComplete(T)) {
    std::uint64_t GenBefore = Stats.Generated;
    std::uint64_t EvalBefore = Stats.BoundEvals;
    Engine.branch(T, Engine.initialUpperBound() + 1.0, Stats, Children,
                  Scratch);
    EXPECT_EQ(Stats.BoundEvals - EvalBefore, Stats.Generated - GenBefore);
    ASSERT_FALSE(Children.empty());
    for (const BranchedChild &BC : Children)
      EXPECT_EQ(BC.LowerBound, Engine.lowerBound(BC.Node));
    T = Children.front().Node;
  }
}

TEST(HotLoop, SolversEvaluateBoundOncePerGeneratedChild) {
  DistanceMatrix M = hardDna(13, 5);
  for (ThreeThreeMode TT :
       {ThreeThreeMode::None, ThreeThreeMode::ThirdSpecies,
        ThreeThreeMode::AllInsertions}) {
    MutResult Seq = solveMutSequential(M, quietOptions(TT));
    EXPECT_EQ(Seq.Stats.BoundEvals, Seq.Stats.Generated);
    BestFirstResult Best = solveMutBestFirst(M, quietOptions(TT));
    EXPECT_EQ(Best.Stats.BoundEvals, Best.Stats.Generated);
  }
  BnbOptions All = quietOptions();
  All.CollectAllOptimal = true;
  MutResult Seq = solveMutSequential(M, All);
  EXPECT_EQ(Seq.Stats.BoundEvals, Seq.Stats.Generated);
}

// ---------------------------------------------------------------------------
// S2: pruning attribution precedence (documented on ThreeThreeMode).
// ---------------------------------------------------------------------------

TEST(HotLoop, CheapThreeThreeRunsBeforeBoundCheck) {
  // Maxmin-ordered by construction: d(0,1) = 10 is the global maximum.
  // With an impossible upper bound every child dies; under ThirdSpecies
  // the two 3-3-rejected insertions of species 2 must be attributed to
  // the filter (it runs first), with only the 3-3-surviving child left
  // for the bound to kill.
  DistanceMatrix M(3);
  M.set(0, 1, 10.0);
  M.set(0, 2, 4.0);
  M.set(1, 2, 7.0);

  auto branchWith = [&](ThreeThreeMode TT) {
    BnbOptions Options = quietOptions(TT);
    Options.AssumeMaxminOrdered = true;
    Options.InitialUpperBound = 0.0;
    BnbEngine Engine(M, Options);
    BnbStats Stats;
    std::vector<BranchedChild> Children;
    BranchScratch Scratch;
    Engine.branch(Engine.rootTopology(), 0.0, Stats, Children, Scratch);
    EXPECT_TRUE(Children.empty());
    EXPECT_EQ(Stats.Generated, 3u);
    EXPECT_EQ(Stats.BoundEvals, 3u);
    return Stats;
  };

  BnbStats Third = branchWith(ThreeThreeMode::ThirdSpecies);
  EXPECT_EQ(Third.PrunedByThreeThree, 2u);
  EXPECT_EQ(Third.PrunedByBound, 1u);

  // Under AllInsertions the O(k^2) filter stays behind the bound, so the
  // same three dead children are all attributed to the bound.
  BnbStats All = branchWith(ThreeThreeMode::AllInsertions);
  EXPECT_EQ(All.PrunedByThreeThree, 0u);
  EXPECT_EQ(All.PrunedByBound, 3u);

  BnbStats None = branchWith(ThreeThreeMode::None);
  EXPECT_EQ(None.PrunedByThreeThree, 0u);
  EXPECT_EQ(None.PrunedByBound, 3u);
}

// ---------------------------------------------------------------------------
// S3a: arena reuse is invisible to the search.
// ---------------------------------------------------------------------------

TEST(HotLoop, ArenaRecyclesTopologyStorage) {
  TopologyArena Arena(8);
  EXPECT_EQ(Arena.pooled(), 0u);
  EXPECT_EQ(Arena.reuses(), 0u);
  Topology A = Arena.acquire();
  EXPECT_EQ(Arena.reuses(), 0u); // pool was dry: fresh object
  Arena.release(std::move(A));
  EXPECT_EQ(Arena.pooled(), 1u);
  Topology B = Arena.acquire();
  EXPECT_EQ(Arena.reuses(), 1u);
  EXPECT_EQ(Arena.pooled(), 0u);
  Arena.release(std::move(B));
}

TEST(HotLoop, BranchWithArenaMatchesBranchWithout) {
  DistanceMatrix M = hmdnaLikeMatrix(12, 9);
  BnbEngine Engine(M, quietOptions(ThreeThreeMode::ThirdSpecies));
  TopologyArena Arena(Engine.numSpecies());
  BnbStats StatsPlain, StatsArena;
  std::vector<BranchedChild> Plain, Pooled;
  BranchScratch Scratch;
  Topology T = Engine.rootTopology();
  // Drive both variants down one best-first path; every level the
  // arena-backed expansion must produce byte-identical children, even
  // though its topologies reuse storage released at earlier levels.
  while (!Engine.isComplete(T)) {
    Engine.branch(T, Engine.initialUpperBound() + 1.0, StatsPlain, Plain,
                  Scratch);
    Engine.branch(T, Engine.initialUpperBound() + 1.0, StatsArena, Pooled,
                  Scratch, &Arena);
    ASSERT_EQ(Plain.size(), Pooled.size());
    for (std::size_t I = 0; I < Plain.size(); ++I) {
      EXPECT_EQ(Plain[I].LowerBound, Pooled[I].LowerBound);
      EXPECT_EQ(Plain[I].Node.cost(), Pooled[I].Node.cost());
      EXPECT_EQ(Plain[I].Node.numPlaced(), Pooled[I].Node.numPlaced());
    }
    T = Plain.front().Node;
    // Recycle everything the arena-backed expansion produced.
    for (BranchedChild &BC : Pooled)
      Arena.release(std::move(BC.Node));
  }
  EXPECT_GT(Arena.reuses(), 0u);
}

TEST(HotLoop, RepeatedSolvesOnOneArenaAreIdentical) {
  // The sequential solver owns an arena internally; solving twice in a
  // row (fresh arena each solve) and comparing against a third solve
  // must be byte-identical — storage recycling may never leak into the
  // answer.
  DistanceMatrix M = hardDna(12, 11);
  MutResult First = solveMutSequential(M, quietOptions());
  MutResult Second = solveMutSequential(M, quietOptions());
  EXPECT_EQ(First.Cost, Second.Cost);
  EXPECT_EQ(toNewick(First.Tree), toNewick(Second.Tree));
  EXPECT_EQ(First.Stats.Branched, Second.Stats.Branched);
  EXPECT_EQ(First.Stats.Generated, Second.Stats.Generated);
  EXPECT_EQ(First.Stats.BoundEvals, Second.Stats.BoundEvals);
}

// ---------------------------------------------------------------------------
// S3b: the bitmask maxmin fast path is exactly the generic algorithm.
// ---------------------------------------------------------------------------

TEST(HotLoop, MaskMaxminMatchesGenericOnRandomMatrices) {
  for (int N : {2, 3, 5, 9, 16, 24, 40, 63, 64})
    for (std::uint64_t Seed = 1; Seed <= 4; ++Seed) {
      EXPECT_EQ(maxminPermutation(uniformRandomMetric(N, Seed)),
                maxminPermutationGeneric(uniformRandomMetric(N, Seed)))
          << "uniform n=" << N << " seed=" << Seed;
      EXPECT_EQ(maxminPermutation(randomUltrametricMatrix(N, Seed)),
                maxminPermutationGeneric(randomUltrametricMatrix(N, Seed)))
          << "ultrametric n=" << N << " seed=" << Seed;
    }
}

TEST(HotLoop, MaskMaxminMatchesGenericUnderHeavyTies) {
  // Quantized distances force ties everywhere; both paths must resolve
  // them identically (lowest index wins on equal keys).
  for (int N : {6, 12, 20, 33, 64})
    for (std::uint64_t Seed = 1; Seed <= 4; ++Seed) {
      DistanceMatrix M = uniformRandomMetric(N, Seed, 10.0, 14.0);
      for (int I = 0; I < N; ++I)
        for (int J = I + 1; J < N; ++J)
          M.set(I, J, std::round(M.at(I, J)));
      EXPECT_EQ(maxminPermutation(M), maxminPermutationGeneric(M))
          << "quantized n=" << N << " seed=" << Seed;
    }
}

// ---------------------------------------------------------------------------
// S3c: threaded solver statistics are deterministic.
// ---------------------------------------------------------------------------

TEST(HotLoop, ThreadedStatsIdenticalAcrossWorkerCounts) {
  // On an ultrametric matrix the UPGMM seed is already optimal, so the
  // upper bound never moves mid-search and every pruning decision is
  // schedule-independent: all counters must agree exactly no matter how
  // many workers share the search.
  for (std::uint64_t Seed : {1ull, 3ull, 9ull}) {
    DistanceMatrix M = randomUltrametricMatrix(24, Seed);
    BnbOptions Options = quietOptions(ThreeThreeMode::ThirdSpecies);
    ParallelMutResult Base = solveMutThreaded(M, 1, Options);
    for (int Workers : {2, 4}) {
      ParallelMutResult R = solveMutThreaded(M, Workers, Options);
      EXPECT_EQ(R.Cost, Base.Cost) << "workers=" << Workers;
      EXPECT_EQ(R.Stats.Branched, Base.Stats.Branched);
      EXPECT_EQ(R.Stats.Generated, Base.Stats.Generated);
      EXPECT_EQ(R.Stats.PrunedByBound, Base.Stats.PrunedByBound);
      EXPECT_EQ(R.Stats.PrunedByThreeThree, Base.Stats.PrunedByThreeThree);
      EXPECT_EQ(R.Stats.BoundEvals, Base.Stats.BoundEvals);
      EXPECT_EQ(R.Stats.UbUpdates, Base.Stats.UbUpdates);
    }
  }
}

TEST(HotLoop, ThreadedBoundEvalInvariantHoldsUnderContention) {
  // Scheduling may reshuffle who expands what, but one-bound-eval-per-
  // generated-child is a per-branching invariant: the merged totals obey
  // it for every worker count, on a search big enough to actually engage
  // the workers and their per-worker arenas.
  DistanceMatrix M = hardDna(16, 7);
  for (int Workers : {1, 2, 4}) {
    ParallelMutResult R =
        solveMutThreaded(M, Workers, quietOptions(ThreeThreeMode::ThirdSpecies));
    EXPECT_EQ(R.Stats.BoundEvals, R.Stats.Generated)
        << "workers=" << Workers;
    EXPECT_GT(R.Stats.PrunedByThreeThree, 0u);
  }
}

// ---------------------------------------------------------------------------
// S4: children are scored before they are built.
// ---------------------------------------------------------------------------

/// The matrix families the scoring tests draw from: the three generators,
/// plus uniform distances quantized to 0.1 so that ties are everywhere.
std::vector<DistanceMatrix> scoringMatrices(int N, std::uint64_t Seed) {
  DistanceMatrix Tied = uniformRandomMetric(N, Seed, 1.0, 2.0);
  for (int I = 0; I < N; ++I)
    for (int J = I + 1; J < N; ++J)
      Tied.set(I, J, std::round(Tied.at(I, J) * 10.0) / 10.0);
  return {uniformRandomMetric(N, Seed), randomUltrametricMatrix(N, Seed),
          plantedClusterMetric(N, Seed), Tied};
}

TEST(Topology, ScoredCostMatchesBuiltChild) {
  std::vector<double> Costs, X;
  for (int N : {8, 14, 20, 32, 64})
    for (std::uint64_t Seed = 1; Seed <= 3; ++Seed)
      for (const DistanceMatrix &M : scoringMatrices(N, Seed)) {
        // Descend one random path, scoring every position on the way, so
        // every depth from the root pair to n - 1 placed species is seen.
        Rng Random(Seed);
        Topology T = Topology::initialPair(M);
        while (T.numPlaced() < N) {
          T.scoreInsertions(M, Costs, X);
          ASSERT_EQ(Costs.size(), static_cast<std::size_t>(T.numNodes()));
          for (int Pos = 0; Pos < T.numNodes(); ++Pos) {
            double Built = T.withNextSpeciesAt(Pos, M).cost();
            EXPECT_LE(std::fabs(Costs[static_cast<std::size_t>(Pos)] - Built),
                      1e-14 * Built)
                << "n=" << N << " seed=" << Seed << " k=" << T.numPlaced()
                << " position=" << Pos;
          }
          T = T.withNextSpeciesAt(
              static_cast<int>(Random.nextBelow(
                  static_cast<std::uint64_t>(T.numNodes()))),
              M);
        }
      }
}

/// The rule `branch()` must reproduce, in the test only: build every
/// child, then apply the 3-3 filter and the bound in the precedence
/// documented on ThreeThreeMode, and sort the survivors the same way.
void buildEveryChild(const BnbEngine &Engine, const Topology &T, double Ub,
                     BnbStats &Stats, std::vector<BranchedChild> &Out) {
  const BnbOptions &Opts = Engine.options();
  const DistanceMatrix &M = Engine.relabeledMatrix();
  auto allows = [&](const Topology &Child) {
    int Inserted = Child.numPlaced() - 1;
    if (Opts.ThreeThree == ThreeThreeMode::None ||
        (Opts.ThreeThree == ThreeThreeMode::ThirdSpecies && Inserted != 2))
      return true;
    return insertionRespectsThreeThree(Child, M, Inserted);
  };
  const bool First = Opts.ThreeThree != ThreeThreeMode::AllInsertions;
  Out.clear();
  for (int Pos = 0; Pos < T.numNodes(); ++Pos) {
    BranchedChild Child{T.withNextSpeciesAt(Pos, M), 0.0};
    ++Stats.Generated;
    Child.LowerBound = Engine.lowerBound(Child.Node);
    ++Stats.BoundEvals;
    if (First && !allows(Child.Node)) {
      ++Stats.PrunedByThreeThree;
    } else if (Child.LowerBound >= Ub - Opts.Epsilon &&
               !(Opts.CollectAllOptimal &&
                 Child.LowerBound <= Ub + Opts.Epsilon)) {
      ++Stats.PrunedByBound;
    } else if (!First && !allows(Child.Node)) {
      ++Stats.PrunedByThreeThree;
    } else {
      Out.push_back(std::move(Child));
    }
  }
  std::sort(Out.begin(), Out.end(),
            [](const BranchedChild &A, const BranchedChild &B) {
              return A.LowerBound < B.LowerBound;
            });
}

bool sameNodes(const Topology &A, const Topology &B) {
  if (A.numNodes() != B.numNodes() || A.rootIndex() != B.rootIndex() ||
      A.cost() != B.cost())
    return false;
  for (int I = 0; I < A.numNodes(); ++I) {
    const Topology::Node &X = A.node(I), &Y = B.node(I);
    if (X.Parent != Y.Parent || X.Left != Y.Left || X.Right != Y.Right ||
        X.Leaf != Y.Leaf || X.Mask != Y.Mask || X.Height != Y.Height)
      return false;
  }
  return true;
}

TEST(HotLoop, BranchMatchesBuildingEveryChild) {
  BranchScratch Scratch;
  TopologyArena Arena(14);
  std::vector<BranchedChild> Got, Want, All;
  int Compared = 0;
  for (std::uint64_t Seed = 1; Seed <= 2; ++Seed)
    for (const DistanceMatrix &M : scoringMatrices(14, Seed))
      for (ThreeThreeMode TT :
           {ThreeThreeMode::None, ThreeThreeMode::ThirdSpecies,
            ThreeThreeMode::AllInsertions})
        for (bool CollectAll : {false, true}) {
          BnbOptions Options = quietOptions(TT);
          Options.CollectAllOptimal = CollectAll;
          BnbEngine Engine(M, Options);
          const double Eps = Options.Epsilon;
          Rng Random(Seed);
          Topology T = Engine.rootTopology();
          while (!Engine.isComplete(T)) {
            // Upper bounds on and around the children's own bounds, where
            // the score alone cannot decide and the exact rule must.
            BnbStats Unused;
            buildEveryChild(Engine, T, std::numeric_limits<double>::infinity(),
                            Unused, All);
            std::vector<double> Ubs = {Engine.initialUpperBound(),
                                       Engine.lowerBound(T) + 1e-3};
            for (std::size_t I : {std::size_t{0}, All.size() / 2,
                                  All.size() - 1}) {
              if (I >= All.size())
                continue;
              const double Lb = All[I].LowerBound;
              const double Margin = 1e-10 * (1.0 + Lb);
              for (double Ub :
                   {Lb, Lb - Eps, Lb + Eps, Lb - Margin, Lb + Margin,
                    std::nextafter(Lb, 0.0), std::nextafter(Lb, 2.0 * Lb),
                    std::nextafter(Lb - Eps, 0.0),
                    std::nextafter(Lb + Eps, 2.0 * Lb)})
                Ubs.push_back(Ub);
            }
            for (double Ub : Ubs) {
              SCOPED_TRACE(testing::Message()
                           << "seed=" << Seed << " k=" << T.numPlaced()
                           << " ub=" << Ub << " collect=" << CollectAll);
              BnbStats GotStats, WantStats;
              Engine.branch(T, Ub, GotStats, Got, Scratch, &Arena);
              buildEveryChild(Engine, T, Ub, WantStats, Want);
              ASSERT_EQ(Got.size(), Want.size());
              for (std::size_t I = 0; I < Got.size(); ++I) {
                EXPECT_EQ(Got[I].LowerBound, Want[I].LowerBound);
                EXPECT_TRUE(sameNodes(Got[I].Node, Want[I].Node));
              }
              EXPECT_EQ(GotStats.Generated, WantStats.Generated);
              EXPECT_EQ(GotStats.BoundEvals, WantStats.BoundEvals);
              EXPECT_EQ(GotStats.PrunedByBound, WantStats.PrunedByBound);
              EXPECT_EQ(GotStats.PrunedByThreeThree,
                        WantStats.PrunedByThreeThree);
              for (BranchedChild &BC : Got)
                Arena.release(std::move(BC.Node));
              ++Compared;
            }
            if (All.empty())
              break; // the 3-3 filter rejects every child of this path
            T = All[static_cast<std::size_t>(Random.nextBelow(All.size()))]
                    .Node;
          }
        }
  EXPECT_GT(Compared, 1000);
}

} // namespace
