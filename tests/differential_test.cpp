//===- tests/differential_test.cpp - Cross-solver fuzzing -------*- C++ -*-===//
//
// Randomized differential testing: every solver must agree on the
// optimum for the same matrix, including on adversarial inputs with
// many ties (integer-rounded distances create large lower-bound
// plateaus, the regime where subtle pruning bugs hide).
//
//===----------------------------------------------------------------------===//

#include "bnb/BestFirstBnb.h"
#include "bnb/SequentialBnb.h"
#include "matrix/Generators.h"
#include "matrix/MetricUtils.h"
#include "mp/MpBnb.h"
#include "parallel/ThreadedBnb.h"
#include "seq/EvolutionSim.h"
#include "sim/ClusterSim.h"
#include "support/Rng.h"
#include "tree/RobinsonFoulds.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

using namespace mutk;

namespace {

/// A metric with heavy ties: integer entries in a narrow range, then
/// metric closure (which preserves integrality).
DistanceMatrix tiedMetric(int N, std::uint64_t Seed) {
  Rng Rand(Seed);
  DistanceMatrix M(N);
  for (int I = 0; I < N; ++I)
    for (int J = I + 1; J < N; ++J)
      M.set(I, J, static_cast<double>(Rand.nextInt(3, 9)));
  return metricClosure(M);
}

} // namespace

TEST(Differential, AllSolversAgreeOnTiedMetrics) {
  for (std::uint64_t Seed = 0; Seed < 8; ++Seed) {
    DistanceMatrix M = tiedMetric(9, Seed);
    double Dfs = solveMutSequential(M).Cost;
    EXPECT_NEAR(solveMutBestFirst(M).Cost, Dfs, 1e-9) << "bf seed " << Seed;
    EXPECT_NEAR(solveMutThreaded(M, 3).Cost, Dfs, 1e-9)
        << "threads seed " << Seed;
    EXPECT_NEAR(solveMutMessagePassing(M, 3).Cost, Dfs, 1e-9)
        << "mp seed " << Seed;
    ClusterSpec Spec;
    Spec.NumNodes = 5;
    EXPECT_NEAR(simulateClusterBnb(M, Spec).Cost, Dfs, 1e-9)
        << "sim seed " << Seed;
  }
}

TEST(Differential, CollectAllSetsMatchBetweenDfsAndBestFirst) {
  // Not just the cost: the *sets* of optimal topologies must coincide.
  for (std::uint64_t Seed = 0; Seed < 6; ++Seed) {
    DistanceMatrix M = tiedMetric(7, Seed);
    BnbOptions Options;
    Options.CollectAllOptimal = true;
    MutResult Dfs = solveMutSequential(M, Options);
    BestFirstResult Bf = solveMutBestFirst(M, Options);

    auto canon = [](const std::vector<PhyloTree> &Trees) {
      std::set<std::set<std::vector<int>>> Result;
      for (const PhyloTree &T : Trees)
        Result.insert(nontrivialClades(T));
      return Result;
    };
    EXPECT_EQ(canon(Dfs.AllOptimal), canon(Bf.AllOptimal))
        << "seed " << Seed;
    EXPECT_FALSE(Dfs.AllOptimal.empty());
  }
}

TEST(Differential, IntegerCostsStayIntegral) {
  // Integer distances realize half-integral heights, so the optimal
  // weight must be a multiple of 0.5 — a cheap arithmetic-corruption
  // canary.
  for (std::uint64_t Seed = 0; Seed < 8; ++Seed) {
    DistanceMatrix M = tiedMetric(8, Seed);
    double Cost = solveMutSequential(M).Cost;
    EXPECT_NEAR(Cost * 2.0, std::round(Cost * 2.0), 1e-9) << "seed " << Seed;
  }
}

TEST(Differential, TiedMatricesHaveManyOptima) {
  // Sanity that the workload really exercises plateaus.
  std::size_t MaxOptima = 0;
  for (std::uint64_t Seed = 0; Seed < 6; ++Seed) {
    DistanceMatrix M = tiedMetric(7, Seed);
    BnbOptions Options;
    Options.CollectAllOptimal = true;
    MaxOptima =
        std::max(MaxOptima, solveMutSequential(M, Options).AllOptimal.size());
  }
  EXPECT_GT(MaxOptima, 1u);
}

TEST(Differential, SolversAgreeOnMixedWorkloadSweep) {
  Rng Rand(99);
  for (int Trial = 0; Trial < 6; ++Trial) {
    int N = Rand.nextInt(4, 11);
    std::uint64_t Seed = Rand.next();
    DistanceMatrix M;
    switch (Trial % 3) {
    case 0:
      M = uniformRandomMetric(N, Seed);
      break;
    case 1:
      M = plantedClusterMetric(N, Seed);
      break;
    default:
      M = tiedMetric(N, Seed);
      break;
    }
    double Dfs = solveMutSequential(M).Cost;
    EXPECT_NEAR(solveMutBestFirst(M).Cost, Dfs, 1e-9);
    EXPECT_NEAR(solveMutThreaded(M, 2).Cost, Dfs, 1e-9);
  }
}

TEST(Differential, OneWorkerDfsDriversVisitTheSameNodes) {
  // With one worker every DFS driver must pop exactly the nodes the
  // sequential solver pops, in the same order: children go to the pool
  // best last and the dealt seeds leave the best one at the back. Any
  // ordering drift shows up as a different node count.
  EvolutionSpec HardDna; // the benchmarks' hardDnaWorkload spec
  HardDna.SequenceLength = 120;
  HardDna.SubstitutionRate = 0.5;
  HardDna.RateVariation = 1.2;
  std::vector<std::pair<std::string, DistanceMatrix>> Fixtures;
  for (std::uint64_t Seed = 1; Seed <= 6; ++Seed) {
    std::string S = std::to_string(Seed);
    Fixtures.emplace_back("unif13/" + S,
                          uniformRandomMetric(13, Seed, 1.0, 100.0));
    Fixtures.emplace_back("harddna14/" + S,
                          hmdnaLikeMatrix(14, Seed, HardDna));
    Fixtures.emplace_back("tied10/" + S, tiedMetric(10, Seed));
  }
  for (const auto &[Name, M] : Fixtures) {
    for (ThreeThreeMode Mode :
         {ThreeThreeMode::None, ThreeThreeMode::ThirdSpecies}) {
      BnbOptions Options;
      Options.ThreeThree = Mode;
      MutResult Seq = solveMutSequential(M, Options);
      ParallelMutResult Threaded = solveMutThreaded(M, 1, Options);
      ClusterSimResult Sim = simulateSequentialBaseline(M, Options);
      MpMutResult Mp = solveMutMessagePassing(M, 1, Options);
      const std::string Case =
          Name + (Mode == ThreeThreeMode::None ? " none" : " third");
      auto expectSameNodes = [&](const char *Driver, const MutResult &R) {
        SCOPED_TRACE(Case + " " + Driver);
        EXPECT_EQ(R.Cost, Seq.Cost);
        EXPECT_EQ(R.Stats.Branched, Seq.Stats.Branched);
        EXPECT_EQ(R.Stats.Generated, Seq.Stats.Generated);
        EXPECT_EQ(R.Stats.PrunedByBound, Seq.Stats.PrunedByBound);
        EXPECT_EQ(R.Stats.PrunedByThreeThree, Seq.Stats.PrunedByThreeThree);
        EXPECT_EQ(R.Stats.UbUpdates, Seq.Stats.UbUpdates);
        EXPECT_EQ(R.Stats.BoundEvals, Seq.Stats.BoundEvals);
      };
      expectSameNodes("threaded", Threaded);
      expectSameNodes("sim", Sim);
      expectSameNodes("mp", Mp);
    }
  }
}
