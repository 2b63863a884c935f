//===- tests/seq_test.cpp - Edit distance & evolution simulator -*- C++ -*-===//

#include "matrix/MetricUtils.h"
#include "seq/EditDistance.h"
#include "seq/EvolutionSim.h"
#include "support/Rng.h"
#include "tree/RobinsonFoulds.h"

#include <gtest/gtest.h>

using namespace mutk;

namespace {

/// Random ACGT string of length \p Len.
std::string randomDna(Rng &Rand, int Len) {
  static const char Bases[] = "ACGT";
  std::string S(static_cast<std::size_t>(Len), 'A');
  for (char &C : S)
    C = Bases[Rand.nextBelow(4)];
  return S;
}

} // namespace

TEST(EditDistance, KnownValues) {
  EXPECT_EQ(editDistance("", ""), 0);
  EXPECT_EQ(editDistance("A", ""), 1);
  EXPECT_EQ(editDistance("", "ACGT"), 4);
  EXPECT_EQ(editDistance("ACGT", "ACGT"), 0);
  EXPECT_EQ(editDistance("ACGT", "AGGT"), 1);  // substitution
  EXPECT_EQ(editDistance("ACGT", "ACGGT"), 1); // insertion
  EXPECT_EQ(editDistance("kitten", "sitting"), 3);
}

TEST(EditDistance, Symmetric) {
  Rng Rand(1);
  for (int I = 0; I < 20; ++I) {
    std::string A = randomDna(Rand, Rand.nextInt(0, 40));
    std::string B = randomDna(Rand, Rand.nextInt(0, 40));
    EXPECT_EQ(editDistance(A, B), editDistance(B, A));
  }
}

TEST(EditDistance, TriangleInequality) {
  Rng Rand(2);
  for (int I = 0; I < 30; ++I) {
    std::string A = randomDna(Rand, Rand.nextInt(0, 25));
    std::string B = randomDna(Rand, Rand.nextInt(0, 25));
    std::string C = randomDna(Rand, Rand.nextInt(0, 25));
    EXPECT_LE(editDistance(A, C), editDistance(A, B) + editDistance(B, C));
  }
}

TEST(EditDistance, BandedExactWhenWithinBand) {
  Rng Rand(3);
  for (int I = 0; I < 30; ++I) {
    std::string A = randomDna(Rand, 30);
    std::string B = A;
    // A few local edits keep the distance small.
    for (int E = 0; E < 3; ++E)
      B[static_cast<std::size_t>(Rand.nextInt(0, 29))] = 'A';
    int Exact = editDistance(A, B);
    EXPECT_EQ(bandedEditDistance(A, B, 10), Exact);
  }
}

TEST(EditDistance, BandedSignalsOverflow) {
  std::string A(20, 'A');
  std::string B(20, 'C');
  EXPECT_GT(bandedEditDistance(A, B, 5), 5); // true distance is 20
}

TEST(EditDistance, FastEqualsFull) {
  Rng Rand(4);
  for (int I = 0; I < 40; ++I) {
    std::string A = randomDna(Rand, Rand.nextInt(0, 60));
    std::string B = randomDna(Rand, Rand.nextInt(0, 60));
    EXPECT_EQ(fastEditDistance(A, B), editDistance(A, B))
        << "A=" << A << " B=" << B;
  }
}

TEST(EditDistance, FastHandlesVeryDifferentLengths) {
  EXPECT_EQ(fastEditDistance("A", std::string(100, 'A')), 99);
  EXPECT_EQ(fastEditDistance(std::string(50, 'C'), ""), 50);
}

TEST(EditDistance, Hamming) {
  EXPECT_EQ(hammingDistance("ACGT", "ACGT"), 0);
  EXPECT_EQ(hammingDistance("ACGT", "TGCA"), 4);
  EXPECT_EQ(hammingDistance("", ""), 0);
}

TEST(EvolutionSim, DeterministicAndShaped) {
  EvolutionResult A = simulateEvolution(10, 42);
  EvolutionResult B = simulateEvolution(10, 42);
  ASSERT_EQ(A.Sequences.size(), 10u);
  EXPECT_EQ(A.Sequences, B.Sequences);
  EXPECT_EQ(A.TrueTree.numLeaves(), 10);
  EXPECT_TRUE(A.TrueTree.isWellFormed());
  EXPECT_TRUE(A.TrueTree.hasMonotoneHeights());
  EXPECT_EQ(A.Names.front(), "dna0");
}

TEST(EvolutionSim, SequencesMutateAlongTree) {
  EvolutionSpec Spec;
  Spec.SubstitutionRate = 0.3; // strong divergence
  EvolutionResult R = simulateEvolution(6, 7, Spec);
  // At least one pair must differ.
  bool AnyDiff = false;
  for (std::size_t I = 1; I < R.Sequences.size(); ++I)
    AnyDiff |= (R.Sequences[0] != R.Sequences[I]);
  EXPECT_TRUE(AnyDiff);
}

TEST(EvolutionSim, ZeroRatesKeepSequencesIdentical) {
  EvolutionSpec Spec;
  Spec.SubstitutionRate = 0.0;
  Spec.IndelRate = 0.0;
  EvolutionResult R = simulateEvolution(5, 9, Spec);
  for (const std::string &S : R.Sequences)
    EXPECT_EQ(S, R.Sequences[0]);
}

TEST(EvolutionSim, EditDistanceMatrixIsMetric) {
  for (std::uint64_t Seed : {1u, 2u, 3u}) {
    DistanceMatrix M = hmdnaLikeMatrix(12, Seed);
    EXPECT_EQ(M.size(), 12);
    EXPECT_TRUE(isMetric(M)) << "seed " << Seed;
    EXPECT_EQ(M.name(0), "dna0");
  }
}

TEST(EvolutionSim, PureTransitionBiasOnlyMutatesWithinClass) {
  // TransitionBias = 1 and no indels: every difference to the ancestor
  // must be a purine<->purine or pyrimidine<->pyrimidine swap. With two
  // species, species 0's sequence relates to species 1's only through
  // substitutions along the two branches, so compare classes pairwise.
  EvolutionSpec Spec;
  Spec.TransitionBias = 1.0;
  Spec.IndelRate = 0.0;
  Spec.SubstitutionRate = 0.4;
  EvolutionResult R = simulateEvolution(2, 11, Spec);
  ASSERT_EQ(R.Sequences[0].size(), R.Sequences[1].size());
  auto isPurine = [](char C) { return C == 'A' || C == 'G'; };
  int Diffs = 0;
  for (std::size_t I = 0; I < R.Sequences[0].size(); ++I) {
    char A = R.Sequences[0][I];
    char B = R.Sequences[1][I];
    if (A == B)
      continue;
    ++Diffs;
    EXPECT_EQ(isPurine(A), isPurine(B))
        << "transversion at site " << I << " despite bias 1.0";
  }
  EXPECT_GT(Diffs, 0);
}

TEST(EvolutionSim, TransitionBiasChangesSequences) {
  EvolutionSpec JukesCantor;
  JukesCantor.TransitionBias = 1.0 / 3.0;
  EvolutionSpec Kimura;
  Kimura.TransitionBias = 0.9;
  EvolutionResult A = simulateEvolution(6, 13, JukesCantor);
  EvolutionResult B = simulateEvolution(6, 13, Kimura);
  EXPECT_NE(A.Sequences, B.Sequences);
}

TEST(EvolutionSim, SingleSpecies) {
  EvolutionResult R = simulateEvolution(1, 3);
  EXPECT_EQ(R.TrueTree.numLeaves(), 1);
  EXPECT_EQ(R.Sequences.size(), 1u);
  DistanceMatrix M = editDistanceMatrix(R.Sequences, R.Names);
  EXPECT_EQ(M.size(), 1);
}

TEST(EvolutionSim, CloserInTreeMeansSmallerDistanceOnAverage) {
  // With near-constant rates, pairs with a shallow LCA should on average
  // have smaller edit distance than pairs joined at the root.
  EvolutionSpec Spec;
  Spec.SubstitutionRate = 0.15;
  Spec.SequenceLength = 300;
  Spec.RateVariation = 0.0; // strict clock for this property
  EvolutionResult R = simulateEvolution(12, 21, Spec);
  DistanceMatrix M = editDistanceMatrix(R.Sequences);

  double SumShallow = 0.0, SumDeep = 0.0;
  int CountShallow = 0, CountDeep = 0;
  double RootH = R.TrueTree.rootHeight();
  for (int I = 0; I < 12; ++I)
    for (int J = I + 1; J < 12; ++J) {
      double LcaH = R.TrueTree.node(R.TrueTree.lcaOfSpecies(I, J)).Height;
      if (LcaH < 0.4 * RootH) {
        SumShallow += M.at(I, J);
        ++CountShallow;
      } else if (LcaH > 0.9 * RootH) {
        SumDeep += M.at(I, J);
        ++CountDeep;
      }
    }
  ASSERT_GT(CountShallow, 0);
  ASSERT_GT(CountDeep, 0);
  EXPECT_LT(SumShallow / CountShallow, SumDeep / CountDeep);
}

// Property: fast edit distance equals the full DP across length scales.
class EditDistanceProperty : public testing::TestWithParam<int> {};

TEST_P(EditDistanceProperty, FastEqualsFullAtScale) {
  Rng Rand(static_cast<std::uint64_t>(GetParam()));
  std::string A = randomDna(Rand, GetParam());
  std::string B = A;
  // Apply ~10% edits.
  int Edits = std::max(1, GetParam() / 10);
  for (int E = 0; E < Edits; ++E) {
    std::size_t Pos = static_cast<std::size_t>(
        Rand.nextBelow(std::max<std::uint64_t>(1, B.size())));
    switch (Rand.nextInt(0, 2)) {
    case 0:
      if (!B.empty())
        B[Pos] = 'T';
      break;
    case 1:
      B.insert(Pos, 1, 'G');
      break;
    default:
      if (!B.empty())
        B.erase(Pos, 1);
      break;
    }
  }
  EXPECT_EQ(fastEditDistance(A, B), editDistance(A, B));
}

INSTANTIATE_TEST_SUITE_P(Lengths, EditDistanceProperty,
                         testing::Values(1, 5, 20, 80, 200, 500));
