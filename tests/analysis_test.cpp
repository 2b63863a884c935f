//===- tests/analysis_test.cpp - Profiles & ASCII rendering -----*- C++ -*-===//

#include "analysis/Profile.h"
#include "bnb/SequentialBnb.h"
#include "matrix/Generators.h"
#include "tree/AsciiTree.h"
#include "tree/Newick.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace mutk;

TEST(MatrixProfile, UltrametricInputHasZeroDefect) {
  DistanceMatrix M = randomUltrametricMatrix(12, 3);
  MatrixProfile P = profileMatrix(M);
  EXPECT_EQ(P.NumSpecies, 12);
  EXPECT_NEAR(P.UltrametricityDefect, 0.0, 1e-12);
  // Distinct random heights: every triple has a strict closest pair.
  EXPECT_NEAR(P.TripleDecisiveness, 1.0, 1e-12);
  // Every non-root subtree is compact: n - 2 sets covering all species.
  EXPECT_EQ(P.NumCompactSets, 10);
  EXPECT_NEAR(P.CompactCoverage, 1.0, 1e-12);
  EXPECT_EQ(P.LargestBlock, 2);
}

TEST(MatrixProfile, UniformInputHasPositiveDefect) {
  DistanceMatrix M = uniformRandomMetric(14, 2);
  MatrixProfile P = profileMatrix(M);
  EXPECT_GT(P.UltrametricityDefect, 0.01);
  EXPECT_GT(P.MeanDistance, P.MinDistance);
  EXPECT_LT(P.MeanDistance, P.MaxDistance);
}

TEST(MatrixProfile, EquilateralHasNoDecisiveTriples) {
  DistanceMatrix M(6);
  for (int I = 0; I < 6; ++I)
    for (int J = I + 1; J < 6; ++J)
      M.set(I, J, 3.0);
  MatrixProfile P = profileMatrix(M);
  EXPECT_EQ(P.TripleDecisiveness, 0.0);
  EXPECT_EQ(P.NumCompactSets, 0);
  EXPECT_EQ(P.CompactCoverage, 0.0);
  EXPECT_EQ(P.LargestBlock, 6); // one flat root block
  EXPECT_NEAR(P.UltrametricityDefect, 0.0, 1e-12); // equilateral IS ultrametric
}

TEST(MatrixProfile, TinySizes) {
  EXPECT_EQ(profileMatrix(DistanceMatrix(0)).NumSpecies, 0);
  EXPECT_EQ(profileMatrix(DistanceMatrix(1)).NumSpecies, 1);
  DistanceMatrix M2(2);
  M2.set(0, 1, 7);
  MatrixProfile P = profileMatrix(M2);
  EXPECT_EQ(P.MaxDistance, 7.0);
  EXPECT_EQ(P.MeanDistance, 7.0);
}

TEST(MatrixProfile, PrintsAllFields) {
  std::ostringstream OS;
  printProfile(OS, profileMatrix(uniformRandomMetric(8, 1)));
  std::string Text = OS.str();
  EXPECT_NE(Text.find("species"), std::string::npos);
  EXPECT_NE(Text.find("ultrametricity defect"), std::string::npos);
  EXPECT_NE(Text.find("compact sets"), std::string::npos);
}

TEST(TreeProfile, CaterpillarIsMaximallyImbalanced) {
  PhyloTree T;
  int Acc = T.addLeaf(0);
  for (int I = 1; I < 8; ++I)
    Acc = T.addInternal(Acc, T.addLeaf(I), static_cast<double>(I));
  TreeProfile P = profileTree(T);
  EXPECT_EQ(P.NumLeaves, 8);
  EXPECT_EQ(P.MaxDepth, 7);
  EXPECT_NEAR(P.Imbalance, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(P.RootHeight, 7.0);
}

TEST(TreeProfile, BalancedTreeHasZeroImbalance) {
  PhyloTree T;
  int A = T.addInternal(T.addLeaf(0), T.addLeaf(1), 1);
  int B = T.addInternal(T.addLeaf(2), T.addLeaf(3), 1);
  T.addInternal(A, B, 2);
  TreeProfile P = profileTree(T);
  EXPECT_EQ(P.MaxDepth, 2);
  EXPECT_DOUBLE_EQ(P.Imbalance, 0.0);
  EXPECT_DOUBLE_EQ(P.Weight, T.weight());
}

TEST(TreeProfile, TinyTrees) {
  PhyloTree Empty;
  EXPECT_EQ(profileTree(Empty).NumLeaves, 0);
  PhyloTree Leaf;
  Leaf.addLeaf(0);
  TreeProfile P = profileTree(Leaf);
  EXPECT_EQ(P.NumLeaves, 1);
  EXPECT_EQ(P.MaxDepth, 0);
}

TEST(AsciiTree, RendersAllLeafNamesOncePerLine) {
  DistanceMatrix M = plantedClusterMetric(7, 5);
  MutResult R = solveMutSequential(M);
  std::string Art = toAsciiTree(R.Tree);
  for (int I = 0; I < 7; ++I) {
    std::string Name = "s" + std::to_string(I);
    EXPECT_NE(Art.find(Name + "\n"), std::string::npos) << Art;
  }
  // One line per node: 7 leaves + 6 internal junctions.
  EXPECT_EQ(std::count(Art.begin(), Art.end(), '\n'), 13);
}

TEST(AsciiTree, KnownSmallShape) {
  PhyloTree T;
  T.addInternal(T.addLeaf(0), T.addLeaf(1), 1.5);
  T.setNames({"human", "chimp"});
  EXPECT_EQ(toAsciiTree(T), "/-- human\n+\n\\-- chimp\n");
}

TEST(AsciiTree, HeightsShownWhenRequested) {
  PhyloTree T;
  T.addInternal(T.addLeaf(0), T.addLeaf(1), 2.5);
  AsciiTreeOptions Options;
  Options.ShowHeights = true;
  EXPECT_NE(toAsciiTree(T, Options).find("@2.5"), std::string::npos);
}

TEST(AsciiTree, EmptyTree) {
  PhyloTree T;
  EXPECT_EQ(toAsciiTree(T), "(empty tree)\n");
}

TEST(AsciiTree, BarsConnectSiblings) {
  // Three leaves: ((a,b),c). Expect a bar on the row between the (a,b)
  // junction and the root.
  auto T = parseNewick("((a:1,b:1):1,c:2);");
  ASSERT_TRUE(T.has_value());
  std::string Art = toAsciiTree(*T);
  // Shape:
  //     /-- a
  // /-- +
  // |   \-- b
  // +
  // \-- c
  EXPECT_EQ(Art, "    /-- a\n/-- +\n|   \\-- b\n+\n\\-- c\n");
}
