//===- tests/graph_test.cpp - MST, compact sets, hierarchy ------*- C++ -*-===//

#include "graph/CompactSets.h"
#include "graph/Hierarchy.h"
#include "graph/Mst.h"
#include "matrix/Generators.h"
#include "matrix/MetricUtils.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

using namespace mutk;

namespace {

/// The worked example mirroring the PaCT paper's Figure 3: the MST edge
/// order is (0,2), (3,5), (0,1), (2,4), (4,5) and the compact sets are
/// {0,2}, {3,5}, {0,1,2}, {0,1,2,4}.
DistanceMatrix paperExample() {
  DistanceMatrix M(6);
  M.set(0, 1, 3);
  M.set(0, 2, 1);
  M.set(0, 3, 9);
  M.set(0, 4, 4.5);
  M.set(0, 5, 9);
  M.set(1, 2, 3.5);
  M.set(1, 3, 9);
  M.set(1, 4, 4.5);
  M.set(1, 5, 9);
  M.set(2, 3, 9);
  M.set(2, 4, 4);
  M.set(2, 5, 9);
  M.set(3, 4, 6);
  M.set(3, 5, 2);
  M.set(4, 5, 5);
  return M;
}

std::vector<std::vector<int>> memberLists(const std::vector<CompactSet> &Sets) {
  std::vector<std::vector<int>> Lists;
  for (const CompactSet &Set : Sets)
    Lists.push_back(Set.Members);
  std::sort(Lists.begin(), Lists.end());
  return Lists;
}

/// Integer distances drawn from \p Levels values and repaired into a
/// metric: dense with ties, the inputs on which different MSTs exist.
DistanceMatrix quantizedMetric(int N, int Levels, Rng &Rand) {
  DistanceMatrix Raw(N);
  for (int I = 0; I < N; ++I)
    for (int J = I + 1; J < N; ++J)
      Raw.set(I, J, Rand.nextInt(1, Levels));
  return metricClosure(Raw);
}

/// The largest edge weight on the path from \p From to \p To in
/// \p Tree, or -1 when \p To is not reachable.
double maxEdgeOnPath(const std::vector<WeightedEdge> &Tree, int From, int To,
                     int Parent = -1) {
  if (From == To)
    return 0.0;
  for (const WeightedEdge &E : Tree) {
    int Next = E.U == From ? E.V : E.V == From ? E.U : -1;
    if (Next < 0 || Next == Parent)
      continue;
    double Rest = maxEdgeOnPath(Tree, Next, To, From);
    if (Rest >= 0.0)
      return std::max(E.Weight, Rest);
  }
  return -1.0;
}

} // namespace

TEST(Mst, PaperExampleEdges) {
  std::vector<WeightedEdge> Tree = sortedMst(paperExample());
  ASSERT_EQ(Tree.size(), 5u);
  EXPECT_EQ(Tree[0], (WeightedEdge{0, 2, 1}));
  EXPECT_EQ(Tree[1], (WeightedEdge{3, 5, 2}));
  EXPECT_EQ(Tree[2], (WeightedEdge{0, 1, 3}));
  EXPECT_EQ(Tree[3], (WeightedEdge{2, 4, 4}));
  EXPECT_EQ(Tree[4], (WeightedEdge{4, 5, 5}));
  EXPECT_TRUE(isSpanningTree(Tree, 6));
  EXPECT_DOUBLE_EQ(totalWeight(Tree), 15.0);
}

TEST(Mst, PrimTreeSatisfiesTheCycleProperty) {
  // A spanning tree is minimum iff every non-tree edge weighs at least
  // the largest edge on its tree path; quantized inputs add ties.
  Rng Rand(5);
  for (std::uint64_t Seed : {1u, 2u, 3u, 4u}) {
    for (const DistanceMatrix &M :
         {uniformRandomMetric(25, Seed), quantizedMetric(25, 3, Rand)}) {
      std::vector<WeightedEdge> Tree = sortedMst(M);
      ASSERT_TRUE(isSpanningTree(Tree, 25)) << "seed " << Seed;
      EXPECT_TRUE(std::is_sorted(Tree.begin(), Tree.end(), edgeLess));
      for (int I = 0; I < 25; ++I)
        for (int J = I + 1; J < 25; ++J)
          EXPECT_GE(M.at(I, J), maxEdgeOnPath(Tree, I, J))
              << "seed " << Seed << " edge " << I << "-" << J;
    }
  }
}

TEST(Mst, TinyGraphs) {
  DistanceMatrix M1(1);
  EXPECT_TRUE(sortedMst(M1).empty());
  EXPECT_TRUE(primMst(M1).empty());
  DistanceMatrix M2(2);
  M2.set(0, 1, 4);
  auto Tree = sortedMst(M2);
  ASSERT_EQ(Tree.size(), 1u);
  EXPECT_EQ(Tree[0], (WeightedEdge{0, 1, 4}));

  // Species 0 is infinitely far from everyone, so the tree must take an
  // infinite edge out of vertex 0 before it can reach the rest.
  const double Inf = std::numeric_limits<double>::infinity();
  DistanceMatrix M3(3);
  M3.set(0, 1, Inf);
  M3.set(0, 2, Inf);
  M3.set(1, 2, 2);
  Tree = sortedMst(M3);
  EXPECT_TRUE(isSpanningTree(Tree, 3));
  EXPECT_EQ(Tree, (std::vector<WeightedEdge>{{1, 2, 2}, {0, 1, Inf}}));
  // Every distance infinite: still a spanning tree with real endpoints.
  DistanceMatrix MInf(4);
  for (int I = 0; I < 4; ++I)
    for (int J = I + 1; J < 4; ++J)
      MInf.set(I, J, Inf);
  EXPECT_TRUE(isSpanningTree(primMst(MInf), 4));
  EXPECT_TRUE(isSpanningTree(sortedMst(MInf), 4));
}

TEST(Mst, SpanningTreePredicateRejectsCycles) {
  std::vector<WeightedEdge> Bad = {{0, 1, 1}, {1, 2, 1}, {2, 0, 1}};
  EXPECT_FALSE(isSpanningTree(Bad, 4)); // wrong count
  EXPECT_FALSE(isSpanningTree(Bad, 3)); // hmm: 3 edges for n=3 is wrong too
  std::vector<WeightedEdge> Disconnected = {{0, 1, 1}, {2, 3, 1}, {0, 1, 2}};
  EXPECT_FALSE(isSpanningTree(Disconnected, 4));
}

TEST(CompactSets, DefinitionPredicate) {
  DistanceMatrix M = paperExample();
  EXPECT_TRUE(isCompactSet(M, {0, 2}));
  EXPECT_TRUE(isCompactSet(M, {3, 5}));
  EXPECT_TRUE(isCompactSet(M, {0, 1, 2}));
  EXPECT_TRUE(isCompactSet(M, {0, 1, 2, 4}));
  EXPECT_FALSE(isCompactSet(M, {0, 1}));    // 2 is closer to 0 than 1 is
  EXPECT_FALSE(isCompactSet(M, {3, 4, 5})); // diameter 6 > outgoing 4
  // Conventions: singleton and whole set are compact.
  EXPECT_TRUE(isCompactSet(M, {2}));
  EXPECT_TRUE(isCompactSet(M, {0, 1, 2, 3, 4, 5}));
}

TEST(CompactSets, PaperExampleDetection) {
  std::vector<CompactSet> Sets = findCompactSets(paperExample());
  EXPECT_EQ(memberLists(Sets),
            (std::vector<std::vector<int>>{
                {0, 1, 2}, {0, 1, 2, 4}, {0, 2}, {3, 5}}));
  // Witness values for {0,1,2}: diameter 3.5, outgoing min 4.
  for (const CompactSet &Set : Sets)
    if (Set.Members == std::vector<int>{0, 1, 2}) {
      EXPECT_DOUBLE_EQ(Set.MaxInside, 3.5);
      EXPECT_DOUBLE_EQ(Set.MinOutgoing, 4.0);
    }
}

TEST(CompactSets, MatchesBruteForceOnRandomInputs) {
  for (std::uint64_t Seed = 0; Seed < 8; ++Seed) {
    DistanceMatrix M = plantedClusterMetric(12, Seed, 0.2);
    auto Fast = memberLists(findCompactSets(M));
    auto Slow = memberLists(findCompactSetsBruteForce(M));
    EXPECT_EQ(Fast, Slow) << "seed " << Seed;
  }
}

TEST(CompactSets, MatchesBruteForceOnUniformInputs) {
  for (std::uint64_t Seed = 0; Seed < 8; ++Seed) {
    DistanceMatrix M = uniformRandomMetric(11, Seed);
    EXPECT_EQ(memberLists(findCompactSets(M)),
              memberLists(findCompactSetsBruteForce(M)))
        << "seed " << Seed;
  }
}

TEST(CompactSets, UltrametricInputYieldsEverySubtree) {
  // In a strict ultrametric with distinct heights, every generating
  // subtree is compact: expect n - 2 proper nontrivial compact sets for
  // a binary hierarchy over n species (one per internal node except the
  // root).
  DistanceMatrix M = randomUltrametricMatrix(16, 5);
  auto Sets = findCompactSets(M);
  EXPECT_EQ(static_cast<int>(Sets.size()), 14);
  EXPECT_TRUE(isLaminarFamily(Sets));
}

TEST(CompactSets, DetectionIsLaminar) {
  for (std::uint64_t Seed = 0; Seed < 6; ++Seed) {
    auto Sets = findCompactSets(plantedClusterMetric(30, Seed));
    EXPECT_TRUE(isLaminarFamily(Sets)) << "seed " << Seed;
    for (const CompactSet &Set : Sets) {
      EXPECT_GE(Set.size(), 2);
      EXPECT_LT(Set.size(), 30);
      EXPECT_LT(Set.MaxInside, Set.MinOutgoing);
    }
  }
}

TEST(CompactSets, TinyInputsHaveNone) {
  DistanceMatrix M2(2);
  M2.set(0, 1, 1);
  EXPECT_TRUE(findCompactSets(M2).empty());
  DistanceMatrix M1(1);
  EXPECT_TRUE(findCompactSets(M1).empty());
}

TEST(CompactSets, TiesExcludeBoundary) {
  // Equilateral square: every pair at distance 1 except one pair at 1.
  DistanceMatrix M(4);
  for (int I = 0; I < 4; ++I)
    for (int J = I + 1; J < 4; ++J)
      M.set(I, J, 1.0);
  // Max inside any subset == min outgoing == 1: strictness fails.
  EXPECT_TRUE(findCompactSets(M).empty());
  EXPECT_TRUE(findCompactSetsBruteForce(M).empty());
}

TEST(CompactSets, MatchesBruteForceOnQuantizedTies) {
  // Few distinct distances: many MSTs exist, and sets tie on MaxInside.
  // The detector must still return exactly the oracle's sets, witnesses
  // and order.
  Rng Rand(2024);
  for (int Trial = 0; Trial < 400; ++Trial) {
    const int N = 3 + Trial % 10;
    const int Levels = 2 + Trial / 10 % 4;
    DistanceMatrix M = quantizedMetric(N, Levels, Rand);
    std::vector<CompactSet> Fast = findCompactSets(M);
    std::vector<CompactSet> Slow = findCompactSetsBruteForce(M);
    ASSERT_EQ(Fast.size(), Slow.size()) << "trial " << Trial;
    for (std::size_t I = 0; I < Fast.size(); ++I) {
      EXPECT_EQ(Fast[I].Members, Slow[I].Members) << "trial " << Trial;
      EXPECT_EQ(Fast[I].MaxInside, Slow[I].MaxInside) << "trial " << Trial;
      EXPECT_EQ(Fast[I].MinOutgoing, Slow[I].MinOutgoing) << "trial " << Trial;
      EXPECT_LT(Fast[I].MaxInside, Fast[I].MinOutgoing) << "trial " << Trial;
      if (I > 0) {
        EXPECT_LE(Fast[I - 1].MaxInside, Fast[I].MaxInside)
            << "trial " << Trial;
      }
    }
  }
}

TEST(CompactSets, InfiniteDistancesMatchBruteForce) {
  // Species fall into up to three groups that are infinitely far apart;
  // inside a group the distances are quantized. Every Prim step that
  // crosses groups takes an infinite edge, and detection must neither
  // read a bad endpoint nor disagree with the oracle.
  const double Inf = std::numeric_limits<double>::infinity();
  Rng Rand(77);
  for (int Trial = 0; Trial < 120; ++Trial) {
    const int N = 3 + Trial % 9;
    const int Groups = 1 + Trial / 9 % 3;
    std::vector<int> Group(static_cast<std::size_t>(N));
    for (int &G : Group)
      G = Rand.nextInt(0, Groups - 1);
    DistanceMatrix M = quantizedMetric(N, 3, Rand);
    for (int I = 0; I < N; ++I)
      for (int J = I + 1; J < N; ++J)
        if (Group[static_cast<std::size_t>(I)] !=
            Group[static_cast<std::size_t>(J)])
          M.set(I, J, Inf);
    ASSERT_TRUE(isSpanningTree(sortedMst(M), N)) << "trial " << Trial;
    std::vector<CompactSet> Fast = findCompactSets(M);
    std::vector<CompactSet> Slow = findCompactSetsBruteForce(M);
    ASSERT_EQ(Fast.size(), Slow.size()) << "trial " << Trial;
    for (std::size_t I = 0; I < Fast.size(); ++I) {
      EXPECT_EQ(Fast[I].Members, Slow[I].Members) << "trial " << Trial;
      EXPECT_EQ(Fast[I].MaxInside, Slow[I].MaxInside) << "trial " << Trial;
      EXPECT_EQ(Fast[I].MinOutgoing, Slow[I].MinOutgoing) << "trial " << Trial;
    }
    CompactHierarchy H(N, Fast);
    EXPECT_EQ(H.node(H.rootId()).Species.size(), static_cast<std::size_t>(N));
  }
}

TEST(CompactSets, OrderedByMaxInsideNotByCreation) {
  // Five points on a line (diameter 4, created by the weight-1 merges)
  // and a far pair at distance 2 (created later, by the weight-2 merge):
  // the pair has the smaller MaxInside and comes first.
  DistanceMatrix M(7);
  for (int I = 0; I < 5; ++I) {
    for (int J = I + 1; J < 5; ++J)
      M.set(I, J, J - I);
    M.set(I, 5, 10);
    M.set(I, 6, 10);
  }
  M.set(5, 6, 2);
  std::vector<CompactSet> Sets = findCompactSets(M);
  ASSERT_EQ(Sets.size(), 2u);
  EXPECT_EQ(Sets[0].Members, (std::vector<int>{5, 6}));
  EXPECT_EQ(Sets[1].Members, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(Sets[1].MaxInside, 4.0);
  EXPECT_DOUBLE_EQ(Sets[1].MinOutgoing, 10.0);
}

TEST(Hierarchy, PaperExampleStructure) {
  DistanceMatrix M = paperExample();
  CompactHierarchy H(6, findCompactSets(M));

  const auto &Root = H.node(H.rootId());
  EXPECT_EQ(Root.Species.size(), 6u);
  // Root splits into {0,1,2,4} and {3,5}.
  ASSERT_EQ(Root.Children.size(), 2u);
  std::vector<std::vector<int>> RootBlocks = H.partitionAt(H.rootId());
  std::sort(RootBlocks.begin(), RootBlocks.end());
  EXPECT_EQ(RootBlocks, (std::vector<std::vector<int>>{{0, 1, 2, 4}, {3, 5}}));

  // {0,1,2,4} splits into {0,1,2} and {4}; {0,1,2} into {0,2} and {1}.
  EXPECT_EQ(H.maxPartitionSize(), 2);
}

TEST(Hierarchy, SingletonLeavesCoverEverything) {
  for (std::uint64_t Seed = 0; Seed < 4; ++Seed) {
    DistanceMatrix M = plantedClusterMetric(18, Seed);
    CompactHierarchy H(18, findCompactSets(M));
    for (int Id : H.internalNodesTopDown()) {
      auto Blocks = H.partitionAt(Id);
      EXPECT_GE(Blocks.size(), 2u);
      // Blocks partition the node's species.
      std::vector<int> Union;
      for (auto &B : Blocks)
        Union.insert(Union.end(), B.begin(), B.end());
      std::sort(Union.begin(), Union.end());
      EXPECT_EQ(Union, H.node(Id).Species);
    }
  }
}

TEST(Hierarchy, ParentIsTheSmallestStrictSuperset) {
  for (int N : {30, 41, 52, 64}) {
    DistanceMatrix M = plantedClusterMetric(N, static_cast<std::uint64_t>(N));
    std::vector<CompactSet> Sets = findCompactSets(M);
    ASSERT_FALSE(Sets.empty()) << "n " << N;
    CompactHierarchy H(N, Sets);
    const std::vector<int> Internal = H.internalNodesTopDown();
    ASSERT_EQ(Internal.size(), Sets.size() + 1) << "n " << N;
    for (int Id = 0; Id < H.numNodes(); ++Id) {
      const CompactHierarchy::Node &Node = H.node(Id);
      // Brute force over the root and every set node.
      int Want = -1;
      for (int Other : Internal) {
        const std::vector<int> &Outer = H.node(Other).Species;
        if (Outer.size() > Node.Species.size() &&
            std::includes(Outer.begin(), Outer.end(), Node.Species.begin(),
                          Node.Species.end()) &&
            (Want < 0 || Outer.size() < H.node(Want).Species.size()))
          Want = Other;
      }
      EXPECT_EQ(Node.Parent, Want) << "n " << N << " node " << Id;
      // Children in id order: set nodes largest first, then the leaves.
      EXPECT_TRUE(std::is_sorted(Node.Children.begin(), Node.Children.end()));
    }
    // Set nodes take ids 1.. in (size descending, members) order.
    for (std::size_t I = 2; I < Internal.size(); ++I) {
      const std::vector<int> &A = H.node(Internal[I - 1]).Species;
      const std::vector<int> &B = H.node(Internal[I]).Species;
      EXPECT_TRUE(A.size() > B.size() || (A.size() == B.size() && A < B));
    }
  }
}

TEST(Hierarchy, NoCompactSetsGivesFlatRoot) {
  CompactHierarchy H(5, {});
  EXPECT_EQ(H.numNodes(), 6); // root + 5 singletons
  EXPECT_EQ(H.partitionAt(H.rootId()).size(), 5u);
  EXPECT_EQ(H.internalNodesTopDown(), std::vector<int>{0});
}

TEST(Hierarchy, DeepNesting) {
  // Chain of nested compact sets {0,1} c {0,1,2} c {0,1,2,3}.
  std::vector<CompactSet> Sets(3);
  Sets[0].Members = {0, 1};
  Sets[1].Members = {0, 1, 2};
  Sets[2].Members = {0, 1, 2, 3};
  CompactHierarchy H(5, Sets);
  // Root {0..4} -> {0,1,2,3} + {4}; {0,1,2,3} -> {0,1,2} + {3}; etc.
  int Depth = 0;
  int Id = H.rootId();
  while (!H.node(Id).isSingleton()) {
    auto &Children = H.node(Id).Children;
    EXPECT_EQ(Children.size(), 2u);
    int NonSingleton = -1;
    for (int C : Children)
      if (!H.node(C).isSingleton())
        NonSingleton = C;
    if (NonSingleton < 0)
      break;
    Id = NonSingleton;
    ++Depth;
  }
  EXPECT_EQ(Depth, 3);
}

// Property: detection equals brute force across sizes on mixed inputs.
class CompactProperty : public testing::TestWithParam<int> {};

TEST_P(CompactProperty, FastEqualsBruteForce) {
  int N = GetParam();
  for (std::uint64_t Seed = 100; Seed < 103; ++Seed) {
    DistanceMatrix Clustered = plantedClusterMetric(N, Seed, 0.25);
    EXPECT_EQ(memberLists(findCompactSets(Clustered)),
              memberLists(findCompactSetsBruteForce(Clustered)));
    DistanceMatrix Uniform = uniformRandomMetric(N, Seed);
    EXPECT_EQ(memberLists(findCompactSets(Uniform)),
              memberLists(findCompactSetsBruteForce(Uniform)));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CompactProperty,
                         testing::Values(3, 4, 5, 6, 8, 10, 13));
