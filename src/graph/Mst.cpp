//===- graph/Mst.cpp - Minimum spanning trees of the species graph --------===//

#include "graph/Mst.h"

#include "support/UnionFind.h"

#include <algorithm>
#include <cassert>
#include <limits>

using namespace mutk;

bool mutk::edgeLess(const WeightedEdge &A, const WeightedEdge &B) {
  if (A.Weight != B.Weight)
    return A.Weight < B.Weight;
  if (A.U != B.U)
    return A.U < B.U;
  return A.V < B.V;
}

std::vector<WeightedEdge> mutk::primMst(const DistanceMatrix &M) {
  const int N = M.size();
  std::vector<WeightedEdge> Tree;
  if (N < 2)
    return Tree;
  Tree.reserve(static_cast<std::size_t>(N - 1));

  std::vector<bool> InTree(static_cast<std::size_t>(N), false);
  std::vector<double> Best(static_cast<std::size_t>(N),
                           std::numeric_limits<double>::infinity());
  // Vertex 0 enters first, so it is a valid source for every vertex: a
  // Best that stays +infinity (no finite edge from the tree) still names
  // the real edge (0, V), whose weight is then +infinity too.
  std::vector<int> BestFrom(static_cast<std::size_t>(N), 0);

  // One pass per step both relaxes the vertices outside the tree against
  // the vertex just added and picks the next one: the lightest, lowest
  // index first.
  for (int Added = 0, Step = 0; Step < N - 1; ++Step) {
    InTree[static_cast<std::size_t>(Added)] = true;
    const double *Row = M.row(Added);
    int Next = -1;
    for (int V = 0; V < N; ++V) {
      if (InTree[static_cast<std::size_t>(V)])
        continue;
      if (Row[V] < Best[static_cast<std::size_t>(V)]) {
        Best[static_cast<std::size_t>(V)] = Row[V];
        BestFrom[static_cast<std::size_t>(V)] = Added;
      }
      if (Next < 0 ||
          Best[static_cast<std::size_t>(V)] < Best[static_cast<std::size_t>(Next)])
        Next = V;
    }
    assert(Next >= 0 && "graph must be connected (it is complete)");
    int From = BestFrom[static_cast<std::size_t>(Next)];
    Tree.push_back(WeightedEdge{std::min(From, Next), std::max(From, Next),
                                Best[static_cast<std::size_t>(Next)]});
    Added = Next;
  }
  return Tree;
}

std::vector<WeightedEdge> mutk::sortedMst(const DistanceMatrix &M) {
  std::vector<WeightedEdge> Tree = primMst(M);
  std::sort(Tree.begin(), Tree.end(), edgeLess);
  return Tree;
}

void mutk::forEachMerge(const DistanceMatrix &M, const MergeVisitor &Visit) {
  const int N = M.size();
  UnionFind Components(static_cast<std::size_t>(N));
  // Members per component representative, kept sorted.
  std::vector<std::vector<int>> Members(static_cast<std::size_t>(N));
  for (int I = 0; I < N; ++I)
    Members[static_cast<std::size_t>(I)] = {I};

  for (const WeightedEdge &E : sortedMst(M)) {
    int RepA = Components.find(E.U);
    int RepB = Components.find(E.V);
    assert(RepA != RepB && "MST edge endpoints already merged");
    Visit(Members[static_cast<std::size_t>(RepA)],
          Members[static_cast<std::size_t>(RepB)], E.Weight);

    int Rep = Components.unite(RepA, RepB);
    auto &Into = Members[static_cast<std::size_t>(Rep)];
    auto &From = Members[static_cast<std::size_t>(Rep == RepA ? RepB : RepA)];
    const std::size_t Middle = Into.size();
    Into.insert(Into.end(), From.begin(), From.end());
    std::inplace_merge(Into.begin(),
                       Into.begin() + static_cast<std::ptrdiff_t>(Middle),
                       Into.end());
    std::vector<int>().swap(From);
  }
}

double mutk::totalWeight(const std::vector<WeightedEdge> &Edges) {
  double Sum = 0.0;
  for (const WeightedEdge &E : Edges)
    Sum += E.Weight;
  return Sum;
}

bool mutk::isSpanningTree(const std::vector<WeightedEdge> &Edges,
                          int NumVertices) {
  if (static_cast<int>(Edges.size()) != NumVertices - 1)
    return NumVertices <= 1 && Edges.empty();
  UnionFind Components(static_cast<std::size_t>(NumVertices));
  for (const WeightedEdge &E : Edges) {
    if (E.U < 0 || E.V < 0 || E.U >= NumVertices || E.V >= NumVertices)
      return false;
    if (Components.unite(E.U, E.V) < 0)
      return false; // cycle
  }
  return Components.numComponents() == 1;
}
