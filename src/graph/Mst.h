//===- graph/Mst.h - Minimum spanning trees of the species graph *- C++ -*-===//
///
/// \file
/// A distance matrix is viewed as a complete, weighted, undirected graph
/// (paper §2). Compact-set detection starts from a minimum spanning tree of
/// that graph. The paper (§3.1) runs Kruskal over all n(n-1)/2 edges; here
/// dense Prim builds the tree in O(n^2) and only its n - 1 edges are
/// sorted, which yields the same single-linkage merge sequence without
/// sorting the complete graph.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_GRAPH_MST_H
#define MUTK_GRAPH_MST_H

#include "matrix/DistanceMatrix.h"

#include <functional>
#include <vector>

namespace mutk {

/// An undirected weighted edge with `U < V` canonical orientation.
struct WeightedEdge {
  int U = -1;
  int V = -1;
  double Weight = 0.0;

  friend bool operator==(const WeightedEdge &A, const WeightedEdge &B) {
    return A.U == B.U && A.V == B.V && A.Weight == B.Weight;
  }
};

/// Compares by (weight, U, V): a deterministic edge order even in the
/// presence of ties.
bool edgeLess(const WeightedEdge &A, const WeightedEdge &B);

/// Prim MST of the complete graph of \p M (O(n^2), no edge sort).
/// Edge order follows vertex insertion.
std::vector<WeightedEdge> primMst(const DistanceMatrix &M);

/// The `n - 1` edges of `primMst(M)` sorted by `edgeLess`: the order in
/// which single linkage merges components. O(n^2).
std::vector<WeightedEdge> sortedMst(const DistanceMatrix &M);

/// Visitor for `forEachMerge`: the members of the two components an MST
/// edge of weight \p Weight joins, each in increasing species order.
using MergeVisitor = std::function<void(
    const std::vector<int> &A, const std::vector<int> &B, double Weight)>;

/// Replays the single-linkage merge sequence of \p M: for each edge of
/// `sortedMst(M)`, calls \p Visit with the two components it joins, then
/// joins them. Every pair of species is split across exactly one call, so
/// a visitor that touches each cross pair keeps the whole walk O(n^2).
void forEachMerge(const DistanceMatrix &M, const MergeVisitor &Visit);

/// Sum of edge weights.
double totalWeight(const std::vector<WeightedEdge> &Edges);

/// Returns true if \p Edges forms a spanning tree over `0..n-1`.
bool isSpanningTree(const std::vector<WeightedEdge> &Edges, int NumVertices);

} // namespace mutk

#endif // MUTK_GRAPH_MST_H
