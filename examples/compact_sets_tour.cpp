//===- examples/compact_sets_tour.cpp - The paper's worked example --------===//
//
// Walks the PaCT 2005 paper's running example (Figures 3-6) on a
// six-species matrix with the same structure: prints the sorted MST,
// every compact set with its witnesses, the laminar hierarchy, the
// condensed matrices D', and the final merged ultrametric tree.
//
// Run:  ./build/examples/compact_sets_tour
//
//===----------------------------------------------------------------------===//

#include "compact/CompactSetPipeline.h"
#include "graph/Hierarchy.h"
#include "graph/Mst.h"
#include "matrix/MatrixIO.h"
#include "matrix/MetricUtils.h"
#include "tree/Newick.h"

#include <cstdio>
#include <sstream>

using namespace mutk;

namespace {

/// Six species arranged like the paper's Figure 3 graph: the MST edge
/// order and the compact-set family match the paper's worked example.
DistanceMatrix paperExample() {
  DistanceMatrix M(6);
  // Species 0..5 play the paper's vertices 1..6.
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

void printMembers(const std::vector<int> &Members) {
  std::printf("{");
  for (std::size_t I = 0; I < Members.size(); ++I)
    std::printf("%s%d", I ? "," : "", Members[I]);
  std::printf("}");
}

} // namespace

int main() {
  DistanceMatrix M = paperExample();
  std::printf("Distance matrix (a metric: %s):\n%s\n",
              isMetric(M) ? "yes" : "no", matrixToString(M).c_str());

  // Step 1 (paper Fig. 4): the minimum spanning tree (dense Prim, its
  // n - 1 edges sorted into single-linkage merge order).
  std::printf("MST edges (ascending):\n");
  for (const WeightedEdge &E : sortedMst(M))
    std::printf("  (%d, %d)  weight %.2f\n", E.U, E.V, E.Weight);

  // Step 2 (paper Fig. 5): all compact sets.
  std::vector<CompactSet> Sets = findCompactSets(M);
  std::printf("\nCompact sets (max inside < min outgoing):\n");
  for (const CompactSet &Set : Sets) {
    std::printf("  ");
    printMembers(Set.Members);
    std::printf("  max-inside %.2f < min-outgoing %.2f\n", Set.MaxInside,
                Set.MinOutgoing);
  }

  // Step 3: the laminar hierarchy and its condensed matrices D'
  // (paper Fig. 6 shows the 'maximum' matrix of C4).
  CompactHierarchy Hierarchy(M.size(), Sets);
  std::printf("\nHierarchy and condensed 'maximum' matrices D':\n");
  for (int Id : Hierarchy.internalNodesTopDown()) {
    std::printf("node ");
    printMembers(Hierarchy.node(Id).Species);
    std::printf(" splits into blocks: ");
    for (const auto &Block : Hierarchy.partitionAt(Id)) {
      printMembers(Block);
      std::printf(" ");
    }
    DistanceMatrix D =
        condense(M, Hierarchy.partitionAt(Id), CondenseMode::Maximum);
    std::printf("\n%s", matrixToString(D).c_str());
  }

  // Step 4-5: solve every D' and merge.
  PipelineResult R = buildCompactSetTree(M);
  std::printf("\nMerged ultrametric tree (cost %.3f, feasible: %s):\n  %s\n",
              R.Cost, R.Tree.dominatesMatrix(M) ? "yes" : "no",
              toNewick(R.Tree).c_str());
  return 0;
}
