//===- graph/Subdominant.cpp - Subdominant ultrametric ----------------------===//

#include "graph/Subdominant.h"

#include "graph/Mst.h"

#include <algorithm>

using namespace mutk;

DistanceMatrix mutk::subdominantUltrametric(const DistanceMatrix &M) {
  const int N = M.size();
  DistanceMatrix U(N);
  for (int I = 0; I < N; ++I)
    U.setName(I, M.name(I));

  // Single linkage in ascending order: when an MST edge of weight w merges
  // two components, every cross pair's bottleneck distance is exactly w.
  forEachMerge(M, [&](const std::vector<int> &A, const std::vector<int> &B,
                      double Weight) {
    for (int I : A)
      for (int J : B)
        U.set(I, J, Weight);
  });
  return U;
}

bool mutk::isUltrametricFast(const DistanceMatrix &M, double Tolerance) {
  DistanceMatrix U = subdominantUltrametric(M);
  return M.approxEquals(U, Tolerance);
}

double mutk::subdominantGap(const DistanceMatrix &M) {
  DistanceMatrix U = subdominantUltrametric(M);
  double Gap = 0.0;
  for (int I = 0; I < M.size(); ++I)
    for (int J = I + 1; J < M.size(); ++J)
      Gap = std::max(Gap, M.at(I, J) - U.at(I, J));
  return Gap;
}
