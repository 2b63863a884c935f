//===- matrix/MetricUtils.cpp - Metric & ultrametric predicates -----------===//

#include "matrix/MetricUtils.h"

#include "support/Bits.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <vector>

using namespace mutk;

bool mutk::hasPositiveDistances(const DistanceMatrix &M) {
  for (int I = 0; I < M.size(); ++I)
    for (int J = I + 1; J < M.size(); ++J)
      if (M.at(I, J) <= 0.0)
        return false;
  return true;
}

std::optional<TripleViolation>
mutk::findMetricViolation(const DistanceMatrix &M, double Tolerance) {
  const int N = M.size();
  for (int I = 0; I < N; ++I)
    for (int J = 0; J < N; ++J) {
      if (J == I)
        continue;
      for (int K = 0; K < N; ++K) {
        if (K == I || K == J)
          continue;
        double Slack = M.at(I, K) - (M.at(I, J) + M.at(J, K));
        if (Slack > Tolerance)
          return TripleViolation{I, J, K, Slack};
      }
    }
  return std::nullopt;
}

bool mutk::isMetric(const DistanceMatrix &M, double Tolerance) {
  return !findMetricViolation(M, Tolerance).has_value();
}

std::optional<TripleViolation>
mutk::findUltrametricViolation(const DistanceMatrix &M, double Tolerance) {
  const int N = M.size();
  for (int I = 0; I < N; ++I)
    for (int J = I + 1; J < N; ++J)
      for (int K = 0; K < N; ++K) {
        if (K == I || K == J)
          continue;
        double Slack = M.at(I, J) - std::max(M.at(I, K), M.at(J, K));
        if (Slack > Tolerance)
          return TripleViolation{I, J, K, Slack};
      }
  return std::nullopt;
}

bool mutk::isUltrametric(const DistanceMatrix &M, double Tolerance) {
  return !findUltrametricViolation(M, Tolerance).has_value();
}

DistanceMatrix mutk::metricClosure(const DistanceMatrix &M) {
  // Floyd-Warshall on the upper triangle, mirrored at the end. Row K is
  // gathered from the upper triangle once per K (entries through K do
  // not change during step K while the diagonal is zero), so the inner
  // loop is a branch-free min over contiguous memory. It makes the same
  // updates as the symmetric element-by-element form, so the result is
  // bit-identical to it.
  DistanceMatrix Result = M;
  const auto N = static_cast<std::size_t>(M.size());
  double *D = Result.Data.data();
  std::vector<double> RowK(N);
  for (std::size_t K = 0; K < N; ++K) {
    for (std::size_t J = 0; J < N; ++J)
      RowK[J] = J < K ? D[J * N + K] : D[K * N + J];
    for (std::size_t I = 0; I + 1 < N; ++I) {
      const double ThroughK = RowK[I];
      double *Row = D + I * N;
      for (std::size_t J = I + 1; J < N; ++J)
        Row[J] = std::min(Row[J], ThroughK + RowK[J]);
    }
  }
  for (std::size_t I = 0; I < N; ++I)
    for (std::size_t J = I + 1; J < N; ++J)
      D[J * N + I] = D[I * N + J];
  return Result;
}

std::optional<QuadViolation>
mutk::findFourPointViolation(const DistanceMatrix &M, double Tolerance) {
  const int N = M.size();
  for (int I = 0; I < N; ++I)
    for (int J = I + 1; J < N; ++J)
      for (int K = J + 1; K < N; ++K)
        for (int L = K + 1; L < N; ++L) {
          double S1 = M.at(I, J) + M.at(K, L);
          double S2 = M.at(I, K) + M.at(J, L);
          double S3 = M.at(I, L) + M.at(J, K);
          double Hi = std::max({S1, S2, S3});
          double Mid = S1 + S2 + S3 - Hi - std::min({S1, S2, S3});
          if (Hi - Mid > Tolerance)
            return QuadViolation{I, J, K, L, Hi - Mid};
        }
  return std::nullopt;
}

bool mutk::isAdditive(const DistanceMatrix &M, double Tolerance) {
  return !findFourPointViolation(M, Tolerance).has_value();
}

std::vector<int> mutk::maxminPermutationGeneric(const DistanceMatrix &M) {
  const int N = M.size();
  std::vector<int> Perm;
  Perm.reserve(static_cast<std::size_t>(N));
  if (N == 0)
    return Perm;
  if (N == 1)
    return {0};

  // Seed with a maximum-distance pair (smallest indices on ties).
  int BestI = 0, BestJ = 1;
  for (int I = 0; I < N; ++I)
    for (int J = I + 1; J < N; ++J)
      if (M.at(I, J) > M.at(BestI, BestJ))
        BestI = I, BestJ = J;
  Perm.push_back(BestI);
  Perm.push_back(BestJ);

  std::vector<bool> Chosen(static_cast<std::size_t>(N), false);
  Chosen[static_cast<std::size_t>(BestI)] = true;
  Chosen[static_cast<std::size_t>(BestJ)] = true;

  // MinToPrefix[i] = min distance from i to the chosen prefix.
  std::vector<double> MinToPrefix(static_cast<std::size_t>(N));
  for (int I = 0; I < N; ++I)
    MinToPrefix[static_cast<std::size_t>(I)] =
        std::min(M.at(I, BestI), M.at(I, BestJ));

  for (int Step = 2; Step < N; ++Step) {
    int Best = -1;
    for (int I = 0; I < N; ++I) {
      if (Chosen[static_cast<std::size_t>(I)])
        continue;
      if (Best < 0 || MinToPrefix[static_cast<std::size_t>(I)] >
                          MinToPrefix[static_cast<std::size_t>(Best)])
        Best = I;
    }
    assert(Best >= 0 && "no unchosen species left");
    Perm.push_back(Best);
    Chosen[static_cast<std::size_t>(Best)] = true;
    for (int I = 0; I < N; ++I)
      MinToPrefix[static_cast<std::size_t>(I)] =
          std::min(MinToPrefix[static_cast<std::size_t>(I)], M.at(I, Best));
  }
  return Perm;
}

std::vector<int> mutk::maxminPermutation(const DistanceMatrix &M) {
  const int N = M.size();
  if (N > 64)
    return maxminPermutationGeneric(M);
  std::vector<int> Perm;
  Perm.reserve(static_cast<std::size_t>(N));
  if (N == 0)
    return Perm;
  if (N == 1)
    return {0};

  // Seed with a maximum-distance pair (smallest indices on ties).
  int BestI = 0, BestJ = 1;
  for (int I = 0; I < N; ++I) {
    const double *Row = M.row(I);
    for (int J = I + 1; J < N; ++J)
      if (Row[J] > M.at(BestI, BestJ))
        BestI = I, BestJ = J;
  }
  Perm.push_back(BestI);
  Perm.push_back(BestJ);

  // The placement set lives in one word: Remaining holds the unchosen
  // species, so the candidate scan visits exactly the survivors (in
  // increasing order — the same tie-breaking as the generic path).
  LeafMask Remaining = (N == 64) ? ~LeafMask{0} : (LeafMask{1} << N) - 1;
  Remaining &= ~(leafBit(BestI) | leafBit(BestJ));

  // MinToPrefix[i] = min distance from i to the chosen prefix.
  std::vector<double> MinToPrefix(static_cast<std::size_t>(N));
  for (int I = 0; I < N; ++I)
    MinToPrefix[static_cast<std::size_t>(I)] =
        std::min(M.at(I, BestI), M.at(I, BestJ));

  for (int Step = 2; Step < N; ++Step) {
    int Best = -1;
    forEachLeaf(Remaining, [&](int I) {
      if (Best < 0 || MinToPrefix[static_cast<std::size_t>(I)] >
                          MinToPrefix[static_cast<std::size_t>(Best)])
        Best = I;
    });
    assert(Best >= 0 && "no unchosen species left");
    Perm.push_back(Best);
    Remaining &= ~leafBit(Best);
    const double *Row = M.row(Best); // row(Best)[i] == M.at(i, Best)
    forEachLeaf(Remaining, [&](int I) {
      MinToPrefix[static_cast<std::size_t>(I)] =
          std::min(MinToPrefix[static_cast<std::size_t>(I)], Row[I]);
    });
  }
  return Perm;
}

bool mutk::isMaxminPermutation(const DistanceMatrix &M,
                               const std::vector<int> &Perm,
                               double Tolerance) {
  const int N = M.size();
  if (static_cast<int>(Perm.size()) != N)
    return false;
  if (N < 2)
    return true;

  // perm[0], perm[1] must be a maximum-distance pair.
  double First = M.at(Perm[0], Perm[1]);
  if (First + Tolerance < M.permuted(Perm).maxEntry())
    return false;

  // Each later species must have a maximal minimum distance to the prefix.
  std::vector<bool> InPrefix(static_cast<std::size_t>(N), false);
  InPrefix[static_cast<std::size_t>(Perm[0])] = true;
  InPrefix[static_cast<std::size_t>(Perm[1])] = true;
  for (int Step = 2; Step < N; ++Step) {
    auto minToPrefix = [&](int Species) {
      double Min = std::numeric_limits<double>::infinity();
      for (int I = 0; I < N; ++I)
        if (InPrefix[static_cast<std::size_t>(I)])
          Min = std::min(Min, M.at(Species, I));
      return Min;
    };
    double ChosenMin = minToPrefix(Perm[static_cast<std::size_t>(Step)]);
    for (int I = 0; I < N; ++I)
      if (!InPrefix[static_cast<std::size_t>(I)] &&
          minToPrefix(I) > ChosenMin + Tolerance)
        return false;
    InPrefix[static_cast<std::size_t>(Perm[static_cast<std::size_t>(Step)])] =
        true;
  }
  return true;
}
