//===- graph/CompactSets.cpp - Compact-set detection ----------------------===//

#include "graph/CompactSets.h"

#include "graph/Mst.h"

#include <algorithm>
#include <cassert>
#include <limits>

using namespace mutk;

namespace {

/// The output order of both detectors: ascending `MaxInside`, ties by
/// members.
bool compactSetLess(const CompactSet &A, const CompactSet &B) {
  if (A.MaxInside != B.MaxInside)
    return A.MaxInside < B.MaxInside;
  return A.Members < B.Members;
}

} // namespace

bool mutk::isCompactSet(const DistanceMatrix &M,
                        const std::vector<int> &Members) {
  const int N = M.size();
  std::vector<bool> InSet(static_cast<std::size_t>(N), false);
  for (int Species : Members) {
    assert(Species >= 0 && Species < N && "member out of range");
    InSet[static_cast<std::size_t>(Species)] = true;
  }

  double MaxInside = 0.0;
  for (std::size_t A = 0; A < Members.size(); ++A)
    for (std::size_t B = A + 1; B < Members.size(); ++B)
      MaxInside = std::max(MaxInside, M.at(Members[A], Members[B]));

  double MinOutgoing = std::numeric_limits<double>::infinity();
  for (int Species : Members)
    for (int Other = 0; Other < N; ++Other)
      if (!InSet[static_cast<std::size_t>(Other)])
        MinOutgoing = std::min(MinOutgoing, M.at(Species, Other));

  // Singletons: MaxInside == 0 < any positive outgoing distance; the whole
  // set: MinOutgoing stays +infinity. Both count as compact by convention.
  return MaxInside < MinOutgoing;
}

std::vector<CompactSet> mutk::findCompactSets(const DistanceMatrix &M) {
  std::vector<CompactSet> Result;
  // Max over the complete graph inside each component, keyed by the
  // component's smallest member.
  std::vector<double> MaxInside(static_cast<std::size_t>(M.size()), 0.0);
  forEachMerge(M, [&](const std::vector<int> &A, const std::vector<int> &B,
                      double Weight) {
    // This merge absorbs both components. Its edge is the lightest tree
    // edge leaving each of them, so by the MST cut property Weight is
    // their Min(S, !S). The whole species set is never absorbed.
    for (const std::vector<int> *Set : {&A, &B}) {
      double Max = MaxInside[static_cast<std::size_t>(Set->front())];
      if (Set->size() >= 2 && Max < Weight)
        Result.push_back(CompactSet{*Set, Max, Weight});
    }
    // Old maxima plus all cross pairs; every pair is a cross pair of
    // exactly one merge, so this is O(n^2) over the whole walk.
    double Max = std::max(MaxInside[static_cast<std::size_t>(A.front())],
                          MaxInside[static_cast<std::size_t>(B.front())]);
    for (int U : A) {
      const double *Row = M.row(U);
      for (int V : B)
        Max = std::max(Max, Row[V]);
    }
    MaxInside[static_cast<std::size_t>(std::min(A.front(), B.front()))] = Max;
  });
  std::sort(Result.begin(), Result.end(), compactSetLess);
  return Result;
}

std::vector<CompactSet>
mutk::findCompactSetsBruteForce(const DistanceMatrix &M) {
  const int N = M.size();
  assert(N <= 22 && "brute force is exponential; use findCompactSets");
  std::vector<CompactSet> Result;
  if (N < 3)
    return Result;

  for (std::uint32_t Mask = 1; Mask + 1 < (1u << N); ++Mask) {
    std::vector<int> Members;
    for (int I = 0; I < N; ++I)
      if (Mask & (1u << I))
        Members.push_back(I);
    if (Members.size() < 2)
      continue;
    if (!isCompactSet(M, Members))
      continue;

    CompactSet Set;
    for (std::size_t A = 0; A < Members.size(); ++A)
      for (std::size_t B = A + 1; B < Members.size(); ++B)
        Set.MaxInside = std::max(Set.MaxInside, M.at(Members[A], Members[B]));
    Set.MinOutgoing = std::numeric_limits<double>::infinity();
    for (int Species : Members)
      for (int Other = 0; Other < N; ++Other)
        if (!(Mask & (1u << Other)))
          Set.MinOutgoing = std::min(Set.MinOutgoing, M.at(Species, Other));
    Set.Members = std::move(Members);
    Result.push_back(std::move(Set));
  }

  std::sort(Result.begin(), Result.end(), compactSetLess);
  return Result;
}

bool mutk::isLaminarFamily(const std::vector<CompactSet> &Sets) {
  for (std::size_t A = 0; A < Sets.size(); ++A)
    for (std::size_t B = A + 1; B < Sets.size(); ++B) {
      const auto &SA = Sets[A].Members;
      const auto &SB = Sets[B].Members;
      std::vector<int> Intersection;
      std::set_intersection(SA.begin(), SA.end(), SB.begin(), SB.end(),
                            std::back_inserter(Intersection));
      if (Intersection.empty())
        continue;
      if (Intersection.size() != SA.size() &&
          Intersection.size() != SB.size())
        return false;
    }
  return true;
}
