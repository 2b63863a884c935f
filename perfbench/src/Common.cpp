//===- perfbench/src/Common.cpp - Shared benchmark plumbing ---------------===//

#include "Common.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace pb {

void Metrics::set(const std::string &Name, double Value,
                  const std::string &Unit) {
  for (Metric &M : Entries)
    if (M.Name == Name) {
      M.Value = Value;
      M.Unit = Unit;
      return;
    }
  Entries.push_back({Name, Value, Unit});
}

bool Metrics::has(const std::string &Name) const {
  return std::any_of(Entries.begin(), Entries.end(),
                     [&](const Metric &M) { return M.Name == Name; });
}

void RunResult::fail(const std::string &Why) {
  Correct = false;
  if (Problems.size() < 20)
    Problems.push_back(Why);
}

double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(std::floor(Pos));
  std::size_t Hi = std::min(Lo + 1, Values.size() - 1);
  if (std::isinf(Values[Hi]) || Lo == Hi)
    return Values[Hi];
  double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + Frac * (Values[Hi] - Values[Lo]);
}

double windowedP99(const std::vector<double> &InOrder) {
  const std::size_t Windows = std::max<std::size_t>(1, InOrder.size() / 1000);
  std::vector<double> Estimates;
  for (std::size_t W = 0; W < Windows; ++W) {
    auto Begin = InOrder.begin() + InOrder.size() * W / Windows;
    auto End = InOrder.begin() + InOrder.size() * (W + 1) / Windows;
    Estimates.push_back(quantile(std::vector<double>(Begin, End), 0.99));
  }
  return quantile(Estimates, 0.5);
}

double meanOf(const std::vector<double> &Values) {
  double Sum = 0.0;
  for (double V : Values)
    Sum += V;
  return Values.empty() ? 0.0 : Sum / static_cast<double>(Values.size());
}

std::uint64_t mixSeed(std::uint64_t Seed, std::uint64_t Stream,
                      std::uint64_t Index) {
  std::uint64_t Z = Seed * 0x9E3779B97F4A7C15ULL +
                    Stream * 0xBF58476D1CE4E5B9ULL +
                    Index * 0x94D049BB133111EBULL + 0x2545F4914F6CDD1DULL;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

namespace {

/// A "Key:   value kB"-style field of /proc/self/status (0 if absent).
double statusField(const std::string &Key) {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.compare(0, Key.size(), Key) == 0 && Line.size() > Key.size() &&
        Line[Key.size()] == ':') {
      std::istringstream Fields(Line.substr(Key.size() + 1));
      double Value = 0.0;
      Fields >> Value;
      return Value;
    }
  return 0.0;
}

} // namespace

double peakRssMb() { return statusField("VmHWM") / 1024.0; }

int processThreads() { return static_cast<int>(statusField("Threads")); }

int processMaps() {
  std::ifstream In("/proc/self/maps");
  std::string Line;
  int Lines = 0;
  while (std::getline(In, Line))
    ++Lines;
  return Lines;
}

bool sameCost(double A, double B) {
  return std::fabs(A - B) <= 1e-9 * std::max({1.0, std::fabs(A), std::fabs(B)});
}

namespace {

/// Leaves below \p Node; checks d_T(a, b) = 2 height(v) >= M[a, b] for
/// every pair the node \p Node splits, so each pair is checked once.
bool dominates(const mutk::PhyloTree &Tree, int Node,
               const mutk::DistanceMatrix &M, std::vector<int> &Leaves) {
  const mutk::PhyloNode &V = Tree.node(Node);
  if (V.isLeaf()) {
    Leaves.assign(1, V.Leaf);
    return true;
  }
  std::vector<int> Right;
  if (!dominates(Tree, V.Left, M, Leaves) ||
      !dominates(Tree, V.Right, M, Right))
    return false;
  const double Dist = 2.0 * V.Height;
  for (int A : Leaves)
    for (int B : Right)
      if (Dist < M.at(A, B) - 1e-9 * std::max(1.0, M.at(A, B)))
        return false;
  Leaves.insert(Leaves.end(), Right.begin(), Right.end());
  return true;
}

} // namespace

std::string checkTree(const mutk::PhyloTree &Tree,
                      const mutk::DistanceMatrix &M, double Cost) {
  if (Tree.root() < 0)
    return "empty tree";
  std::vector<int> Species = Tree.allSpecies();
  std::vector<char> Seen(static_cast<size_t>(M.size()), 0);
  for (int S : Species) {
    if (S < 0 || S >= M.size() || Seen[static_cast<size_t>(S)])
      return "tree leaves are not the species 0..n-1 once each";
    Seen[static_cast<size_t>(S)] = 1;
  }
  if (static_cast<int>(Species.size()) != M.size())
    return "tree has " + std::to_string(Species.size()) + " leaves for " +
           std::to_string(M.size()) + " species";
  if (!Tree.hasMonotoneHeights())
    return "tree heights are not monotone";
  std::vector<int> Leaves;
  if (!dominates(Tree, Tree.root(), M, Leaves))
    return "tree does not dominate the matrix";
  if (std::fabs(Tree.weight() - Cost) > 1e-7 * std::max(1.0, std::fabs(Cost)))
    return "tree weight differs from the reported cost";
  return {};
}

} // namespace pb
