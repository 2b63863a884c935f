//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
///
/// \file
/// Arguments, metric tables, quantiles, process probes and the output
/// checks every workload applies to the trees it gets back.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "matrix/DistanceMatrix.h"
#include "tree/PhyloTree.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double millisBetween(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration<double, std::milli>(To - From).count();
}

/// Command line of one benchmark run.
struct Args {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Unix socket path of the `service` workload (relative to the cwd).
  std::string Socket = "perfbench.sock";
  /// Where the traced run writes its spans (empty: not written).
  std::string TraceOut;
  /// `service` only: run closed loop flat out and report the capacity
  /// the open-loop rate is derived from, instead of the normal metrics.
  bool Capacity = false;
};

/// One named measurement with its unit.
struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// Ordered metric table; the result line prints it as a JSON object.
class Metrics {
public:
  /// Sets (or overwrites) \p Name.
  void set(const std::string &Name, double Value, const std::string &Unit);
  bool has(const std::string &Name) const;
  const std::vector<Metric> &entries() const { return Entries; }

private:
  std::vector<Metric> Entries;
};

/// What a workload run hands back to `main`.
struct RunResult {
  bool Correct = true;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  Metrics Out;
  std::vector<std::string> Problems;

  /// Records a failed output check; any failed check fails the run.
  void fail(const std::string &Why);
};

/// Linear-interpolated quantile (\p Q in [0, 1]); 0 for an empty sample.
/// Infinite values (failed operations) sort last, so they count as
/// missing every latency limit.
double quantile(std::vector<double> Values, double Q);
/// p99 of operation latencies in run order, as the median over
/// consecutive windows of at least 1000 operations of each window's p99:
/// every window has 10 samples beyond its p99, and a stall of the machine
/// during one window moves one estimate, not the run's figure.
double windowedP99(const std::vector<double> &InOrder);
double meanOf(const std::vector<double> &Values);

/// Threads `parallelFor` runs on: one per hardware thread, at most four.
inline int setupThreads() {
  return static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

/// Runs \p F(I) for I in [0, Count) on `setupThreads()` threads; used to
/// generate inputs, whose values depend only on I.
template <typename Fn> void parallelFor(int Count, Fn &&F) {
  const int Threads = setupThreads();
  std::vector<std::jthread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      for (int I = T; I < Count; I += Threads)
        F(I);
    });
}

/// splitmix64 over (seed, stream, index): independent, reproducible
/// generator seeds for every input of a workload.
std::uint64_t mixSeed(std::uint64_t Seed, std::uint64_t Stream,
                      std::uint64_t Index);

/// Peak resident set of this process (VmHWM), in MB.
double peakRssMb();
/// Live threads of this process.
int processThreads();
/// Lines of /proc/self/maps (memory mappings).
int processMaps();

/// The output check every returned tree must pass: one leaf per species,
/// ultrametric heights, feasible for \p M (d_T >= M, checked pair by
/// pair in O(n^2)) and a weight equal to the reported \p Cost.
/// \returns an empty string or the reason.
std::string checkTree(const mutk::PhyloTree &Tree,
                      const mutk::DistanceMatrix &M, double Cost);

/// True when two costs agree to floating-point summation noise.
bool sameCost(double A, double B);

} // namespace pb

#endif // PERFBENCH_COMMON_H
