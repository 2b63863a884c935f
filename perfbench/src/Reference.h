//===- perfbench/src/Reference.h - Machine-speed reference ------*- C++ -*-===//
///
/// \file
/// Fixed amounts of work that call nothing in mutk, and the record of
/// their timings through a run. On a shared host the speed of a core
/// drifts by tens of percent over minutes, with no CPU time stolen: the
/// other tenants slow it down, and on a busy host an idle thread also
/// takes longer to wake. An operation's time scaled by a reference's time
/// at that moment does not drift, so the bounded timings are reported at
/// the nominal speed, at which the reference takes its nominal time. The
/// benchmark's own code fixes the reference work, so a change to mutk
/// cannot move it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include "Common.h"

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace pb {

/// What `Reference` takes at the nominal speed, and what one pass of
/// `RelayReference` takes: about their medians on a quiet 4-vCPU 2.1 GHz
/// Xeon VM.
constexpr double NominalMillis = 5.0;
constexpr double NominalRelayMillis = 1.9;

/// The reference work: a dense Prim's MST streaming a 1 MB matrix (like
/// compact-set detection), a depth-first bounded search over orderings
/// (like branch-and-bound, all in L1) and a sort, on fixed inputs.
class Reference {
public:
  /// An MST over \p MstSize points, the bounded search when \p Search,
  /// and a sort of \p SortKeys keys; the defaults are the full work.
  explicit Reference(int MstSize = 360, int SortKeys = 40000,
                     bool Search = true);
  /// Does the reference work once. \returns its wall time in ms.
  double runMillis();

private:
  int N;
  bool Search;
  std::vector<double> Dist;  ///< N x N metric for Prim's MST.
  std::vector<double> Small; ///< Metric of the bounded search.
  std::vector<double> Keys;  ///< Sorted, as a copy, every run.
  std::uint64_t Sink = 0;
};

/// The path of a service request in miniature: four stages of fixed work
/// (~0.4 ms each) on the caller and three helper threads, each woken by
/// the previous stage's byte on a Unix socket pair and idle otherwise.
/// Its time tracks both the speed of a core and how long an idle thread
/// takes to wake, which on a busy host adds to every hand-off.
class RelayReference {
public:
  /// Throws std::runtime_error when a socket pair cannot be made.
  RelayReference();
  RelayReference(const RelayReference &) = delete;
  RelayReference &operator=(const RelayReference &) = delete;
  ~RelayReference();
  /// Passes the work round the ring once. \returns its wall time in ms.
  /// Throws std::runtime_error when a hand-off fails.
  double runMillis();

private:
  static constexpr int Stages = 4;
  std::vector<Reference> Work;
  /// Links[K] carries the hand-off from stage K to stage K + 1 (mod
  /// Stages): stage K writes to Links[K][0], stage K + 1 reads Links[K][1].
  int Links[Stages][2] = {};
  std::vector<std::jthread> Helpers;
};

/// Wall time in ms of the reference work done once by each of \p Refs
/// on its own thread, all at once: the speed of the whole machine, as
/// the set-up (which runs on `setupThreads()` threads) sees it.
double parallelReferenceMillis(std::vector<Reference> &Refs);

/// Median over \p Repeats runs of \p F of its time in seconds at the
/// nominal speed: each run is scaled by the median of three parallel
/// reference timings on `setupThreads()` threads taken right after it.
template <typename Fn> double medianNominalSeconds(int Repeats, Fn &&F) {
  std::vector<Reference> Refs(static_cast<size_t>(setupThreads()));
  std::vector<double> Times;
  for (int I = 0; I < Repeats; ++I) {
    Clock::time_point Start = Clock::now();
    F();
    double Seconds = millisBetween(Start, Clock::now()) / 1000.0;
    std::vector<double> Speed;
    for (int J = 0; J < 3; ++J)
      Speed.push_back(parallelReferenceMillis(Refs));
    Times.push_back(Seconds * NominalMillis / quantile(Speed, 0.5));
  }
  return quantile(Times, 0.5);
}

/// Timings of one reference taken through a run.
class SpeedTrack {
public:
  /// \p Nominal: what the reference takes at the nominal speed, in ms.
  explicit SpeedTrack(double Nominal) : Nominal(Nominal) {}
  /// Records that the reference, started at \p At, took \p Millis.
  void record(Clock::time_point At, double Millis) {
    Samples.emplace_back(At, Millis);
  }
  /// The nominal time over the median time of the five samples nearest
  /// \p At: a time measured at \p At times this factor is the time at the
  /// nominal speed. 1 without samples.
  double factorAt(Clock::time_point At) const;
  /// Median of all samples, in ms (0 without samples).
  double medianMillis() const;

private:
  double Nominal;
  std::vector<std::pair<Clock::time_point, double>> Samples;
};

/// Times a `RelayReference` on its own thread every period until
/// stopped, for the `service` workload, whose requests cross threads the
/// benchmark does not own. Costs about 2% of one core at a 100 ms period.
class SpeedSampler {
public:
  explicit SpeedSampler(double PeriodMillis);
  SpeedSampler(const SpeedSampler &) = delete;
  SpeedSampler &operator=(const SpeedSampler &) = delete;
  ~SpeedSampler() { stop(); }
  /// Stops the thread and waits for it; then `track()` is complete.
  void stop();
  const SpeedTrack &track() const { return Track; }

private:
  SpeedTrack Track{NominalRelayMillis};
  std::mutex Lock;
  std::condition_variable_any Wake;
  std::jthread Thread;
};

} // namespace pb

#endif // PERFBENCH_REFERENCE_H
