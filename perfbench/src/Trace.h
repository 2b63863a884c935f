//===- perfbench/src/Trace.h - In-memory span log ---------------*- C++ -*-===//
///
/// \file
/// Spans recorded by the benchmark around its calls into mutk's layers.
/// A span has a name (`<layer>.<function>`), a start and end on one
/// steady clock, the span that caused it and the operation it belongs
/// to. Spans stay in memory and are written out when the run ends.
///
/// Each operation has two roots: `op`, the timed call itself, and
/// `probe`, the layer calls the benchmark repeats on the same input to
/// split time the timed call spends inside one public function (mutk
/// exposes no spans of its own yet). Probes never overlap an `op`.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "Common.h"

#include <map>
#include <string>
#include <vector>

namespace pb {

struct Span {
  std::string Name;
  double StartMs = 0.0;
  double EndMs = 0.0;
  /// Index of the causing span in the same log; -1 for a root.
  int Parent = -1;
  std::uint64_t Op = 0;

  double millis() const { return EndMs - StartMs; }
};

/// One thread's spans. Not thread-safe; merge per-thread logs with
/// `append` once the threads have finished.
class SpanLog {
public:
  explicit SpanLog(Clock::time_point Origin = Clock::now())
      : Origin(Origin) {}

  /// Opens a span now and returns its index.
  int open(const std::string &Name, std::uint64_t Op, int Parent = -1);
  /// Closes span \p Id now.
  void close(int Id);
  /// Adds a finished span with explicit times.
  int add(const std::string &Name, std::uint64_t Op, int Parent,
          Clock::time_point Start, Clock::time_point End);
  /// Runs \p F under a span and returns the span's duration in ms.
  template <typename Fn>
  double time(const std::string &Name, std::uint64_t Op, int Parent, Fn &&F) {
    int Id = open(Name, Op, Parent);
    F();
    close(Id);
    return span(Id).millis();
  }
  /// Appends \p Other's spans, remapping parent indices.
  void append(const SpanLog &Other);

  const std::vector<Span> &spans() const { return Spans; }
  const Span &span(int Id) const { return Spans[static_cast<size_t>(Id)]; }

  /// Self time of every span: its duration minus the part of it the
  /// union of its children's intervals covers.
  std::vector<double> selfTimes() const;
  /// Summed self time per span name.
  std::map<std::string, double> selfByName() const;
  /// Checks the span arithmetic: every span closed, every child inside
  /// its parent and on the same operation, every self time >= 0.
  /// \returns an empty string or the first violation.
  std::string validate() const;

  /// Writes one JSON object per span, one per line.
  bool write(const std::string &Path) const;

private:
  double now() const { return millisBetween(Origin, Clock::now()); }

  Clock::time_point Origin;
  std::vector<Span> Spans;
};

/// Opens a span for its lifetime; a no-op when the log is null, so the
/// traced and untraced runs execute the same code.
class ScopedSpan {
public:
  ScopedSpan(SpanLog *Log, const std::string &Name, std::uint64_t Op,
             int Parent = -1)
      : Log(Log), Id(Log ? Log->open(Name, Op, Parent) : -1) {}
  ~ScopedSpan() {
    if (Log)
      Log->close(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  int id() const { return Id; }

private:
  SpanLog *Log;
  int Id;
};

/// Runs the span-arithmetic self-test; \returns the number of failures.
int runTraceSelfTest();

} // namespace pb

#endif // PERFBENCH_TRACE_H
