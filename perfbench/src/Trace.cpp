//===- perfbench/src/Trace.cpp - In-memory span log -----------------------===//

#include "Trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace pb {

int SpanLog::open(const std::string &Name, std::uint64_t Op, int Parent) {
  double Now = now();
  Spans.push_back({Name, Now, -1.0, Parent, Op});
  return static_cast<int>(Spans.size()) - 1;
}

void SpanLog::close(int Id) { Spans[static_cast<size_t>(Id)].EndMs = now(); }

int SpanLog::add(const std::string &Name, std::uint64_t Op, int Parent,
                 Clock::time_point Start, Clock::time_point End) {
  Spans.push_back({Name, millisBetween(Origin, Start),
                   millisBetween(Origin, End), Parent, Op});
  return static_cast<int>(Spans.size()) - 1;
}

void SpanLog::append(const SpanLog &Other) {
  const int Base = static_cast<int>(Spans.size());
  const double Shift = millisBetween(Origin, Other.Origin);
  for (Span S : Other.Spans) {
    if (S.Parent >= 0)
      S.Parent += Base;
    S.StartMs += Shift;
    S.EndMs += Shift;
    Spans.push_back(std::move(S));
  }
}

std::vector<double> SpanLog::selfTimes() const {
  std::vector<std::vector<std::pair<double, double>>> Children(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Children[static_cast<size_t>(S.Parent)].push_back({S.StartMs, S.EndMs});
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &P = Spans[I];
    std::vector<std::pair<double, double>> &Kids = Children[I];
    std::sort(Kids.begin(), Kids.end());
    // Union of the children's intervals, clipped to the parent.
    double Covered = 0.0;
    double Reach = P.StartMs;
    for (auto [Start, End] : Kids) {
      Start = std::max(Start, Reach);
      End = std::min(End, P.EndMs);
      if (End > Start) {
        Covered += End - Start;
        Reach = End;
      }
    }
    Self[I] = P.millis() - Covered;
  }
  return Self;
}

std::map<std::string, double> SpanLog::selfByName() const {
  std::vector<double> Self = selfTimes();
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I)
    Out[Spans[I].Name] += Self[I];
  return Out;
}

std::string SpanLog::validate() const {
  constexpr double Slack = 1e-9;
  std::vector<double> Self = selfTimes();
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::string Where = "span " + std::to_string(I) + " (" + S.Name + ")";
    if (S.EndMs < S.StartMs)
      return Where + " is not closed or ends before it starts";
    if (Self[I] < -Slack)
      return Where + " has negative self time";
    if (S.Parent < 0)
      continue;
    if (static_cast<size_t>(S.Parent) >= I)
      return Where + " names a parent opened after it";
    const Span &P = Spans[static_cast<size_t>(S.Parent)];
    if (S.StartMs < P.StartMs - Slack || S.EndMs > P.EndMs + Slack)
      return Where + " lies outside its parent " + P.Name;
    if (S.Op != P.Op)
      return Where + " belongs to another operation than its parent";
  }
  return {};
}

bool SpanLog::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"id\":%zu,\"name\":\"%s\",\"op\":%llu,\"parent\":%d,"
                 "\"start_ms\":%.6f,\"end_ms\":%.6f}\n",
                 I, S.Name.c_str(), static_cast<unsigned long long>(S.Op),
                 S.Parent, S.StartMs, S.EndMs);
  }
  return std::fclose(F) == 0;
}

int runTraceSelfTest() {
  int Failures = 0;
  auto expect = [&](bool Ok, const char *What) {
    if (!Ok) {
      std::fprintf(stderr, "trace self-test failed: %s\n", What);
      ++Failures;
    }
  };
  Clock::time_point T0 = Clock::now();
  auto at = [&](double Ms) {
    return T0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(Ms));
  };

  // op [0,10] with overlapping children [1,4] and [3,6] and a
  // grandchild [2,3]: the op's self time is 10 - |[1,6]| = 5.
  SpanLog Log(T0);
  int Op = Log.add("op", 1, -1, at(0), at(10));
  int A = Log.add("a", 1, Op, at(1), at(4));
  Log.add("b", 1, Op, at(3), at(6));
  Log.add("c", 1, A, at(2), at(3));
  std::vector<double> Self = Log.selfTimes();
  expect(std::fabs(Self[0] - 5.0) < 1e-9, "self time subtracts the union");
  expect(std::fabs(Self[1] - 2.0) < 1e-9, "self time subtracts children");
  expect(std::fabs(Self[3] - 1.0) < 1e-9, "leaf self time is its duration");
  expect(Log.validate().empty(), "a well-nested log validates");

  // Without overlaps the self times partition the root exactly.
  SpanLog Flat(T0);
  int Root = Flat.add("op", 9, -1, at(0), at(10));
  int X = Flat.add("x", 9, Root, at(1), at(4));
  Flat.add("y", 9, Root, at(5), at(9));
  Flat.add("z", 9, X, at(2), at(3));
  double Total = 0.0;
  for (const auto &[Name, Ms] : Flat.selfByName())
    Total += Ms;
  expect(std::fabs(Total - 10.0) < 1e-9 && std::fabs(Flat.selfByName()["op"] -
                                                     (10.0 - 3.0 - 4.0)) < 1e-9,
         "self times of a non-overlapping tree add up to the root");

  SpanLog Escaping(T0);
  int P = Escaping.add("op", 2, -1, at(0), at(5));
  Escaping.add("late", 2, P, at(4), at(6));
  expect(!Escaping.validate().empty(), "a child outside its parent fails");

  SpanLog Foreign(T0);
  int Q = Foreign.add("op", 3, -1, at(0), at(5));
  Foreign.add("other", 4, Q, at(1), at(2));
  expect(!Foreign.validate().empty(), "a child of another op fails");

  SpanLog Open(T0);
  Open.open("op", 5);
  expect(!Open.validate().empty(), "an unclosed span fails");

  // Merging shifts the appended log onto this log's clock.
  SpanLog Merged(T0);
  SpanLog Later(at(100));
  int R = Later.add("op", 6, -1, at(100), at(101));
  Later.add("x", 6, R, at(100.5), at(101));
  Merged.append(Later);
  expect(std::fabs(Merged.span(0).StartMs - 100.0) < 1e-6 &&
             Merged.span(1).Parent == 0 && Merged.validate().empty(),
         "append remaps parents and times");

  // Live spans nest by construction.
  SpanLog Live;
  {
    ScopedSpan Outer(&Live, "op", 7);
    ScopedSpan Inner(&Live, "inner", 7, Outer.id());
  }
  expect(Live.validate().empty() && Live.spans().size() == 2,
         "scoped spans nest");
  {
    ScopedSpan Off(nullptr, "op", 8);
    expect(Off.id() == -1, "a null log records nothing");
  }
  return Failures;
}

} // namespace pb
