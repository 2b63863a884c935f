//===- perfbench/src/Reference.cpp - Machine-speed reference --------------===//

#include "Reference.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <limits>
#include <stdexcept>
#include <sys/socket.h>
#include <unistd.h>

namespace pb {

namespace {

/// splitmix64 step; the reference inputs never depend on the run's seed.
double unitRandom(std::uint64_t &State) {
  State += 0x9E3779B97F4A7C15ULL;
  std::uint64_t Z = State;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return static_cast<double>((Z ^ (Z >> 31)) >> 11) * 0x1.0p-53;
}

constexpr int SmallN = 9;

/// Counts the orderings of species 1..SmallN-1 after 0 whose path length
/// stays within \p Bound, pruning a prefix as soon as it exceeds it.
std::uint64_t boundedSearch(const std::vector<double> &D, int Depth, int Last,
                            double Length, double Bound, std::uint32_t Used) {
  if (Depth == SmallN)
    return 1;
  std::uint64_t Count = 0;
  for (int S = 1; S < SmallN; ++S) {
    if (Used & (1u << S))
      continue;
    double Next = Length + D[static_cast<size_t>(Last * SmallN + S)];
    if (Next <= Bound)
      Count += boundedSearch(D, Depth + 1, S, Next, Bound, Used | (1u << S));
  }
  return Count;
}

} // namespace

Reference::Reference(int MstSize, int SortKeys, bool Search)
    : N(MstSize), Search(Search) {
  std::uint64_t State = 0x5EED;
  Dist.assign(static_cast<size_t>(N) * N, 0.0);
  for (int I = 0; I < N; ++I)
    for (int J = I + 1; J < N; ++J)
      Dist[static_cast<size_t>(I) * N + J] =
          Dist[static_cast<size_t>(J) * N + I] = 1.0 + unitRandom(State);
  Small.assign(SmallN * SmallN, 0.0);
  for (int I = 0; I < SmallN; ++I)
    for (int J = I + 1; J < SmallN; ++J)
      Small[static_cast<size_t>(I * SmallN + J)] =
          Small[static_cast<size_t>(J * SmallN + I)] = 1.0 + unitRandom(State);
  Keys.resize(static_cast<size_t>(SortKeys));
  for (double &K : Keys)
    K = unitRandom(State);
}

double Reference::runMillis() {
  Clock::time_point Start = Clock::now();
  std::vector<double> Best(static_cast<size_t>(N),
                           std::numeric_limits<double>::infinity());
  std::vector<char> Done(static_cast<size_t>(N), 0);
  double Weight = 0.0;
  for (int Cur = 0; Cur >= 0;) {
    Done[static_cast<size_t>(Cur)] = 1;
    const double *Row = &Dist[static_cast<size_t>(Cur) * N];
    int Next = -1;
    double NextBest = std::numeric_limits<double>::infinity();
    for (int J = 0; J < N; ++J) {
      if (Done[static_cast<size_t>(J)])
        continue;
      double &B = Best[static_cast<size_t>(J)];
      B = std::min(B, Row[J]);
      if (B < NextBest) {
        NextBest = B;
        Next = J;
      }
    }
    if (Next >= 0)
      Weight += NextBest;
    Cur = Next;
  }
  std::uint64_t Found =
      Search ? boundedSearch(Small, 1, 0, 0.0, 1.45 * (SmallN - 1), 1u) : 0;
  std::vector<double> Sorted = Keys;
  std::sort(Sorted.begin(), Sorted.end());
  Sink += Found + static_cast<std::uint64_t>(Weight) +
          static_cast<std::uint64_t>(Sorted[Sorted.size() / 2] * 1000);
  return millisBetween(Start, Clock::now());
}

RelayReference::RelayReference() {
  for (int K = 0; K < Stages; ++K) {
    Work.emplace_back(180, 4000, false);
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, Links[K]) != 0) {
      for (int J = 0; J < K; ++J) {
        close(Links[J][0]);
        close(Links[J][1]);
      }
      throw std::runtime_error("reference relay: socketpair failed");
    }
  }
  for (int K = 1; K < Stages; ++K)
    Helpers.emplace_back([this, K] {
      char Byte = 0;
      while (read(Links[K - 1][1], &Byte, 1) == 1) {
        Work[static_cast<size_t>(K)].runMillis();
        if (send(Links[K][0], &Byte, 1, MSG_NOSIGNAL) != 1)
          return;
      }
    });
}

RelayReference::~RelayReference() {
  // End of stream on every link: each helper's read returns 0.
  for (int K = 0; K < Stages; ++K)
    shutdown(Links[K][0], SHUT_WR);
  for (std::jthread &H : Helpers)
    H.join();
  for (int K = 0; K < Stages; ++K) {
    close(Links[K][0]);
    close(Links[K][1]);
  }
}

double RelayReference::runMillis() {
  Clock::time_point Start = Clock::now();
  Work[0].runMillis();
  char Byte = 1;
  if (send(Links[0][0], &Byte, 1, MSG_NOSIGNAL) != 1 ||
      read(Links[Stages - 1][1], &Byte, 1) != 1)
    throw std::runtime_error("reference relay: a hand-off failed");
  return millisBetween(Start, Clock::now());
}

double parallelReferenceMillis(std::vector<Reference> &Refs) {
  Clock::time_point Start = Clock::now();
  {
    std::vector<std::jthread> Threads;
    for (Reference &Ref : Refs)
      Threads.emplace_back([&Ref] { Ref.runMillis(); });
  }
  return millisBetween(Start, Clock::now());
}

double SpeedTrack::factorAt(Clock::time_point At) const {
  if (Samples.empty())
    return 1.0;
  auto It = std::lower_bound(
      Samples.begin(), Samples.end(), At,
      [](const auto &S, Clock::time_point T) { return S.first < T; });
  const std::ptrdiff_t Size = static_cast<std::ptrdiff_t>(Samples.size());
  const std::ptrdiff_t Window = std::min<std::ptrdiff_t>(5, Size);
  std::ptrdiff_t First =
      std::clamp<std::ptrdiff_t>((It - Samples.begin()) - Window / 2, 0,
                                 Size - Window);
  std::vector<double> Near;
  for (std::ptrdiff_t I = First; I < First + Window; ++I)
    Near.push_back(Samples[static_cast<size_t>(I)].second);
  return Nominal / quantile(Near, 0.5);
}

double SpeedTrack::medianMillis() const {
  std::vector<double> All;
  for (const auto &S : Samples)
    All.push_back(S.second);
  return quantile(All, 0.5);
}

SpeedSampler::SpeedSampler(double PeriodMillis) {
  Thread = std::jthread([this, PeriodMillis](std::stop_token Stop) {
    const auto Period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(PeriodMillis));
    std::unique_lock<std::mutex> Guard(Lock);
    try {
      RelayReference Relay;
      for (Clock::time_point Next = Clock::now(); !Stop.stop_requested();) {
        Clock::time_point At = Clock::now();
        Track.record(At, Relay.runMillis());
        Next += Period;
        Wake.wait_until(Guard, Stop, Next, [] { return false; });
      }
    } catch (const std::exception &E) {
      // The samples taken so far still scale the run.
      std::fprintf(stderr, "perfbench: reference sampling stopped: %s\n",
                   E.what());
    }
  });
}

void SpeedSampler::stop() {
  if (Thread.joinable()) {
    Thread.request_stop();
    Thread.join();
  }
}

} // namespace pb
