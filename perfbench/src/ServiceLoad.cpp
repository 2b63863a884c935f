//===- perfbench/src/ServiceLoad.cpp - The service workload ---------------===//
///
/// An in-process `TreeService` (QoS on, 2 workers, default cache, no
/// deadlines) behind a `SocketServer` on a Unix socket, driven open loop
/// at a fixed rate by fewer than `nproc` sender threads that each keep
/// one request in flight on a persistent connection. The schedule is
/// generated at set-up and answers are checked after the timed window.
/// Latency runs from a request's due time to its answer, so a stall of
/// the service shows as lateness of the requests behind it.
///
/// Traffic mix, drawn per request from the seed:
///   70%  a relabeled repeat from a hot set of 32 clustered n=64
///        matrices (whole-matrix cache reads; their 63 two-species block
///        entries each overflow the 1024-entry cache, so the hot set
///        thrashes it);
///   20%  a fresh composition of 4 modules from a shared pool of 24
///        hardModuleWorkload modules (n = 36..44: block-cache reads,
///        real per-block B&B and writes);
///   10%  a fresh plantedClusterMetric matrix, n = 64..128 (full miss).
/// Every 16th request opens its own connection, as `mutk_client` does.
///
//===----------------------------------------------------------------------===//

#include "Load.h"
#include "Reference.h"
#include "Trace.h"

#include "bench/Workloads.h"
#include "heur/Upgma.h"
#include "matrix/Fingerprint.h"
#include "matrix/Generators.h"
#include "qos/CostModel.h"
#include "service/Client.h"
#include "service/Server.h"
#include "support/Rng.h"
#include "tree/Newick.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <malloc.h>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

namespace pb {

namespace {

constexpr int HotSetSize = 32;
constexpr int HotSpecies = 64;
constexpr int ModulePoolSize = 24;
constexpr int ModuleSizes[] = {9, 10, 11};
constexpr int ModulesPerRequest = 4;
constexpr int HotPerTen = 7;
constexpr int ModulesPerTen = 2;
constexpr int FreshMinSpecies = 64;
constexpr int FreshMaxSpecies = 128;
constexpr int OwnConnectionEvery = 16;
constexpr int ServiceWorkers = 2;
/// The open-loop rate: a fifth of the ~1500 requests/s `--capacity`
/// measures on a 4-core 2.1 GHz VM. At half of it, CPU time the host
/// stole from the VM turned into backlogs of 100-300 ms.
constexpr double RequestsPerSecond = 300.0;
/// Requests of the warm-up stream every set-up sends after the hot set.
constexpr int WarmupRequests = 600;
/// Capacity mode schedules this many requests per second of run.
constexpr double CapacityCeiling = 2000.0;
/// Every ProbeEvery-th request is kept for the traced run's unit costs.
constexpr std::uint64_t ProbeEvery = 20;
/// Share of the traced run each of its two phases measures.
constexpr double TracedPhaseShare = 0.45;
/// How often a phase times the relay reference, on its own thread.
constexpr double SpeedPeriodMillis = 100.0;

enum class Traffic { Hot, Module, Fresh };

struct Request {
  Traffic Kind = Traffic::Hot;
  int HotId = -1;
  /// Hot requests: the relabeling sent. The 64x64 copy is made when the
  /// request is sent, not stored.
  std::vector<int> Perm;
  bool OwnConnection = false;
  /// Module and fresh requests: the request sent.
  mutk::BuildRequest Build;
  double UpgmmCost = 0.0;
};

/// Inputs generated at set-up from the seed: the hot set, the module
/// pool, the run's request schedule and the warm-up stream.
struct Inputs {
  std::vector<mutk::DistanceMatrix> Hot;
  std::vector<double> HotUpgmm;
  std::vector<std::pair<int, std::uint64_t>> Modules;
  std::vector<Request> Schedule;
  std::vector<Request> Warmup;
};

/// Position of \p I in a seeded shuffle of 0..Size-1; the shuffle is
/// redrawn for every block of Size consecutive values of \p I.
int stratum(std::uint64_t Seed, std::uint64_t Stream, std::uint64_t I,
            int Size) {
  mutk::Rng Rng(mixSeed(Seed, Stream, I / Size));
  std::vector<int> Order(static_cast<size_t>(Size));
  for (int J = 0; J < Size; ++J)
    Order[static_cast<size_t>(J)] = J;
  Rng.shuffle(Order);
  return Order[static_cast<size_t>(I % Size)];
}

/// Request \p K of the seed's stream; depends only on (seed, K). The mix
/// is stratified: every block of 10 requests holds exactly 7 hot, 2
/// module and 1 fresh request, and every 65 fresh requests cover each
/// size 64..128 once, so runs differ in their draws, not their shares.
Request makeRequest(const Inputs &In, std::uint64_t Seed, std::uint64_t K) {
  mutk::Rng Rng(mixSeed(Seed, 20, K));
  Request R;
  R.OwnConnection = K % OwnConnectionEvery == OwnConnectionEvery / 2;
  const int Slot = stratum(Seed, 22, K, 10);
  if (Slot < HotPerTen) {
    R.Kind = Traffic::Hot;
    R.HotId = static_cast<int>(Rng.nextBelow(HotSetSize));
    R.Perm.resize(HotSpecies);
    for (int I = 0; I < HotSpecies; ++I)
      R.Perm[static_cast<size_t>(I)] = I;
    Rng.shuffle(R.Perm);
    R.UpgmmCost = In.HotUpgmm[static_cast<size_t>(R.HotId)];
    return R;
  }
  if (Slot < HotPerTen + ModulesPerTen) {
    R.Kind = Traffic::Module;
    std::vector<std::pair<int, std::uint64_t>> Pick = In.Modules;
    Rng.shuffle(Pick);
    Pick.resize(ModulesPerRequest);
    R.Build.Matrix = bench::composeModules(Pick, &bench::hardModuleWorkload);
  } else {
    R.Kind = Traffic::Fresh;
    int N = FreshMinSpecies +
            stratum(Seed, 23, K / 10, FreshMaxSpecies - FreshMinSpecies + 1);
    R.Build.Matrix = mutk::plantedClusterMetric(N, mixSeed(Seed, 21, K));
  }
  R.UpgmmCost = mutk::upgmm(R.Build.Matrix).weight();
  return R;
}

/// The request as sent; a hot request is built in \p Buffer.
const mutk::BuildRequest &sent(const Inputs &In, const Request &R,
                               mutk::BuildRequest &Buffer) {
  if (R.Kind != Traffic::Hot)
    return R.Build;
  Buffer.Matrix = In.Hot[static_cast<size_t>(R.HotId)].permuted(R.Perm);
  return Buffer;
}

std::vector<Request> makeSchedule(const Inputs &In, std::uint64_t Seed,
                                  std::size_t Total) {
  std::vector<Request> Out(Total);
  parallelFor(static_cast<int>(Total), [&](int K) {
    Out[static_cast<size_t>(K)] = makeRequest(In, Seed, K);
  });
  return Out;
}

Inputs makeInputs(std::uint64_t Seed, std::size_t Total) {
  Inputs In;
  for (int H = 0; H < HotSetSize; ++H) {
    In.Hot.push_back(
        mutk::plantedClusterMetric(HotSpecies, mixSeed(Seed, 11, H)));
    In.HotUpgmm.push_back(mutk::upgmm(In.Hot.back()).weight());
  }
  for (int I = 0; I < ModulePoolSize; ++I)
    In.Modules.push_back({ModuleSizes[I % 3], mixSeed(Seed, 12, I)});
  In.Schedule = makeSchedule(In, Seed, Total);
  // Its own seed stream, so the measured requests stay fresh.
  In.Warmup = makeSchedule(In, mixSeed(Seed, 30, 0), WarmupRequests);
  return In;
}

/// The service, its socket server and the senders' persistent clients.
struct Rig {
  std::unique_ptr<mutk::TreeService> Service;
  std::unique_ptr<mutk::SocketServer> Server;
  std::vector<std::unique_ptr<mutk::ServiceClient>> Clients;

  void stop() {
    Clients.clear();
    if (Server)
      Server->stop();
    if (Service)
      Service->stop();
    Server.reset();
    Service.reset();
  }
  ~Rig() { stop(); }
};

int senderCount() {
  unsigned H = std::thread::hardware_concurrency();
  return std::max(1, std::min(3, static_cast<int>(H) - 1));
}

/// Starts the service and server, connects the senders and pre-warms
/// the hot set (one request per hot matrix) and the caches. \returns an
/// error or "".
std::string startRig(Rig &R, const Args &A, const Inputs &In) {
  mutk::ServiceOptions O;
  O.NumWorkers = ServiceWorkers;
  O.Qos.Enabled = true;
  R.Service = std::make_unique<mutk::TreeService>(O);
  R.Server = std::make_unique<mutk::SocketServer>(*R.Service);
  std::string Error;
  if (!R.Server->listenUnix(A.Socket, &Error))
    return "listen on " + A.Socket + ": " + Error;
  R.Server->start();
  for (int I = 0; I < senderCount(); ++I) {
    R.Clients.push_back(std::make_unique<mutk::ServiceClient>());
    if (!R.Clients.back()->connectUnix(A.Socket, &Error))
      return "connect: " + Error;
  }
  for (const mutk::DistanceMatrix &M : In.Hot) {
    mutk::BuildRequest B;
    B.Matrix = M;
    std::optional<mutk::BuildResponse> Resp = R.Clients[0]->build(B, &Error);
    if (!Resp || !Resp->ok())
      return "pre-warm request failed: " + (Resp ? Resp->Message : Error);
  }
  // Then the warm-up stream, closed loop on every connection: the block
  // cache, the QoS memo and calibration reach their steady state.
  std::atomic<std::size_t> Next{0};
  std::atomic<int> Failed{0};
  {
    std::vector<std::jthread> Warm;
    for (auto &Client : R.Clients)
      Warm.emplace_back([&, C = Client.get()] {
        mutk::BuildRequest Buffer;
        for (std::size_t K; (K = Next++) < In.Warmup.size();) {
          std::optional<mutk::BuildResponse> Resp =
              C->build(sent(In, In.Warmup[K], Buffer));
          Failed += !Resp || !Resp->ok();
        }
      });
  }
  return Failed ? "warm-up requests failed" : "";
}

/// What one request observed.
struct Sample {
  bool Ok = false;
  double LatencyMs = std::numeric_limits<double>::infinity();
  Clock::time_point Due;
  double LateMs = 0.0;
  double ConnectMs = -1.0;
  double RoundTripMs = 0.0;
  double QueueMs = 0.0;
  double SolveMs = 0.0;
  double Cost = std::nan("");
  double UpgmmCost = 0.0;
};

/// A request kept for the unit-cost probes.
struct Kept {
  mutk::BuildRequest Build;
  mutk::BuildResponse Response;
};

/// Numbers of the `StatsJson` answer the workload reads.
struct Counters {
  double WholeHits = 0, WholeMisses = 0, BlockHits = 0, BlockMisses = 0;
  double TierExact = 0, TierOther = 0, DryRuns = 0, MemoHits = 0;
};

double jsonNumber(const std::string &Json, const std::string &Key) {
  std::string Needle = "\"" + Key + "\":";
  std::size_t At = Json.find(Needle);
  return At == std::string::npos
             ? 0.0
             : std::strtod(Json.c_str() + At + Needle.size(), nullptr);
}

std::optional<Counters> readCounters(mutk::ServiceClient &C) {
  std::optional<std::string> Json = C.statsJson();
  if (!Json)
    return std::nullopt;
  Counters Out;
  Out.WholeHits = jsonNumber(*Json, "whole_hits");
  Out.WholeMisses = jsonNumber(*Json, "whole_misses");
  Out.BlockHits = jsonNumber(*Json, "block_hits");
  Out.BlockMisses = jsonNumber(*Json, "block_misses");
  Out.TierExact = jsonNumber(*Json, "tier_exact");
  Out.TierOther = jsonNumber(*Json, "tier_pipeline") +
                  jsonNumber(*Json, "tier_heuristic");
  Out.DryRuns = jsonNumber(*Json, "mutk_qos_profile_dry_runs_total");
  Out.MemoHits = jsonNumber(*Json, "mutk_qos_profile_memo_hits_total");
  return Out;
}

/// Checks a successful answer: the Newick parses with one leaf per sent
/// species, and the tree passes `checkTree` against the sent matrix.
std::string checkAnswer(const mutk::BuildRequest &B,
                        const mutk::BuildResponse &Resp) {
  std::string Error;
  std::optional<mutk::PhyloTree> Tree = mutk::parseNewick(Resp.Newick, &Error);
  if (!Tree)
    return "Newick does not parse: " + Error;
  const mutk::DistanceMatrix &M = B.Matrix;
  if (Tree->numLeaves() != M.size())
    return "Newick has " + std::to_string(Tree->numLeaves()) + " leaves for " +
           std::to_string(M.size()) + " species";
  std::unordered_map<std::string, int> Index;
  for (int I = 0; I < M.size(); ++I)
    Index[M.name(I)] = I;
  std::vector<int> Perm;
  for (const std::string &Name : Tree->names()) {
    auto It = Index.find(Name);
    if (It == Index.end())
      return "Newick names an unknown species " + Name;
    Perm.push_back(It->second);
  }
  return checkTree(*Tree, M.permuted(Perm), Resp.Cost);
}

/// One open-loop phase over the first `Total` scheduled requests, due
/// at `RequestsPerSecond` from the start (all at once in capacity mode,
/// which stops after `Seconds`).
struct Phase {
  std::vector<Sample> Samples;
  std::vector<Kept> Probes;
  SpanLog Log;
  double WallSeconds = 0.0;
  SpeedTrack Speed{NominalRelayMillis};
  Counters Before, After;
  int Threads = 0;
  int Maps = 0;
};

/// The output checks of a phase, after its timed window: every answer
/// passes `checkAnswer`, and every repeat of a hot matrix returns the
/// cost of its first answer. Keeps every ProbeEvery-th answer.
void checkPhase(const Inputs &In,
                std::vector<std::optional<mutk::BuildResponse>> &Answers,
                Phase &P, RunResult &Result) {
  std::unordered_map<int, double> HotCosts;
  for (std::size_t K = 0; K < P.Samples.size(); ++K) {
    if (!P.Samples[K].Ok)
      continue;
    const Request &Rq = In.Schedule[K];
    const mutk::BuildResponse &Resp = *Answers[K];
    mutk::BuildRequest Buffer;
    const mutk::BuildRequest &B = sent(In, Rq, Buffer);
    if (std::string Why = checkAnswer(B, Resp); !Why.empty())
      Result.fail(Why);
    if (Rq.Kind == Traffic::Hot) {
      auto [It, First] = HotCosts.emplace(Rq.HotId, Resp.Cost);
      if (!First && !sameCost(It->second, Resp.Cost))
        Result.fail("a hot-set repeat returned a different cost");
    }
    if (K % ProbeEvery == 0)
      P.Probes.push_back({B, Resp});
  }
}

Phase runPhase(Rig &R, const Args &A, const Inputs &In, double Seconds,
               std::size_t Total, bool Traced, RunResult &Result) {
  const bool Capacity = A.Capacity;
  Phase P;
  P.Samples.resize(Total);
  std::vector<std::optional<mutk::BuildResponse>> Answers(Total);
  if (std::optional<Counters> C = readCounters(*R.Clients[0]))
    P.Before = *C;
  else
    Result.fail("StatsJson request failed");

  std::atomic<std::size_t> Next{0};
  std::vector<SpanLog> Logs(R.Clients.size());
  const Clock::time_point T0 = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point Until =
      T0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(Seconds));
  for (SpanLog &L : Logs)
    L = SpanLog(T0);
  auto dueOf = [&](std::size_t K) {
    if (Capacity)
      return T0;
    return T0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(K / RequestsPerSecond));
  };

  auto sender = [&](std::size_t Id) {
    mutk::ServiceClient &Persistent = *R.Clients[Id];
    SpanLog *Log = Traced ? &Logs[Id] : nullptr;
    mutk::BuildRequest Buffer;
    for (;;) {
      std::size_t K = Next.fetch_add(1);
      if (K >= Total || (Capacity && Clock::now() >= Until))
        break;
      const Request &Rq = In.Schedule[K];
      const mutk::BuildRequest &B = sent(In, Rq, Buffer);
      Sample &S = P.Samples[K];
      S.UpgmmCost = Rq.UpgmmCost;
      const Clock::time_point Due = dueOf(K);
      S.Due = Due;
      std::this_thread::sleep_until(Due);
      const Clock::time_point Send = Clock::now();
      S.LateMs = millisBetween(Due, Send);
      std::optional<mutk::BuildResponse> &Resp = Answers[K];
      std::string Error;
      Clock::time_point Connected = Send;
      if (Rq.OwnConnection) {
        mutk::ServiceClient Own;
        bool Ok = Own.connectUnix(A.Socket, &Error);
        Connected = Clock::now();
        S.ConnectMs = millisBetween(Send, Connected);
        if (Ok)
          Resp = Own.build(B, &Error);
      } else {
        Resp = Persistent.build(B, &Error);
      }
      const Clock::time_point Done = Clock::now();
      S.RoundTripMs = millisBetween(Connected, Done);
      S.Ok = Resp && Resp->ok();
      if (S.Ok) {
        S.LatencyMs = millisBetween(Due, Done);
        S.QueueMs = Resp->QueueMillis;
        S.SolveMs = Resp->SolveMillis;
        S.Cost = Resp->Cost;
      } else {
        // Counts against `ok_ratio`; not an output-check failure.
        std::fprintf(stderr, "perfbench: request %zu failed: %s\n", K,
                     Resp ? mutk::serviceErrorName(Resp->Error)
                          : Error.c_str());
      }
      if (Log) {
        int Op = Log->add("op", K, -1, Due, Done);
        if (Rq.OwnConnection)
          Log->add("service.connectUnix", K, Op, Send, Connected);
        Log->add("service.build", K, Op, Connected, Done);
      }
    }
  };

  {
    SpeedSampler Sampler(SpeedPeriodMillis);
    {
      std::vector<std::jthread> Senders;
      for (std::size_t I = 0; I < R.Clients.size(); ++I)
        Senders.emplace_back(sender, I);
    }
    Sampler.stop();
    P.Speed = Sampler.track();
  }
  P.WallSeconds = millisBetween(T0, Clock::now()) / 1000.0;
  P.Samples.resize(std::min(Next.load(), Total));
  P.Threads = processThreads();
  P.Maps = processMaps();
  if (std::optional<Counters> C = readCounters(*R.Clients[0]))
    P.After = *C;
  else
    Result.fail("StatsJson request failed");
  for (const SpanLog &L : Logs)
    P.Log.append(L);
  checkPhase(In, Answers, P, Result);
  return P;
}

std::vector<double> pick(const std::vector<Sample> &Samples,
                         double Sample::*Field, bool OkOnly = true) {
  std::vector<double> Out;
  for (const Sample &S : Samples)
    if (!OkOnly || S.Ok)
      Out.push_back(S.*Field);
  return Out;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

void endToEnd(const Phase &P, double SetupSeconds, RunResult &R) {
  double Cost = 0, Upgmm = 0, Done = 0;
  for (const Sample &S : P.Samples)
    if (S.Ok) {
      Done += 1;
      Cost += S.Cost;
      Upgmm += S.UpgmmCost;
    }
  R.Attempted = P.Samples.size();
  R.Failed = R.Attempted - static_cast<std::uint64_t>(Done);
  // Latencies at the nominal speed, each scaled by the relay reference
  // (compute and thread wake-ups, as on a request's path) around its due
  // time; the throughput is the open-loop rate unless the service falls
  // behind, and stays a wall-clock rate.
  std::vector<double> Latency = pick(P.Samples, &Sample::LatencyMs, false);
  std::vector<double> Nominal;
  for (const Sample &S : P.Samples)
    Nominal.push_back(S.LatencyMs * P.Speed.factorAt(S.Due));
  Metrics &M = R.Out;
  M.set("setup_s", SetupSeconds, "s");
  M.set("throughput_per_s", ratio(Done, P.WallSeconds), "ops/s");
  M.set("latency_ms.p50", quantile(Nominal, 0.50), "ms");
  M.set("latency_ms.p99", windowedP99(Nominal), "ms");
  M.set("wall.latency_ms.p50", quantile(Latency, 0.50), "ms");
  M.set("reference_ms", P.Speed.medianMillis(), "ms");
  M.set("ok_ratio", ratio(Done, static_cast<double>(R.Attempted)), "ratio");
  M.set("cost_vs_upgmm", ratio(Cost, Upgmm), "ratio");
  M.set("peak_rss_mb", peakRssMb(), "MB");
  std::fprintf(stderr, "perfbench: %zu requests, %llu failed, %zu beyond p99\n",
               P.Samples.size(), static_cast<unsigned long long>(R.Failed),
               P.Samples.size() / 100);
}

/// Unit costs of the layer calls the server makes per request, timed in
/// this process on the kept requests (the server has no spans inside).
void probeUnitCosts(Phase &P, RunResult &R) {
  std::vector<double> Canonical, Profile, Codec, Newick;
  std::uint64_t OpId = 1u << 30;
  for (const Kept &K : P.Probes) {
    ScopedSpan Root(&P.Log, "probe", OpId);
    auto timed = [&](const char *Name, auto &&F) {
      return P.Log.time(Name, OpId, Root.id(), F);
    };
    const mutk::DistanceMatrix &M = K.Build.Matrix;
    Canonical.push_back(
        timed("matrix.canonicalForm", [&] { (void)mutk::canonicalForm(M); }));
    Profile.push_back(timed("qos.computeProfile", [&] {
      (void)mutk::qos::CostModel::computeProfile(M);
    }));
    mutk::Response Wire;
    Wire.V = mutk::Verb::Build;
    Wire.Build = K.Response;
    bool RoundTrips = true;
    Codec.push_back(timed("service.codec", [&] {
      std::optional<mutk::Request> Req = mutk::decodeRequest(
          mutk::encodeRequest(mutk::makeBuildRequest(K.Build)));
      std::optional<mutk::Response> Resp =
          mutk::decodeResponse(mutk::encodeResponse(Wire));
      RoundTrips = Req && Resp && Resp->Build.Newick == K.Response.Newick;
    }));
    if (!RoundTrips)
      R.fail("protocol codec does not round-trip a request and response");
    std::optional<mutk::PhyloTree> Tree = mutk::parseNewick(K.Response.Newick);
    if (Tree)
      Newick.push_back(
          timed("tree.toNewick", [&] { (void)mutk::toNewick(*Tree); }));
    ++OpId;
  }
  Metrics &M = R.Out;
  M.set("matrix.canonical_ms.p50", quantile(Canonical, 0.5), "ms");
  M.set("qos.profile_ms.p50", quantile(Profile, 0.5), "ms");
  M.set("service.codec_us", 1000.0 * meanOf(Codec), "us");
  M.set("tree.newick_ms", meanOf(Newick), "ms");
}

void perLayer(Phase &P, double UntracedP50, RunResult &R) {
  Metrics &M = R.Out;
  std::vector<double> Connect;
  for (const Sample &S : P.Samples)
    if (S.Ok && S.ConnectMs >= 0)
      Connect.push_back(S.ConnectMs);
  std::vector<double> RoundTrip = pick(P.Samples, &Sample::RoundTripMs);
  std::vector<double> Queue = pick(P.Samples, &Sample::QueueMs);
  std::vector<double> Solve = pick(P.Samples, &Sample::SolveMs);
  std::vector<double> Transport;
  double OpMs = 0, ConnectMs = 0, TransportMs = 0, SolveMs = 0;
  for (const Sample &S : P.Samples)
    if (S.Ok) {
      double Wire = S.RoundTripMs - S.QueueMs - S.SolveMs;
      Transport.push_back(Wire);
      OpMs += S.LatencyMs;
      ConnectMs += std::max(0.0, S.ConnectMs);
      TransportMs += Wire + S.QueueMs;
      SolveMs += S.SolveMs;
    }
  M.set("service.connect_ms.p50", quantile(Connect, 0.5), "ms");
  M.set("service.roundtrip_ms.p50", quantile(RoundTrip, 0.5), "ms");
  M.set("service.roundtrip_ms.p99", quantile(RoundTrip, 0.99), "ms");
  M.set("service.queue_ms.p50", quantile(Queue, 0.5), "ms");
  M.set("service.queue_ms.p99", quantile(Queue, 0.99), "ms");
  M.set("service.solve_ms.p50", quantile(Solve, 0.5), "ms");
  M.set("service.solve_ms.p99", quantile(Solve, 0.99), "ms");
  M.set("service.transport_ms.p50", quantile(Transport, 0.5), "ms");
  const Counters &A = P.Before, &B = P.After;
  M.set("service.whole_hit_ratio",
        ratio(B.WholeHits - A.WholeHits,
              B.WholeHits - A.WholeHits + B.WholeMisses - A.WholeMisses),
        "ratio");
  M.set("service.block_hit_ratio",
        ratio(B.BlockHits - A.BlockHits,
              B.BlockHits - A.BlockHits + B.BlockMisses - A.BlockMisses),
        "ratio");
  M.set("qos.exact_tier_share",
        ratio(B.TierExact - A.TierExact,
              B.TierExact - A.TierExact + B.TierOther - A.TierOther),
        "ratio");
  M.set("qos.profile_memo_hit_ratio",
        ratio(B.MemoHits - A.MemoHits,
              B.MemoHits - A.MemoHits + B.DryRuns - A.DryRuns),
        "ratio");
  M.set("service.threads", P.Threads, "count");
  M.set("service.maps", P.Maps, "count");
  // Shares of request time (due -> answer): socket, codec and queue wait
  // in `service`, the worker's solve or cache replay in `compact`, and
  // the op spans' self time (lateness and client overhead) uncovered.
  double Uncovered = P.Log.selfByName()["op"];
  M.set("service.share", ratio(ConnectMs + TransportMs, OpMs), "ratio");
  M.set("compact.share", ratio(SolveMs, OpMs), "ratio");
  M.set("uncovered.share", ratio(Uncovered, OpMs), "ratio");
  M.set("uncovered.ms", ratio(Uncovered, Transport.size()), "ms");
  M.set("gen.late_ms.p99", quantile(pick(P.Samples, &Sample::LateMs, false),
                                    0.99),
        "ms");
  std::vector<double> Latency = pick(P.Samples, &Sample::LatencyMs, false);
  M.set("trace.overhead_ratio",
        ratio(quantile(Latency, 0.5), UntracedP50) - 1.0, "ratio");
  M.set("latency_ms.p99", windowedP99(Latency), "ms");
  M.set("trace.ops", static_cast<double>(P.Samples.size()), "count");
}

} // namespace

RunResult runService(const Args &A) {
  RunResult R;
  // One malloc arena: with one per thread, which arena a block lands in
  // depends on thread timing, and the peak RSS of one seed read 148 to
  // 182 MB across runs (118 MB, steady, with one).
  mallopt(M_ARENA_MAX, 1);
  // Set-up: generate the inputs and the request schedule, start the
  // service and server, connect, pre-warm the hot set and send the
  // warm-up stream. Repeated so its median is steady.
  const double Seconds = A.Trace ? A.Seconds * TracedPhaseShare : A.Seconds;
  const std::size_t Total = static_cast<std::size_t>(std::llround(
      Seconds * (A.Capacity ? CapacityCeiling : RequestsPerSecond)));
  Inputs In;
  Rig Live;
  std::string Error;
  double Setup = medianNominalSeconds(A.Trace || A.Capacity ? 1 : 5, [&] {
    Live.stop();
    In = Inputs{}; // Free the previous set-up's inputs first.
    In = makeInputs(A.Seed, Total);
    Error = startRig(Live, A, In);
  });
  if (!Error.empty()) {
    R.fail(Error);
    R.Attempted = 1;
    R.Failed = 1;
    return R;
  }

  if (A.Capacity) {
    Phase P = runPhase(Live, A, In, Seconds, Total, false, R);
    std::size_t Done = 0;
    for (const Sample &S : P.Samples)
      Done += S.Ok;
    std::printf("capacity: %.1f requests/s closed loop with %zu senders "
                "(open-loop rate %.1f)\n",
                Done / P.WallSeconds, Live.Clients.size(), RequestsPerSecond);
    return R;
  }

  if (!A.Trace) {
    Phase P = runPhase(Live, A, In, Seconds, Total, false, R);
    endToEnd(P, Setup, R);
    return R;
  }

  // Traced run: the same request schedule twice, each on a fresh
  // service: untraced, then with client-side spans and unit-cost probes.
  Phase Plain = runPhase(Live, A, In, Seconds, Total, false, R);
  Live.stop();
  Error = startRig(Live, A, In);
  if (!Error.empty()) {
    R.fail(Error);
    return R;
  }
  Phase Traced = runPhase(Live, A, In, Seconds, Total, true, R);
  Live.stop();
  if (Plain.Samples.size() != Traced.Samples.size())
    R.fail("traced and untraced phases attempted different request counts");
  for (std::size_t I = 0;
       I < Plain.Samples.size() && I < Traced.Samples.size(); ++I) {
    const Sample &X = Plain.Samples[I], &Y = Traced.Samples[I];
    if (X.Ok && Y.Ok && !sameCost(X.Cost, Y.Cost))
      R.fail("traced and untraced phases returned different costs");
  }
  probeUnitCosts(Traced, R);
  if (std::string Why = Traced.Log.validate(); !Why.empty())
    R.fail("span arithmetic: " + Why);
  if (!A.TraceOut.empty() && !Traced.Log.write(A.TraceOut))
    R.fail("could not write " + A.TraceOut);
  R.Attempted = Traced.Samples.size();
  for (const Sample &S : Traced.Samples)
    R.Failed += !S.Ok;
  std::vector<double> PlainLatency =
      pick(Plain.Samples, &Sample::LatencyMs, false);
  perLayer(Traced, quantile(PlainLatency, 0.5), R);
  return R;
}

} // namespace pb
