//===- bench/ext_service_throughput.cpp - mutkd service throughput ---------===//
//
// Extension study: closed-loop load generation against the loopback
// TreeService. N client threads each keep exactly one request in flight
// over a fixed working set of matrices and we measure requests/second —
// first against a cold cache (every matrix unseen, workers must run
// branch-and-bound) and then against a warm cache (the same working set
// again, answered by fingerprint replay). The warm/cold ratio is the
// headline: the result cache must buy at least ~2x on repeated queries
// for the daemon design to pay for itself.
//
// A second table replays a block-overlap working set: distinct module
// compositions whose compact-set blocks recur across requests, so the
// whole-matrix tier never matches a fresh composition and all reuse is
// per-block (`block_hits` > 0 is the acceptance signal, checked by CI).
//
// A third table is the QoS adversarial study (docs/qos.md): a latency-
// sensitive closed-loop warm-lookup population sharing the service with
// an adversary that keeps submitting cold, near-equidistant 20-taxon
// matrices under deadlines the exact solver cannot meet. Without QoS the
// cold solves pin the workers and the warm p99 collapses; with QoS on,
// admission routes the adversary to the heuristic tier (or sheds it)
// and the warm tail survives — the acceptance bar is a >= 10x lower
// warm p99 with QoS enabled. MUTK_BENCH_SMOKE=1 shrinks it to a
// seconds-long CI smoke.
//
// Besides the console tables, the run writes `BENCH_service.json` (cache
// tables) and `BENCH_qos.json` (adversarial study, including the
// mutk_qos_* registry with the predicted-vs-actual histograms) to the
// working directory: one machine-readable record per row (tagged with its
// "workload") plus a dump of the metrics registry, following the
// BENCH_*.json convention described in docs/benchmarking.md.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "obs/Metrics.h"
#include "service/Service.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <vector>

using namespace mutk;

namespace {

/// Runs \p Clients closed-loop client threads for \p RequestsPerClient
/// requests each over \p Matrices (round-robin, staggered start) and
/// returns aggregate requests/second.
double closedLoopRps(TreeService &Service,
                     const std::vector<DistanceMatrix> &Matrices,
                     int Clients, int RequestsPerClient) {
  std::atomic<int> Errors{0};
  auto Start = std::chrono::steady_clock::now();
  std::vector<std::thread> Threads;
  for (int C = 0; C < Clients; ++C) {
    Threads.emplace_back([&, C] {
      for (int R = 0; R < RequestsPerClient; ++R) {
        BuildRequest Request;
        Request.Matrix =
            Matrices[(static_cast<std::size_t>(C) + R) % Matrices.size()];
        if (!Service.submit(std::move(Request)).ok())
          Errors.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  double Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  if (Errors.load() > 0)
    std::printf("  !! %d requests failed\n", Errors.load());
  return static_cast<double>(Clients) * RequestsPerClient / Seconds;
}

std::vector<DistanceMatrix> workingSet(int NumMatrices, int NumSpecies) {
  std::vector<DistanceMatrix> Set;
  Set.reserve(static_cast<std::size_t>(NumMatrices));
  for (int I = 0; I < NumMatrices; ++I)
    Set.push_back(
        bench::unifWorkload(NumSpecies, static_cast<std::uint64_t>(I) + 1));
  return Set;
}

/// A working set of *distinct* compositions drawn from a shared module
/// pool: composition i uses modules {i, i+1, i+2} mod PoolSize. Every
/// whole-matrix fingerprint is unique (no whole-cache hit can answer a
/// fresh composition) but the underlying compact-set blocks recur across
/// requests, so the block tier — not the whole tier — is what pays.
std::vector<DistanceMatrix> blockOverlapSet(int NumMatrices, int PoolSize,
                                            int ModuleSize) {
  std::vector<DistanceMatrix> Set;
  Set.reserve(static_cast<std::size_t>(NumMatrices));
  for (int I = 0; I < NumMatrices; ++I) {
    std::vector<std::pair<int, std::uint64_t>> Modules;
    for (int K = 0; K < 3; ++K)
      Modules.emplace_back(ModuleSize,
                           static_cast<std::uint64_t>((I + K) % PoolSize) + 1);
    Set.push_back(bench::composeModules(Modules));
  }
  return Set;
}

/// One measured configuration, serialized into BENCH_service.json.
struct ResultRow {
  const char *Workload = "uniform";
  int Species = 0;
  int Clients = 0;
  int Workers = 0;
  double ColdRps = 0.0;
  double WarmRps = 0.0;
  std::uint64_t WholeHits = 0;
  std::uint64_t BlockHits = 0;
};

/// BENCH_*.json convention: {"bench":NAME,"rows":[...],"registry":{...}}
/// so plotting scripts can diff runs without scraping stdout.
void writeJson(const std::vector<ResultRow> &Rows) {
  std::ofstream Out("BENCH_service.json", std::ios::trunc);
  if (!Out) {
    std::printf("  !! could not write BENCH_service.json\n");
    return;
  }
  Out << "{\"bench\":\"ext_service_throughput\",\"rows\":[";
  for (std::size_t I = 0; I < Rows.size(); ++I) {
    const ResultRow &R = Rows[I];
    if (I > 0)
      Out << ",";
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"workload\":\"%s\",\"species\":%d,\"clients\":%d,"
                  "\"workers\":%d,"
                  "\"cold_rps\":%.1f,\"warm_rps\":%.1f,\"ratio\":%.3f,"
                  "\"whole_hits\":%llu,\"block_hits\":%llu}",
                  R.Workload, R.Species, R.Clients, R.Workers, R.ColdRps,
                  R.WarmRps, R.ColdRps > 0.0 ? R.WarmRps / R.ColdRps : 0.0,
                  static_cast<unsigned long long>(R.WholeHits),
                  static_cast<unsigned long long>(R.BlockHits));
    Out << Buf;
  }
  Out << "],\"registry\":"
      << mutk::obs::MetricsRegistry::global().renderJson() << "}\n";
  std::printf("  wrote BENCH_service.json (%zu rows)\n", Rows.size());
}

/// The block-overlap study: distinct compositions over a shared module
/// pool. Unlike the uniform table, every request's whole-matrix key is
/// new on first sight, so any speedup beyond the whole tier (and every
/// recorded `block_hits`) comes from per-block reuse across requests.
void blockOverlapTable(std::vector<ResultRow> &Rows) {
  bench::banner(
      "Extension: block-overlap working set (cross-request block reuse)",
      "Distinct module compositions sharing compact-set blocks; block-tier "
      "hits answer sub-problems the whole-matrix tier has never seen.");
  std::printf("%8s %8s %8s | %12s %12s %8s | %10s %10s\n", "species",
              "clients", "workers", "cold req/s", "warm req/s", "ratio",
              "whole-hit", "block-hit");
  const int NumMatrices = 12;
  const int PoolSize = 6;
  const int ModuleSize = 6;
  const int RequestsPerClient = 48;
  std::vector<DistanceMatrix> Matrices =
      blockOverlapSet(NumMatrices, PoolSize, ModuleSize);
  const int NumSpecies = Matrices.front().size();
  for (int Clients : {1, 4}) {
    ServiceOptions Options;
    Options.NumWorkers = 4;
    TreeService Service(Options);
    double ColdRps = 0.0;
    {
      ServiceOptions ColdOptions = Options;
      ColdOptions.CacheBytes = 0;
      TreeService ColdService(ColdOptions);
      ColdRps =
          closedLoopRps(ColdService, Matrices, Clients, RequestsPerClient);
      ColdService.stop();
    }
    // Counts are process totals; the row reports its own service's.
    StatsSnapshot Before = Service.stats();
    // The warm-up pass sees each composition once: the first insertions
    // populate the block tier and later compositions already hit it.
    closedLoopRps(Service, Matrices, 1, NumMatrices);
    double WarmRps =
        closedLoopRps(Service, Matrices, Clients, RequestsPerClient);
    StatsSnapshot S = countsBetween(Before, Service.stats());
    std::printf("%8d %8d %8d | %12.0f %12.0f %7.1fx | %10llu %10llu\n",
                NumSpecies, Clients, Options.NumWorkers, ColdRps, WarmRps,
                WarmRps / ColdRps, static_cast<unsigned long long>(S.WholeHits),
                static_cast<unsigned long long>(S.BlockHits));
    Rows.push_back(ResultRow{"block-overlap", NumSpecies, Clients,
                             Options.NumWorkers, ColdRps, WarmRps, S.WholeHits,
                             S.BlockHits});
    Service.stop();
  }
}

//===----------------------------------------------------------------------===//
// QoS adversarial study
//===----------------------------------------------------------------------===//

struct Percentiles {
  double P50Us = 0.0;
  double P99Us = 0.0;
};

Percentiles percentilesOf(std::vector<double> &LatenciesUs) {
  Percentiles P;
  if (LatenciesUs.empty())
    return P;
  std::sort(LatenciesUs.begin(), LatenciesUs.end());
  auto at = [&](double Q) {
    std::size_t I = static_cast<std::size_t>(
        Q * static_cast<double>(LatenciesUs.size() - 1));
    return LatenciesUs[I];
  };
  P.P50Us = at(0.50);
  P.P99Us = at(0.99);
  return P;
}

/// One adversarial-mix measurement, serialized into BENCH_qos.json.
struct QosRow {
  bool QosOn = false;
  int WarmSpecies = 0;
  std::size_t WarmRequests = 0;
  Percentiles Warm;
  int WarmErrors = 0;
  StatsSnapshot Stats;
};

/// Runs the adversarial mix against one service configuration: \p
/// WarmClients closed-loop clients replaying a pre-warmed working set
/// (latency-recorded) while \p AdversaryThreads keep submitting cold
/// near-equidistant 20-taxon matrices under a 50 ms deadline — plus a
/// periodic generated 96-taxon probe under a 1 ms deadline that nothing,
/// not even the heuristic tier, can meet (the guaranteed shed).
QosRow adversarialRun(bool QosOn, int WarmClients, int WarmRequests,
                      int AdversaryThreads) {
  ServiceOptions Options;
  Options.NumWorkers = 2;
  Options.Qos.Enabled = QosOn;
  TreeService Service(Options);
  // Counts are process totals; the row reports this service's.
  StatsSnapshot Before = Service.stats();

  const int WarmSetSize = 8;
  const int WarmSpecies = 10;
  std::vector<DistanceMatrix> WarmSet = workingSet(WarmSetSize, WarmSpecies);
  for (const DistanceMatrix &M : WarmSet) {
    BuildRequest Prime;
    Prime.Matrix = M;
    if (!Service.submit(std::move(Prime)).ok())
      std::printf("  !! warm-set priming failed\n");
  }

  std::atomic<bool> StopAdversary{false};
  std::vector<std::thread> Adversaries;
  for (int A = 0; A < AdversaryThreads; ++A)
    Adversaries.emplace_back([&, A] {
      std::uint64_t Seed = static_cast<std::uint64_t>(A) * 100'000 + 1;
      int K = 0;
      while (!StopAdversary.load(std::memory_order_relaxed)) {
        BuildRequest R;
        if (++K % 4 == 0) {
          // Hopeless probe: 96 generated taxa against a 1 ms deadline.
          R.Generator = GeneratorKind::Uniform;
          R.GenSpecies = 96;
          R.GenSeed = Seed++;
          R.DeadlineMillis = 1;
        } else {
          // The headline adversary: a cold 20-taxon block condensation
          // cannot split, i.e. a real exact solve, deadline 50 ms.
          R.Matrix = bench::hardModuleWorkload(20, Seed++);
          R.MaxExactBlockSize = 20;
          R.DeadlineMillis = 50;
          R.UseCache = false;
        }
        (void)Service.submit(std::move(R));
      }
    });

  std::atomic<int> WarmErrors{0};
  std::vector<std::vector<double>> PerClientUs(
      static_cast<std::size_t>(WarmClients));
  std::vector<std::thread> Clients;
  for (int C = 0; C < WarmClients; ++C)
    Clients.emplace_back([&, C] {
      std::vector<double> &Us = PerClientUs[static_cast<std::size_t>(C)];
      Us.reserve(static_cast<std::size_t>(WarmRequests));
      for (int R = 0; R < WarmRequests; ++R) {
        BuildRequest Req;
        Req.Matrix =
            WarmSet[(static_cast<std::size_t>(C) + R) % WarmSet.size()];
        Req.Priority = RequestPriority::High;
        Req.Tenant = "warm";
        auto T0 = std::chrono::steady_clock::now();
        BuildResponse Resp = Service.submit(std::move(Req));
        Us.push_back(std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - T0)
                         .count());
        if (!Resp.ok())
          WarmErrors.fetch_add(1, std::memory_order_relaxed);
      }
    });

  for (std::thread &T : Clients)
    T.join();
  StopAdversary.store(true, std::memory_order_relaxed);
  for (std::thread &T : Adversaries)
    T.join();

  QosRow Row;
  Row.QosOn = QosOn;
  Row.WarmSpecies = WarmSpecies;
  std::vector<double> AllUs;
  for (std::vector<double> &Us : PerClientUs)
    AllUs.insert(AllUs.end(), Us.begin(), Us.end());
  Row.WarmRequests = AllUs.size();
  Row.Warm = percentilesOf(AllUs);
  Row.WarmErrors = WarmErrors.load();
  Row.Stats = countsBetween(Before, Service.stats());
  Service.stop();
  return Row;
}

void writeQosJson(const std::vector<QosRow> &Rows, double P99Ratio) {
  std::ofstream Out("BENCH_qos.json", std::ios::trunc);
  if (!Out) {
    std::printf("  !! could not write BENCH_qos.json\n");
    return;
  }
  Out << "{\"bench\":\"qos_adversarial\",\"rows\":[";
  for (std::size_t I = 0; I < Rows.size(); ++I) {
    const QosRow &R = Rows[I];
    if (I > 0)
      Out << ",";
    char Buf[512];
    std::snprintf(
        Buf, sizeof(Buf),
        "{\"workload\":\"adversarial\",\"qos\":%d,\"warm_species\":%d,"
        "\"warm_requests\":%zu,\"warm_errors\":%d,"
        "\"p50_us\":%.1f,\"p99_us\":%.1f,"
        "\"shed_total\":%llu,\"rate_limited\":%llu,"
        "\"tier_exact\":%llu,\"tier_pipeline\":%llu,"
        "\"tier_heuristic\":%llu,\"coalesced\":%llu,"
        "\"deadline_expired\":%llu,\"whole_hits\":%llu}",
        R.QosOn ? 1 : 0, R.WarmSpecies, R.WarmRequests, R.WarmErrors,
        R.Warm.P50Us, R.Warm.P99Us,
        static_cast<unsigned long long>(R.Stats.Shed),
        static_cast<unsigned long long>(R.Stats.RateLimited),
        static_cast<unsigned long long>(R.Stats.TierExact),
        static_cast<unsigned long long>(R.Stats.TierPipeline),
        static_cast<unsigned long long>(R.Stats.TierHeuristic),
        static_cast<unsigned long long>(R.Stats.Coalesced),
        static_cast<unsigned long long>(R.Stats.DeadlineExpired),
        static_cast<unsigned long long>(R.Stats.WholeHits));
    Out << Buf;
  }
  char Summary[96];
  std::snprintf(Summary, sizeof(Summary),
                "],\"p99_ratio_off_over_on\":%.2f,\"registry\":", P99Ratio);
  Out << Summary << mutk::obs::MetricsRegistry::global().renderJson()
      << "}\n";
  std::printf("  wrote BENCH_qos.json (%zu rows)\n", Rows.size());
}

/// The QoS adversarial study: identical warm/adversary mixes with the
/// QoS layer off and on. Also asserts the exact-tier identity gate: the
/// same matrix solved by both services yields byte-identical Newick.
void qosAdversarialTable() {
  bench::banner(
      "Extension: QoS under an adversarial mixed workload",
      "Warm lookups sharing the service with cold 20-taxon exact solves "
      "under hopeless deadlines; QoS admission must protect the warm p99 "
      "(>= 10x is the acceptance bar).");

  // Exact-tier identity gate (docs/qos.md): QoS routing must never
  // change what an exact-tier request computes.
  {
    DistanceMatrix M = bench::unifWorkload(12, 77);
    TreeService Plain;
    ServiceOptions QosOptions;
    QosOptions.Qos.Enabled = true;
    TreeService Qos(QosOptions);
    BuildRequest A, B;
    A.Matrix = M;
    B.Matrix = M;
    BuildResponse RespA = Plain.submit(std::move(A));
    BuildResponse RespB = Qos.submit(std::move(B));
    if (!RespA.ok() || !RespB.ok() || RespA.Newick != RespB.Newick) {
      std::printf("  !! exact-tier result diverged from the non-QoS path\n");
      std::abort();
    }
    Plain.stop();
    Qos.stop();
  }

  const bool Smoke = std::getenv("MUTK_BENCH_SMOKE") != nullptr;
  const int WarmClients = 4;
  const int WarmRequests = Smoke ? 50 : 400;
  const int AdversaryThreads = 2;

  std::printf("%6s | %12s %12s | %6s %10s %6s %6s\n", "qos", "p50 us",
              "p99 us", "shed", "heuristic", "coal", "err");
  std::vector<QosRow> Rows;
  for (bool QosOn : {false, true}) {
    QosRow Row =
        adversarialRun(QosOn, WarmClients, WarmRequests, AdversaryThreads);
    std::printf("%6s | %12.1f %12.1f | %6llu %10llu %6llu %6d\n",
                QosOn ? "on" : "off", Row.Warm.P50Us, Row.Warm.P99Us,
                static_cast<unsigned long long>(Row.Stats.Shed),
                static_cast<unsigned long long>(Row.Stats.TierHeuristic),
                static_cast<unsigned long long>(Row.Stats.Coalesced),
                Row.WarmErrors);
    Rows.push_back(std::move(Row));
  }
  double Ratio = Rows[1].Warm.P99Us > 0.0
                     ? Rows[0].Warm.P99Us / Rows[1].Warm.P99Us
                     : 0.0;
  std::printf("  warm p99 off/on ratio: %.1fx (acceptance >= 10x)\n", Ratio);
  writeQosJson(Rows, Ratio);
}

void printTable() {
  bench::banner(
      "Extension: service throughput, cold vs warm result cache",
      "Closed-loop clients against the loopback TreeService; the warm "
      "pass replays cached solutions (>= 2x is the acceptance bar).");
  std::printf("%8s %8s %8s | %12s %12s %8s | %10s %10s\n", "species",
              "clients", "workers", "cold req/s", "warm req/s", "ratio",
              "whole-hit", "block-hit");
  const int NumMatrices = 16;
  const int RequestsPerClient = 64;
  std::vector<ResultRow> Rows;
  for (int NumSpecies : {12, 16, 20}) {
    std::vector<DistanceMatrix> Matrices =
        workingSet(NumMatrices, NumSpecies);
    for (int Clients : {1, 4, 8}) {
      ServiceOptions Options;
      Options.NumWorkers = 4;
      TreeService Service(Options);
      // Cold baseline: caching disabled, so every request pays the full
      // pipeline (repeating the working set would otherwise warm the
      // cache mid-measurement).
      double ColdRps = 0.0;
      {
        ServiceOptions ColdOptions = Options;
        ColdOptions.CacheBytes = 0;
        TreeService ColdService(ColdOptions);
        ColdRps = closedLoopRps(ColdService, Matrices, Clients,
                                RequestsPerClient);
        ColdService.stop();
      }
      // Counts are process totals; the row reports its own service's.
      StatsSnapshot Before = Service.stats();
      // Warm-up pass fills the cache, then the measured warm pass.
      closedLoopRps(Service, Matrices, 1, NumMatrices);
      double WarmRps =
          closedLoopRps(Service, Matrices, Clients, RequestsPerClient);
      StatsSnapshot S = countsBetween(Before, Service.stats());
      std::printf("%8d %8d %8d | %12.0f %12.0f %7.1fx | %10llu %10llu\n",
                  NumSpecies, Clients, Options.NumWorkers, ColdRps, WarmRps,
                  WarmRps / ColdRps,
                  static_cast<unsigned long long>(S.WholeHits),
                  static_cast<unsigned long long>(S.BlockHits));
      Rows.push_back(ResultRow{"uniform", NumSpecies, Clients,
                               Options.NumWorkers, ColdRps, WarmRps,
                               S.WholeHits, S.BlockHits});
      Service.stop();
    }
  }
  blockOverlapTable(Rows);
  writeJson(Rows);
  qosAdversarialTable();
}

void BM_ServiceSubmitCold(benchmark::State &State) {
  ServiceOptions Options;
  Options.NumWorkers = 2;
  Options.CacheBytes = 0;
  TreeService Service(Options);
  std::uint64_t Seed = 1;
  for (auto _ : State) {
    State.PauseTiming();
    BuildRequest Request;
    Request.Matrix = bench::unifWorkload(14, Seed++);
    State.ResumeTiming();
    benchmark::DoNotOptimize(Service.submit(std::move(Request)).Cost);
  }
}

void BM_ServiceSubmitWarm(benchmark::State &State) {
  ServiceOptions Options;
  Options.NumWorkers = 2;
  TreeService Service(Options);
  DistanceMatrix M = bench::unifWorkload(14, 1);
  {
    BuildRequest Prime;
    Prime.Matrix = M;
    Service.submit(std::move(Prime));
  }
  for (auto _ : State) {
    BuildRequest Request;
    Request.Matrix = M;
    benchmark::DoNotOptimize(Service.submit(std::move(Request)).Cost);
  }
}

BENCHMARK(BM_ServiceSubmitCold)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ServiceSubmitWarm)->Unit(benchmark::kMicrosecond);

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  printTable();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
