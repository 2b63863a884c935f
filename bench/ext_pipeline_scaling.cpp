//===- bench/ext_pipeline_scaling.cpp - Block-scheduler scaling -----------===//
//
// Extension study: wall-clock scaling of the parallel block scheduler
// (compact/BlockScheduler.h). The workload is a "blocky" metric built so
// the compact-set decomposition yields C independent, equally hard
// condensed blocks: C planted clusters of S species each, intra-cluster
// distances uniform in [1, 20] and every cross-cluster distance exactly
// 60 — each cluster's diameter (<= 20) is strictly below its separation
// (60), so every cluster is a compact set and the root condensed matrix
// is a trivial C-wide equilateral. Almost all solve time is the per-
// cluster branch-and-bound, which is exactly what the scheduler fans
// out.
//
// For each concurrency K the pipeline must return the *identical* cost
// (the scheduler is a pure reordering of deterministic block solves;
// the run aborts if not), and the table reports speedup over the K = 1
// sequential walk. Besides the console table the run writes
// `BENCH_pipeline.json` to the working directory following the
// BENCH_*.json convention in docs/benchmarking.md.
//
// The machine-independent part of every row (species, K, compact-set
// count, solved block count and the cost to the last bit) is compared
// with the committed bench/baseline/pipeline.json (bench/Baseline.h);
// any difference exits nonzero, so a decomposition change that moves a
// set, a block or the cost cannot pass unnoticed. A change meant to alter
// them reruns with `--update-baseline` and commits the rows.
//
// MUTK_BENCH_SMOKE=1 shrinks the workload to a seconds-long CI smoke
// run (fewer clusters, easier blocks, no timing repetitions).
//
//===----------------------------------------------------------------------===//

#include "Baseline.h"
#include "Workloads.h"

#include "compact/CompactSetPipeline.h"
#include "graph/CompactSets.h"
#include "obs/Metrics.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#ifndef MUTK_PIPELINE_BASELINE
#error "MUTK_PIPELINE_BASELINE must name the committed baseline file"
#endif

using namespace mutk;

namespace {

/// Quantized near-equilateral intra-cluster distance: 15.0 + 0.5 * h
/// with h in 0..6 from a split-mix style hash. The coarse quantization
/// produces ties everywhere, so no strict-inequality compact subset
/// survives inside a cluster — each cluster condenses to ONE full-width
/// block — and near-equilateral matrices prune terribly, making every
/// block a genuinely heavy B&B solve.
double intraDistance(std::uint64_t Salt, int I, int J) {
  std::uint64_t H = Salt * 0x9e3779b97f4a7c15ull +
                    static_cast<std::uint64_t>(I) * 2654435761ull +
                    static_cast<std::uint64_t>(J) * 40503ull;
  H ^= H >> 33;
  H *= 0xff51afd7ed558ccdull;
  H ^= H >> 33;
  return 15.0 + 0.5 * static_cast<double>(H % 7);
}

/// C compact clusters of S species each: intra-cluster quantized
/// near-equilateral distances in [15, 18], all cross-cluster distances
/// 60. Provably metric (18 <= 15 + 15 inside a cluster, 60 <= 15 + 60
/// across) and every cluster is a compact set (diameter <= 18 < 60
/// separation), so the hierarchy is exactly C hard sibling blocks under
/// a trivial equilateral root — the scheduler's ideal fan-out shape.
DistanceMatrix blockyMetric(int Clusters, int SpeciesPerCluster,
                            std::uint64_t Seed) {
  const int N = Clusters * SpeciesPerCluster;
  DistanceMatrix M(N);
  for (int C = 0; C < Clusters; ++C) {
    const std::uint64_t Salt = Seed * 1000 + static_cast<std::uint64_t>(C);
    const int Base = C * SpeciesPerCluster;
    for (int I = 0; I < SpeciesPerCluster; ++I)
      for (int J = I + 1; J < SpeciesPerCluster; ++J)
        M.set(Base + I, Base + J, intraDistance(Salt, I, J));
  }
  for (int I = 0; I < N; ++I)
    for (int J = I + 1; J < N; ++J)
      if (I / SpeciesPerCluster != J / SpeciesPerCluster)
        M.set(I, J, 60.0);
  return M;
}

struct ResultRow {
  int Species = 0;
  int Blocks = 0; // planted clusters, the scaling shape's x axis
  int Concurrency = 0;
  double Millis = 0.0;
  double Speedup = 1.0;
  double Cost = 0.0;
  int CompactSets = 0;
  int SolvedBlocks = 0; // blocks the pipeline solved, root block included
};

/// One row of the committed baseline: a single JSON object on one line.
std::string baselineLine(const char *Set, const ResultRow &R) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "{\"set\":\"%s\",\"species\":%d,\"concurrency\":%d,"
                "\"compact_sets\":%d,\"solved_blocks\":%d,\"cost\":%.17g}",
                Set, R.Species, R.Concurrency, R.CompactSets, R.SolvedBlocks,
                R.Cost);
  return Buf;
}

/// BENCH_*.json convention: {"bench":NAME,"rows":[...],"registry":{...}}.
void writeJson(const std::vector<ResultRow> &Rows) {
  std::ofstream Out("BENCH_pipeline.json", std::ios::trunc);
  if (!Out) {
    std::printf("  !! could not write BENCH_pipeline.json\n");
    return;
  }
  Out << "{\"bench\":\"ext_pipeline_scaling\",\"rows\":[";
  for (std::size_t I = 0; I < Rows.size(); ++I) {
    const ResultRow &R = Rows[I];
    if (I > 0)
      Out << ",";
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"species\":%d,\"blocks\":%d,\"concurrency\":%d,"
                  "\"millis\":%.2f,\"speedup\":%.3f,\"cost\":%.6f}",
                  R.Species, R.Blocks, R.Concurrency, R.Millis, R.Speedup,
                  R.Cost);
    Out << Buf;
  }
  Out << "],\"registry\":"
      << mutk::obs::MetricsRegistry::global().renderJson() << "}\n";
  std::printf("  wrote BENCH_pipeline.json (%zu rows)\n", Rows.size());
}

/// One pipeline run at block concurrency \p Concurrency; fills \p Row's
/// machine-independent fields and returns the wall time.
double timedRunMillis(const DistanceMatrix &M, int Concurrency,
                      ResultRow &Row) {
  PipelineOptions Options;
  Options.BlockConcurrency = Concurrency;
  auto Start = std::chrono::steady_clock::now();
  PipelineResult R = buildCompactSetTree(M, Options);
  double Millis = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
  Row.Species = M.size();
  Row.Concurrency = Concurrency;
  Row.Cost = R.Cost;
  Row.CompactSets = static_cast<int>(R.Sets.size());
  Row.SolvedBlocks = static_cast<int>(R.Blocks.size());
  return Millis;
}

void printTable(bool UpdateBaseline) {
  const bool Smoke = std::getenv("MUTK_BENCH_SMOKE") != nullptr;
  bench::banner(
      "Extension: parallel block scheduler scaling",
      "C independent hard blocks solved on K pool threads; the merged "
      "tree cost is identical for every K (asserted), only wall-clock "
      "changes. Speedup is against the K=1 sequential walk.");
  const int Clusters = Smoke ? 4 : 8;
  const int SpeciesPerCluster = Smoke ? 11 : 14;
  const int Reps = Smoke ? 1 : 3;
  DistanceMatrix M = blockyMetric(Clusters, SpeciesPerCluster, 7);
  // The workload must actually decompose into one block per cluster.
  const std::size_t Sets = findCompactSets(M).size();
  std::printf("species=%d clusters=%d compact-sets=%zu\n\n", M.size(),
              Clusters, Sets);
  std::printf("%8s %8s %12s %10s %10s\n", "blocks", "K", "median ms",
              "speedup", "cost");

  std::vector<ResultRow> Rows;
  double BaselineMillis = 0.0;
  double BaselineCost = 0.0;
  for (int K : {1, 2, 4, 8}) {
    if (Smoke && K > 4)
      break;
    std::vector<double> Times;
    ResultRow Row;
    for (int Rep = 0; Rep < Reps; ++Rep)
      Times.push_back(timedRunMillis(M, K, Row));
    const double Millis = bench::median(Times);
    const double Cost = Row.Cost;
    if (K == 1) {
      BaselineMillis = Millis;
      BaselineCost = Cost;
    } else if (std::fabs(Cost - BaselineCost) > 1e-6) {
      // The scheduler must be a pure reordering: same blocks, same
      // solves, same merged tree. A cost drift is a correctness bug,
      // not a measurement artifact.
      std::printf("  !! cost mismatch at K=%d: %.9f vs %.9f\n", K, Cost,
                  BaselineCost);
      std::exit(1);
    }
    Row.Blocks = Clusters;
    Row.Millis = Millis;
    Row.Speedup = Millis > 0.0 ? BaselineMillis / Millis : 1.0;
    std::printf("%8d %8d %12.1f %9.2fx %10.3f\n", Clusters, K, Millis,
                Row.Speedup, Cost);
    Rows.push_back(Row);
  }
  writeJson(Rows);
  const char *Set = bench::baselineSet();
  std::vector<std::string> Lines;
  for (const ResultRow &R : Rows)
    Lines.push_back(baselineLine(Set, R));
  if (!bench::checkBaseline(MUTK_PIPELINE_BASELINE, "ext_pipeline_scaling",
                            Set, Lines, UpdateBaseline))
    std::exit(1);
}

void BM_PipelineSequentialWalk(benchmark::State &State) {
  DistanceMatrix M = blockyMetric(4, 11, 3);
  for (auto _ : State) {
    ResultRow Row;
    benchmark::DoNotOptimize(timedRunMillis(M, 1, Row));
  }
}

void BM_PipelineScheduler4(benchmark::State &State) {
  DistanceMatrix M = blockyMetric(4, 11, 3);
  for (auto _ : State) {
    ResultRow Row;
    benchmark::DoNotOptimize(timedRunMillis(M, 4, Row));
  }
}

BENCHMARK(BM_PipelineSequentialWalk)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PipelineScheduler4)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  printTable(bench::updateBaselineRequested(argc, argv));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
