//===- bench/ext_incremental.cpp - Incremental re-solve study --------------===//
//
// Extension study: how much of a solved matrix's work survives a small
// perturbation. A module-composed base matrix is solved once through the
// loopback TreeService (incremental mode on), then three perturbations
// are submitted with `Incremental` set:
//
//   * perturb-entry — one in-module distance stretched by 10%
//   * add-taxon     — one new species grafted next to module 0
//   * remove-taxon  — the last species dropped
//
// For each, the incremental latency is compared against solving the same
// perturbed matrix from scratch on a cache-less service, and the
// dirty/clean block split reported by the service is recorded. The bench
// aborts if the incremental tree cost ever diverges from the
// from-scratch cost — reuse must never change the answer.
//
// Writes `BENCH_incremental.json` (rows + metrics registry) following
// the BENCH_*.json convention of docs/benchmarking.md.
// MUTK_BENCH_SMOKE=1 shrinks the instance for seconds-long CI runs.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "obs/Metrics.h"
#include "service/Service.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

using namespace mutk;

namespace {

struct Instance {
  int NumModules = 4;
  int ModuleSize = 11;
  int Repeats = 5;
};

/// Hard modules (no internal compact sets): each one costs a genuine
/// B&B solve, so replaying a clean module's cached subtree saves real
/// work instead of microseconds of bookkeeping.
DistanceMatrix baseMatrix(const Instance &Inst) {
  std::vector<std::pair<int, std::uint64_t>> Modules;
  for (int I = 0; I < Inst.NumModules; ++I)
    Modules.emplace_back(Inst.ModuleSize, static_cast<std::uint64_t>(I) + 1);
  return bench::composeModules(Modules, &bench::hardModuleWorkload);
}

/// One in-module distance stretched by 10%. Increasing an entry of an
/// ultrametric keeps the triangle inequality, and 22 < 80 keeps every
/// module a compact set — only module 0's block changes.
DistanceMatrix perturbEntry(const DistanceMatrix &Base) {
  DistanceMatrix M = Base;
  M.set(0, 1, Base.at(0, 1) * 1.1);
  return M;
}

/// One new species joined at exactly the module diameter to every member
/// of module 0 and at the separation to everyone else: the composition
/// stays ultrametric and only blocks around module 0 change.
DistanceMatrix addTaxon(const DistanceMatrix &Base, int ModuleSize) {
  DistanceMatrix M(Base.size() + 1);
  for (int I = 0; I < Base.size(); ++I) {
    M.setName(I, Base.name(I));
    for (int J = I + 1; J < Base.size(); ++J)
      M.set(I, J, Base.at(I, J));
  }
  for (int I = 0; I < Base.size(); ++I)
    M.set(I, Base.size(),
          I < ModuleSize ? bench::ModuleDiameter : bench::ModuleSeparation);
  return M;
}

/// The last species dropped; only the last module's block changes.
DistanceMatrix removeTaxon(const DistanceMatrix &Base) {
  std::vector<int> Keep(static_cast<std::size_t>(Base.size()) - 1);
  std::iota(Keep.begin(), Keep.end(), 0);
  return Base.restrictedTo(Keep);
}

struct ResultRow {
  std::string Scenario;
  int Species = 0;
  double IncrementalMillis = 0.0;
  double ScratchMillis = 0.0;
  bool Applied = false;
  std::uint32_t DirtyBlocks = 0;
  std::uint32_t CleanBlocks = 0;
  std::int32_t TaxaAdded = 0;
  std::int32_t TaxaRemoved = 0;
  std::int32_t EntriesChanged = 0;
};

double submitMillis(TreeService &Service, const DistanceMatrix &M,
                    bool Incremental, BuildResponse *Out = nullptr) {
  BuildRequest Request;
  Request.Matrix = M;
  Request.Incremental = Incremental;
  auto Start = std::chrono::steady_clock::now();
  BuildResponse Resp = Service.submit(std::move(Request));
  double Millis = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
  if (!Resp.ok()) {
    std::printf("  !! request failed: %s\n", Resp.Message.c_str());
    std::abort();
  }
  if (Out)
    *Out = Resp;
  return Millis;
}

/// Solves base then the perturbed matrix incrementally on a fresh
/// service (median over repeats), and the perturbed matrix from scratch
/// on a cache-less service. Aborts on any cost divergence.
ResultRow runScenario(const std::string &Scenario, const DistanceMatrix &Base,
                      const DistanceMatrix &Perturbed, int Repeats) {
  ResultRow Row;
  Row.Scenario = Scenario;
  Row.Species = Perturbed.size();
  std::vector<double> IncMillis;
  std::vector<double> ScratchMillis;
  double IncCost = 0.0;
  double ScratchCost = 0.0;
  for (int R = 0; R < Repeats; ++R) {
    ServiceOptions Options;
    Options.NumWorkers = 2;
    Options.Incremental = true;
    TreeService Service(Options);
    submitMillis(Service, Base, false);
    BuildResponse Resp;
    IncMillis.push_back(submitMillis(Service, Perturbed, true, &Resp));
    Service.stop();
    IncCost = Resp.Cost;
    Row.Applied = Resp.IncrementalApplied;
    Row.DirtyBlocks = Resp.DirtyBlocks;
    Row.CleanBlocks = Resp.CleanBlocks;
    Row.TaxaAdded = Resp.TaxaAdded;
    Row.TaxaRemoved = Resp.TaxaRemoved;
    Row.EntriesChanged = Resp.EntriesChanged;

    ServiceOptions ColdOptions;
    ColdOptions.NumWorkers = 2;
    ColdOptions.CacheBytes = 0;
    TreeService Cold(ColdOptions);
    BuildResponse ColdResp;
    ScratchMillis.push_back(submitMillis(Cold, Perturbed, false, &ColdResp));
    Cold.stop();
    ScratchCost = ColdResp.Cost;
  }
  Row.IncrementalMillis = bench::median(IncMillis);
  Row.ScratchMillis = bench::median(ScratchMillis);
  if (std::abs(IncCost - ScratchCost) > 1e-9 * std::max(1.0, ScratchCost)) {
    std::printf("  !! %s: incremental cost %.6f != scratch cost %.6f\n",
                Scenario.c_str(), IncCost, ScratchCost);
    std::abort();
  }
  return Row;
}

void writeJson(const std::vector<ResultRow> &Rows) {
  std::ofstream Out("BENCH_incremental.json", std::ios::trunc);
  if (!Out) {
    std::printf("  !! could not write BENCH_incremental.json\n");
    return;
  }
  Out << "{\"bench\":\"ext_incremental\",\"rows\":[";
  for (std::size_t I = 0; I < Rows.size(); ++I) {
    const ResultRow &R = Rows[I];
    if (I > 0)
      Out << ",";
    char Buf[320];
    std::snprintf(
        Buf, sizeof(Buf),
        "{\"scenario\":\"%s\",\"species\":%d,\"incremental_ms\":%.3f,"
        "\"scratch_ms\":%.3f,\"speedup\":%.3f,\"applied\":%s,"
        "\"dirty_blocks\":%u,\"clean_blocks\":%u,\"taxa_added\":%d,"
        "\"taxa_removed\":%d,\"entries_changed\":%d}",
        R.Scenario.c_str(), R.Species, R.IncrementalMillis, R.ScratchMillis,
        R.IncrementalMillis > 0.0 ? R.ScratchMillis / R.IncrementalMillis
                                  : 0.0,
        R.Applied ? "true" : "false", R.DirtyBlocks, R.CleanBlocks,
        R.TaxaAdded, R.TaxaRemoved, R.EntriesChanged);
    Out << Buf;
  }
  Out << "],\"registry\":"
      << mutk::obs::MetricsRegistry::global().renderJson() << "}\n";
  std::printf("  wrote BENCH_incremental.json (%zu rows)\n", Rows.size());
}

void printTable() {
  const bool Smoke = std::getenv("MUTK_BENCH_SMOKE") != nullptr;
  Instance Inst;
  if (Smoke) {
    Inst.NumModules = 3;
    Inst.ModuleSize = 9;
    Inst.Repeats = 2;
  }
  bench::banner(
      "Extension: incremental re-solve after small perturbations",
      "One-entry / one-taxon edits of a solved module composition; clean "
      "blocks replay from the block cache, only dirty blocks re-solve.");
  std::printf("%14s %8s | %10s %10s %8s | %6s %6s | %4s %4s %4s\n",
              "scenario", "species", "incr ms", "scratch ms", "speedup",
              "dirty", "clean", "+tax", "-tax", "dent");
  DistanceMatrix Base = baseMatrix(Inst);
  std::vector<ResultRow> Rows;
  Rows.push_back(runScenario("perturb-entry", Base, perturbEntry(Base),
                             Inst.Repeats));
  Rows.push_back(runScenario("add-taxon", Base,
                             addTaxon(Base, Inst.ModuleSize), Inst.Repeats));
  Rows.push_back(runScenario("remove-taxon", Base, removeTaxon(Base),
                             Inst.Repeats));
  for (const ResultRow &R : Rows)
    std::printf("%14s %8d | %10.2f %10.2f %7.1fx | %6u %6u | %4d %4d %4d\n",
                R.Scenario.c_str(), R.Species, R.IncrementalMillis,
                R.ScratchMillis,
                R.IncrementalMillis > 0.0
                    ? R.ScratchMillis / R.IncrementalMillis
                    : 0.0,
                R.DirtyBlocks, R.CleanBlocks, R.TaxaAdded, R.TaxaRemoved,
                R.EntriesChanged);
  writeJson(Rows);
}

void BM_IncrementalResolve(benchmark::State &State) {
  Instance Inst;
  Inst.NumModules = 3;
  Inst.ModuleSize = 8;
  DistanceMatrix Base = baseMatrix(Inst);
  DistanceMatrix Perturbed = perturbEntry(Base);
  ServiceOptions Options;
  Options.NumWorkers = 2;
  Options.Incremental = true;
  TreeService Service(Options);
  {
    BuildRequest Prime;
    Prime.Matrix = Base;
    Service.submit(std::move(Prime));
  }
  for (auto _ : State) {
    BuildRequest Request;
    Request.Matrix = Perturbed;
    Request.Incremental = true;
    benchmark::DoNotOptimize(Service.submit(std::move(Request)).Cost);
  }
}

BENCHMARK(BM_IncrementalResolve)->Unit(benchmark::kMicrosecond);

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  printTable();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
