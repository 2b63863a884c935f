//===- perfbench/src/Offline.cpp - exact and compact ----------------------===//
///
/// One caller runs `buildTree` over generated matrices, one after
/// another (closed loop, one operation in flight).
///
///   exact    ExactSequential, default BnbOptions (3-3 `none`),
///            unifWorkload n = 12..14 and hardDnaWorkload n = 12..13.
///            The traced run also solves every input with the threaded
///            engine, which must return the same optimum.
///   compact  CompactSets, default options, plantedClusterMetric,
///            n in {128, 256, 512}.
///
//===----------------------------------------------------------------------===//

#include "Load.h"
#include "Reference.h"
#include "Trace.h"

#include "bench/Workloads.h"
#include "bnb/Topology.h"
#include "core/TreeBuilder.h"
#include "graph/Hierarchy.h"
#include "heur/Upgma.h"
#include "matrix/MetricUtils.h"
#include "parallel/ThreadedBnb.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <thread>

namespace pb {

namespace {

enum class Kind { Exact, Compact };

/// Pool sizes. The unifWorkload and plantedClusterMetric inputs are all
/// distinct and sized so a run on a 2 GHz core does not exhaust them (a
/// faster program cycles the pool; stderr says so). Simulating sequences
/// costs ~5 ms per hardDnaWorkload matrix, so those come from a smaller
/// pool that a run reuses a few times.
constexpr int ExactPool = 40000;
constexpr int DnaPool = 256;
constexpr int CompactPool = 48;
constexpr int CompactSizes[] = {128, 256, 512};
/// The exact workload cycles through these slots: unifWorkload sizes,
/// and 0 for a hardDnaWorkload matrix (n = 12 or 13, alternating).
constexpr int ExactSlots[] = {12, 13, 14, 12, 13, 14, 12, 13,
                              14, 12, 13, 14, 12, 13, 14, 0};
constexpr int NumSlots = sizeof(ExactSlots) / sizeof(ExactSlots[0]);
/// Operations per batch: the throughput is a median over batches, and
/// the untimed run samples the reference speed between batches (about
/// every 50 ms for `exact` and 80 ms for `compact`).
constexpr size_t ExactBatch = 64;
constexpr size_t CompactBatch = 12;

/// Share of the run the traced mode spends on its operation pairs; the
/// parallel ceiling measurement takes the rest.
constexpr double TracedPairsShare = 0.7;
/// Matrices the parallel ceiling measurement solves per thread (about
/// 0.2 s of sequential B&B).
constexpr int CeilingInputs = 256;

struct Input {
  mutk::DistanceMatrix M;
  /// Filled on first use, outside the timed call.
  double UpgmmCost = -1.0;
};

/// Workers of the threaded engine the traced `exact` run compares with:
/// one per hardware thread.
int threadedWorkers() {
  unsigned H = std::thread::hardware_concurrency();
  return H == 0 ? 1 : static_cast<int>(H);
}

/// The pool for \p Seed; it depends only on the seed. Inputs cycle
/// through the size classes so every stretch of a run has the same mix.
std::vector<Input> makePool(Kind K, std::uint64_t Seed) {
  if (K == Kind::Compact) {
    std::vector<Input> Pool(CompactPool);
    parallelFor(CompactPool, [&](int I) {
      Pool[static_cast<size_t>(I)].M = mutk::plantedClusterMetric(
          CompactSizes[I % 3], mixSeed(Seed, 3, I));
    });
    return Pool;
  }
  std::vector<mutk::DistanceMatrix> Dna(DnaPool);
  parallelFor(DnaPool, [&](int I) {
    Dna[static_cast<size_t>(I)] =
        bench::hardDnaWorkload(12 + I % 2, mixSeed(Seed, 2, I));
  });
  std::vector<Input> Pool(ExactPool);
  parallelFor(ExactPool, [&](int I) {
    int N = ExactSlots[I % NumSlots];
    Pool[static_cast<size_t>(I)].M =
        N > 0 ? bench::unifWorkload(N, mixSeed(Seed, 1, I))
              : Dna[static_cast<size_t>(I / NumSlots % DnaPool)];
  });
  return Pool;
}

mutk::BuildOptions optionsFor(Kind K) {
  mutk::BuildOptions O;
  O.Method = K == Kind::Exact ? mutk::BuildMethod::ExactSequential
                              : mutk::BuildMethod::CompactSets;
  return O;
}

/// The layer function `buildTree` dispatches to for \p K.
const char *layerSpan(Kind K) {
  return K == Kind::Exact ? "bnb.solveMutSequential"
                          : "compact.buildCompactSetTree";
}

/// One timed operation. Throws whatever `buildTree` throws.
double timeOp(Kind K, const Input &In, std::uint64_t OpId, SpanLog *Log,
              mutk::BuildOutcome &Out) {
  Clock::time_point Start = Clock::now();
  {
    ScopedSpan Op(Log, "op", OpId);
    ScopedSpan Layer(Log, layerSpan(K), OpId, Op.id());
    Out = mutk::buildTree(In.M, optionsFor(K));
  }
  return millisBetween(Start, Clock::now());
}

/// Checks one answer.
void checkOp(Kind K, Input &In, const mutk::BuildOutcome &Out,
             RunResult &R) {
  std::string Why = checkTree(Out.Tree, In.M, Out.Cost);
  if (Why.empty() && K == Kind::Exact && !Out.Exact)
    Why = "exact answer is not flagged exact";
  if (!Why.empty())
    R.fail(Why + " (n=" + std::to_string(In.M.size()) + ")");
}

/// What one pass over a run's operations observed.
struct Pass {
  std::vector<int> Inputs;    ///< Pool index of each operation.
  std::vector<Clock::time_point> Starts; ///< When each operation began.
  std::vector<double> Millis; ///< +inf for a failed operation.
  std::vector<double> Costs;  ///< NaN for a failed operation.
  std::uint64_t Failed = 0;
};

/// Sum of returned costs over the sum of UPGMM costs of the same inputs
/// (UPGMM run once per distinct input, after the timed window).
double costVsUpgmm(std::vector<Input> &Pool, const Pass &P) {
  double Cost = 0.0, Upgmm = 0.0;
  for (size_t I = 0; I < P.Inputs.size(); ++I) {
    if (std::isnan(P.Costs[I]))
      continue;
    Input &In = Pool[static_cast<size_t>(P.Inputs[I])];
    if (In.UpgmmCost < 0.0)
      In.UpgmmCost = mutk::upgmm(In.M).weight();
    Cost += P.Costs[I];
    Upgmm += In.UpgmmCost;
  }
  return Upgmm > 0.0 ? Cost / Upgmm : 0.0;
}

/// Runs and checks one operation on pool input \p Index, recording it
/// in \p P. \returns false when `buildTree` threw: the operation then
/// counts as failed (and as missing every latency limit), while an
/// answer that fails its checks fails the run.
bool runOp(Kind K, std::vector<Input> &Pool, int Index, std::uint64_t OpId,
           SpanLog *Log, Pass &P, mutk::BuildOutcome &Out, RunResult &R) {
  Input &In = Pool[static_cast<size_t>(Index)];
  P.Inputs.push_back(Index);
  P.Starts.push_back(Clock::now());
  try {
    P.Millis.push_back(timeOp(K, In, OpId, Log, Out));
  } catch (const std::exception &E) {
    ++P.Failed;
    P.Millis.push_back(std::numeric_limits<double>::infinity());
    P.Costs.push_back(std::nan(""));
    std::fprintf(stderr, "perfbench: buildTree threw: %s\n", E.what());
    return false;
  }
  checkOp(K, In, Out, R);
  P.Costs.push_back(Out.Cost);
  return true;
}

Clock::time_point after(double Seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(Seconds));
}

/// Costs of one input must not change between operations on it.
void checkRepeatCosts(const Pass &P, RunResult &R) {
  std::vector<double> First(static_cast<size_t>(ExactPool),
                            std::numeric_limits<double>::quiet_NaN());
  for (size_t I = 0; I < P.Inputs.size(); ++I) {
    double &Seen = First[static_cast<size_t>(P.Inputs[I])];
    if (std::isnan(P.Costs[I]))
      continue;
    if (std::isnan(Seen))
      Seen = P.Costs[I];
    else if (!sameCost(Seen, P.Costs[I]))
      R.fail("a repeated input returned a different cost");
  }
}

/// Operations per second as the median over batches of consecutive
/// operations (four passes over the size classes): one rare pathological
/// input moves one batch, not the run's figure.
double batchThroughput(const std::vector<double> &Millis, size_t Batch) {
  std::vector<double> Rates;
  for (size_t Start = 0; Start + Batch <= Millis.size(); Start += Batch) {
    double Done = 0, Ms = 0;
    for (size_t I = Start; I < Start + Batch; ++I)
      if (std::isfinite(Millis[I])) {
        Done += 1;
        Ms += Millis[I];
      }
    if (Ms > 0)
      Rates.push_back(1000.0 * Done / Ms);
  }
  return quantile(Rates, 0.5);
}

size_t batchOf(Kind K) {
  return K == Kind::Compact ? CompactBatch : ExactBatch;
}

/// The timings are reported at the nominal speed: each operation's time
/// is scaled by the reference speed around its start. The wall-clock
/// figures are printed in the table only.
void endToEnd(Kind K, std::vector<Input> &Pool, const Pass &P,
              const SpeedTrack &Speed, double SetupSeconds, RunResult &R) {
  R.Attempted = P.Millis.size();
  R.Failed = P.Failed;
  std::vector<double> Nominal;
  for (size_t I = 0; I < P.Millis.size(); ++I)
    Nominal.push_back(P.Millis[I] * Speed.factorAt(P.Starts[I]));
  Metrics &M = R.Out;
  M.set("setup_s", SetupSeconds, "s");
  M.set("throughput_per_s", batchThroughput(Nominal, batchOf(K)), "ops/s");
  M.set("latency_ms.p50", quantile(Nominal, 0.50), "ms");
  M.set("latency_ms.p99", windowedP99(Nominal), "ms");
  M.set("wall.throughput_per_s", batchThroughput(P.Millis, batchOf(K)),
        "ops/s");
  M.set("wall.latency_ms.p50", quantile(P.Millis, 0.50), "ms");
  M.set("reference_ms", Speed.medianMillis(), "ms");
  M.set("ok_ratio",
        R.Attempted ? 1.0 - static_cast<double>(R.Failed) / R.Attempted : 0.0,
        "ratio");
  M.set("cost_vs_upgmm", costVsUpgmm(Pool, P), "ratio");
  M.set("peak_rss_mb", peakRssMb(), "MB");
  std::fprintf(stderr,
               "perfbench: %zu ops, %llu failed, %zu samples beyond p99\n",
               P.Millis.size(), static_cast<unsigned long long>(P.Failed),
               P.Millis.size() / 100);
}

/// Sums of the traced replay, in milliseconds unless noted.
struct Layered {
  double Ops = 0;
  double OpMs = 0, OpSelfMs = 0, LayerMs = 0;
  double MaxminMs = 0, UpgmmMs = 0;
  double SetsMs = 0, HierarchyMs = 0, CondenseMs = 0;
  double BnbMs = 0; ///< Per-block B&B probes (compact).
  double ParMs = 0; ///< Threaded-engine probes (exact).
  double Branched = 0, Generated = 0, Pruned = 0;
  double ThirdCost = 0, NoneCost = 0;
  double ParBranched = 0, Transfers = 0;
  std::vector<double> Imbalance;
  double Blocks = 0, ExactBlocks = 0, MaxBlock = 0;
};

void addStats(Layered &L, const mutk::BnbStats &S) {
  L.Branched += static_cast<double>(S.Branched);
  L.Generated += static_cast<double>(S.Generated);
  L.Pruned += static_cast<double>(S.PrunedByBound + S.PrunedByThreeThree);
}

/// Repeats, on the op's input, the layer calls the op made inside its
/// one public function, each under its own span.
void probe(Kind K, const Input &In, const mutk::BuildOutcome &Out,
           std::uint64_t OpId, SpanLog &Log, Layered &L, RunResult &R) {
  const mutk::DistanceMatrix &M = In.M;
  ScopedSpan Root(&Log, "probe", OpId);
  auto timed = [&](const char *Name, auto &&F) {
    return Log.time(Name, OpId, Root.id(), F);
  };
  if (K == Kind::Exact) {
    // The B&B engine's set-up: maxmin relabeling and the UPGMM bound.
    L.MaxminMs += timed("matrix.maxminPermutation", [&] {
      mutk::DistanceMatrix Relabeled = M.permuted(mutk::maxminPermutation(M));
      (void)Relabeled;
    });
    L.UpgmmMs += timed("heur.upgmm", [&] { (void)mutk::upgmm(M); });
    addStats(L, Out.Stats);
    mutk::BnbOptions Third;
    Third.ThreeThree = mutk::ThreeThreeMode::ThirdSpecies;
    timed("bnb.solveMutSequential.third", [&] {
      L.ThirdCost += mutk::solveMutSequential(M, Third).Cost;
    });
    L.NoneCost += Out.Cost;

    // The threaded engine on the same input must find the same optimum.
    mutk::ParallelMutResult Par;
    L.ParMs += timed("parallel.solveMutThreaded", [&] {
      Par = mutk::solveMutThreaded(M, threadedWorkers());
    });
    if (!sameCost(Par.Cost, Out.Cost) || !Par.Stats.Complete)
      R.fail("threaded cost differs from the sequential optimum");
    L.ParBranched += static_cast<double>(Par.Stats.Branched);
    double Max = 0, Sum = 0;
    for (const mutk::WorkerStats &W : Par.Workers) {
      Max = std::max(Max, static_cast<double>(W.Branched));
      Sum += static_cast<double>(W.Branched);
      L.Transfers +=
          static_cast<double>(W.PulledFromGlobal + W.DonatedToGlobal);
    }
    if (Sum > 0)
      L.Imbalance.push_back(Max / (Sum / Par.Workers.size()));
  }
  if (K == Kind::Compact) {
    std::vector<mutk::CompactSet> Sets;
    L.SetsMs += timed("graph.findCompactSets",
                      [&] { Sets = mutk::findCompactSets(M); });
    std::optional<mutk::CompactHierarchy> H;
    L.HierarchyMs += timed("graph.CompactHierarchy",
                           [&] { H.emplace(M.size(), Sets); });
    L.MaxBlock += H->maxPartitionSize();
    for (int Id : H->internalNodesTopDown()) {
      mutk::DistanceMatrix D;
      L.CondenseMs += timed("matrix.condense", [&] {
        D = mutk::condense(M, H->partitionAt(Id), mutk::CondenseMode::Maximum);
      });
      if (D.size() <= mutk::PipelineOptions{}.MaxExactBlockSize &&
          D.size() <= mutk::MaxBnbSpecies)
        L.BnbMs += timed("bnb.solveMutSequential",
                         [&] { (void)mutk::solveMutSequential(D); });
      else
        L.UpgmmMs += timed("heur.upgmm", [&] { (void)mutk::upgmm(D); });
    }
    addStats(L, Out.Stats);
    for (const mutk::BlockReport &B : Out.Pipeline.Blocks) {
      L.Blocks += 1;
      L.ExactBlocks += B.Exact ? 1 : 0;
    }
  }
}

/// W threads each solving the same inputs sequentially, against one:
/// the speed-up this machine allows independent B&B work at all.
double parallelCeiling(const std::vector<Input> &Pool,
                       const std::vector<int> &Indices) {
  std::vector<int> Chosen(Indices.begin(),
                          Indices.begin() +
                              std::min<size_t>(CeilingInputs, Indices.size()));
  auto solveAll = [&] {
    for (int I : Chosen)
      (void)mutk::solveMutSequential(Pool[static_cast<size_t>(I)].M);
  };
  Clock::time_point Start = Clock::now();
  solveAll();
  double One = millisBetween(Start, Clock::now());
  const int W = threadedWorkers();
  Start = Clock::now();
  {
    std::vector<std::jthread> Threads;
    for (int T = 0; T < W; ++T)
      Threads.emplace_back(solveAll);
  }
  double Many = millisBetween(Start, Clock::now());
  return Many > 0 ? W * One / Many : 0.0;
}

void perLayer(Kind K, const Layered &L, RunResult &R,
              const std::vector<Input> &Pool, const std::vector<int> &Indices) {
  Metrics &M = R.Out;
  const double N = std::max(1.0, L.Ops);
  const double Op = std::max(L.OpMs, 1e-9);
  auto share = [&](double Ms) { return Ms / Op; };
  // The probes split the layer call the op made; what they do not
  // account for is the called layer's own (self) time.
  double Inner = L.MaxminMs + L.UpgmmMs + L.SetsMs + L.HierarchyMs +
                 L.CondenseMs + (K == Kind::Compact ? L.BnbMs : 0.0);
  double LayerSelf = L.LayerMs - Inner;
  // Time inside an op that no layer span covers.
  M.set("uncovered.ms", L.OpSelfMs / N, "ms");
  M.set("uncovered.share", share(L.OpSelfMs), "ratio");
  M.set("matrix.maxmin_ms", L.MaxminMs / N, "ms");
  M.set("matrix.condense_ms", L.CondenseMs / N, "ms");
  M.set("matrix.share", share(L.MaxminMs + L.CondenseMs), "ratio");
  M.set("heur.upgmm_ms", L.UpgmmMs / N, "ms");
  M.set("heur.share", share(L.UpgmmMs), "ratio");

  double BnbMs = K == Kind::Exact ? LayerSelf : L.BnbMs;
  M.set("bnb.ms", BnbMs / N, "ms");
  M.set("bnb.share", share(BnbMs), "ratio");
  M.set("bnb.branched", L.Branched / N, "count");
  M.set("bnb.nodes_per_s", BnbMs > 0 ? L.Branched / (BnbMs / 1000.0) : 0.0,
        "1/s");
  M.set("bnb.prune_ratio", L.Generated > 0 ? L.Pruned / L.Generated : 0.0,
        "ratio");
  if (K == Kind::Exact) {
    M.set("bnb.third_cost_drift",
          L.NoneCost > 0 ? L.ThirdCost / L.NoneCost - 1.0 : 0.0, "ratio");
    // The threaded engine against the sequential op on the same inputs.
    M.set("parallel.speedup", L.ParMs > 0 ? L.LayerMs / L.ParMs : 0.0, "x");
    M.set("parallel.node_inflation",
          L.Branched > 0 ? L.ParBranched / L.Branched : 0.0, "ratio");
    M.set("parallel.worker_imbalance", quantile(L.Imbalance, 0.5), "ratio");
    M.set("parallel.pool_transfers_per_knode",
          L.ParBranched > 0 ? L.Transfers / (L.ParBranched / 1000.0) : 0.0,
          "count");
    M.set("parallel.ceiling_x", parallelCeiling(Pool, Indices), "x");
  }
  if (K == Kind::Compact) {
    M.set("compact.self_ms", LayerSelf / N, "ms");
    M.set("compact.share", share(LayerSelf), "ratio");
    M.set("compact.blocks", L.Blocks / N, "count");
    M.set("compact.exact_block_share",
          L.Blocks > 0 ? L.ExactBlocks / L.Blocks : 0.0, "ratio");
    M.set("graph.compact_sets_ms", L.SetsMs / N, "ms");
    M.set("graph.hierarchy_ms", L.HierarchyMs / N, "ms");
    M.set("graph.max_block", L.MaxBlock / N, "count");
    M.set("graph.share", share(L.SetsMs + L.HierarchyMs), "ratio");
  }
  M.set("trace.ops", L.Ops, "count");
}

} // namespace

bool isOfflineWorkload(const std::string &Name) {
  return Name == "exact" || Name == "compact";
}

RunResult runOffline(const Args &A) {
  RunResult R;
  const Kind K = A.Workload == "exact" ? Kind::Exact : Kind::Compact;

  // Set-up is generating the inputs; repeated so its median is steady.
  std::vector<Input> Pool;
  double Setup = medianNominalSeconds(A.Trace ? 1 : 5,
                                      [&] { Pool = makePool(K, A.Seed); });

  if (!A.Trace) {
    Pass P;
    Reference Ref;
    SpeedTrack Speed(NominalMillis);
    Clock::time_point Until = after(A.Seconds);
    mutk::BuildOutcome Out;
    for (size_t I = 0; Clock::now() < Until; ++I) {
      if (I % batchOf(K) == 0) {
        Clock::time_point At = Clock::now();
        Speed.record(At, Ref.runMillis());
      }
      runOp(K, Pool, static_cast<int>(I % Pool.size()), I, nullptr, P, Out, R);
    }
    if (K == Kind::Exact && P.Inputs.size() > Pool.size())
      std::fprintf(stderr, "perfbench: the run cycled its %zu inputs\n",
                   Pool.size());
    checkRepeatCosts(P, R);
    endToEnd(K, Pool, P, Speed, Setup, R);
    return R;
  }

  // Traced run: every operation runs twice, untraced and with spans (in
  // alternating order, so neither side always gets the warm caches),
  // followed by its probes. Both sides must agree on every cost.
  SpanLog Log;
  Layered L;
  Pass Plain, Traced;
  Clock::time_point Until = after(A.Seconds * TracedPairsShare);
  for (size_t I = 0; Clock::now() < Until; ++I) {
    const int Index = static_cast<int>(I % Pool.size());
    mutk::BuildOutcome Untimed, Out;
    bool Ok = true;
    for (int Side = 0; Side < 2; ++Side) {
      if ((Side == 0) == (I % 2 == 0))
        runOp(K, Pool, Index, I, nullptr, Plain, Untimed, R);
      else
        Ok = runOp(K, Pool, Index, I, &Log, Traced, Out, R);
    }
    if (Ok)
      probe(K, Pool[static_cast<size_t>(Index)], Out, I, Log, L, R);
  }
  if (Traced.Inputs != Plain.Inputs)
    R.fail("traced and untraced passes ran different operations");
  double PlainMs = 0, TracedMs = 0;
  for (size_t I = 0; I < Plain.Costs.size(); ++I) {
    if (!sameCost(Plain.Costs[I], Traced.Costs[I]))
      R.fail("traced and untraced passes returned different costs");
    if (std::isfinite(Plain.Millis[I]) && std::isfinite(Traced.Millis[I])) {
      PlainMs += Plain.Millis[I];
      TracedMs += Traced.Millis[I];
    }
  }

  for (const Span &S : Log.spans()) {
    if (S.Name == "op") {
      L.Ops += 1;
      L.OpMs += S.millis();
    } else if (S.Name == layerSpan(K) && S.Parent >= 0 &&
               Log.span(S.Parent).Name == "op") {
      L.LayerMs += S.millis();
    }
  }
  L.OpSelfMs = Log.selfByName()["op"];
  if (std::string Why = Log.validate(); !Why.empty())
    R.fail("span arithmetic: " + Why);
  if (!A.TraceOut.empty() && !Log.write(A.TraceOut))
    R.fail("could not write " + A.TraceOut);

  R.Attempted = Traced.Millis.size();
  R.Failed = Traced.Failed;
  perLayer(K, L, R, Pool, Plain.Inputs);
  R.Out.set("latency_ms.p99", windowedP99(Plain.Millis), "ms");
  R.Out.set("trace.overhead_ratio",
            PlainMs > 0 ? TracedMs / PlainMs - 1.0 : 0.0, "ratio");
  return R;
}

} // namespace pb
