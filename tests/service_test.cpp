//===- tests/service_test.cpp - Tree-construction service tests -----------===//
//
// Covers the `mutkd` subsystem bottom-up: matrix fingerprints, the
// bounded job queue, the sharded LRU cache, the wire-protocol codecs,
// the loopback TreeService (concurrency, determinism, caching,
// deadlines, shutdown) and the socket transport end to end.
//
//===----------------------------------------------------------------------===//

#include "compact/CompactSetPipeline.h"
#include "matrix/Fingerprint.h"
#include "matrix/Generators.h"
#include "qos/Scheduler.h"
#include "service/Client.h"
#include "service/ResultCache.h"
#include "service/Server.h"
#include "service/Service.h"
#include "service/ServiceStats.h"
#include "service/Transport.h"
#include "tree/Newick.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <iterator>
#include <limits>
#include <numeric>
#include <string>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace mutk;

namespace {

/// A metric whose distances all lie in [99, 100]: the triangle
/// inequality holds trivially, and the only compact sets are forced
/// minimum pairs, so the top condensed block stays large and exact B&B
/// on it prunes poorly — a reliable way to keep a worker busy for a
/// bounded-but-nontrivial number of branched nodes.
DistanceMatrix narrowBandMatrix(int N, std::uint64_t Seed) {
  DistanceMatrix M(N);
  std::uint64_t State = Seed * 0x9e3779b97f4a7c15ull + 1;
  for (int I = 0; I < N; ++I)
    for (int J = I + 1; J < N; ++J) {
      State = State * 6364136223846793005ull + 1442695040888963407ull;
      double Unit = static_cast<double>(State >> 11) /
                    static_cast<double>(1ull << 53);
      M.set(I, J, 99.0 + Unit);
    }
  return M;
}

/// The knobs a default BuildRequest maps to on the pipeline side.
PipelineOptions defaultPipelineOptions() {
  PipelineOptions Options;
  Options.Mode = CondenseMode::Maximum;
  Options.MaxExactBlockSize = 16;
  return Options;
}

} // namespace

//===----------------------------------------------------------------------===//
// Matrix fingerprints
//===----------------------------------------------------------------------===//

TEST(Fingerprint, InvariantUnderRelabeling) {
  for (std::uint64_t Seed = 1; Seed <= 8; ++Seed) {
    DistanceMatrix M = uniformRandomMetric(12, Seed);
    std::uint64_t Want = fingerprint(M);
    std::vector<std::uint8_t> WantBytes = canonicalForm(M).Bytes;
    std::vector<int> Perm(12);
    std::iota(Perm.begin(), Perm.end(), 0);
    // A deterministic batch of permutations: reversals and rotations
    // compose into fairly arbitrary relabelings across iterations.
    for (int Round = 0; Round < 6; ++Round) {
      if (Round % 2 == 0)
        std::reverse(Perm.begin() + Round / 2, Perm.end());
      else
        std::rotate(Perm.begin(), Perm.begin() + 1 + Round / 2, Perm.end());
      DistanceMatrix P = M.permuted(Perm);
      EXPECT_EQ(Want, fingerprint(P)) << "seed " << Seed << " round "
                                      << Round;
      EXPECT_EQ(WantBytes, canonicalForm(P).Bytes);
    }
  }
}

TEST(Fingerprint, NamesDoNotMatter) {
  DistanceMatrix M = uniformRandomMetric(8, 9);
  DistanceMatrix Renamed = M;
  for (int I = 0; I < 8; ++I)
    Renamed.setName(I, "species_" + std::to_string(100 - I));
  EXPECT_EQ(fingerprint(M), fingerprint(Renamed));
}

TEST(Fingerprint, DistinguishesMatrices) {
  DistanceMatrix A = uniformRandomMetric(10, 1);
  DistanceMatrix B = uniformRandomMetric(10, 2);
  EXPECT_NE(fingerprint(A), fingerprint(B));

  DistanceMatrix C = A;
  C.set(2, 7, A.at(2, 7) + 0.5);
  EXPECT_NE(fingerprint(A), fingerprint(C));
}

TEST(Fingerprint, TinySizes) {
  EXPECT_NE(fingerprint(DistanceMatrix(0)), fingerprint(DistanceMatrix(1)));
  CanonicalForm Form = canonicalForm(DistanceMatrix(1));
  EXPECT_EQ(Form.Perm, std::vector<int>{0});
}

TEST(Fingerprint, PermutationMapsToCanonicalOrder) {
  DistanceMatrix M = uniformRandomMetric(9, 33);
  CanonicalForm Form = canonicalForm(M);
  ASSERT_EQ(static_cast<int>(Form.Perm.size()), 9);
  // Perm maps canonical index -> original index, so permuting M by it
  // must reproduce the canonical bytes with an identity permutation.
  DistanceMatrix Canon = M.permuted(Form.Perm);
  CanonicalForm Again = canonicalForm(Canon);
  EXPECT_EQ(Form.Key, Again.Key);
  EXPECT_EQ(Form.Bytes, Again.Bytes);
}

//===----------------------------------------------------------------------===//
// Bounded job queue (the service's qos::ReadyQueue). FIFO order, close,
// drain and full-queue refusal are covered in qos_test; these keep the
// cases it does not.
//===----------------------------------------------------------------------===//

TEST(BoundedQueue, TryPushShedsWhenFull) {
  qos::ReadyQueue<int> Q(2);
  EXPECT_TRUE(Q.tryPush(1));
  EXPECT_TRUE(Q.tryPush(2));
  EXPECT_FALSE(Q.tryPush(3));
  EXPECT_EQ(Q.pop(), std::optional<int>(1));
  EXPECT_TRUE(Q.tryPush(3));
}

TEST(BoundedQueue, FailedPushLeavesItemIntact) {
  qos::ReadyQueue<std::string> Q(1);
  Q.close();
  std::string Item = "still here";
  EXPECT_FALSE(Q.push(std::move(Item)));
  EXPECT_EQ(Item, "still here");
  std::string Other = "me too";
  EXPECT_FALSE(Q.tryPush(std::move(Other)));
  EXPECT_EQ(Other, "me too");
}

TEST(BoundedQueue, BlockingPushWaitsForConsumer) {
  qos::ReadyQueue<int> Q(1);
  EXPECT_TRUE(Q.push(1));
  std::thread Consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(Q.pop(), std::optional<int>(1));
  });
  EXPECT_TRUE(Q.push(2)); // blocks until the consumer frees a slot
  Consumer.join();
  EXPECT_EQ(Q.pop(), std::optional<int>(2));
}

//===----------------------------------------------------------------------===//
// Sharded LRU cache
//===----------------------------------------------------------------------===//

namespace {

CachedSolution solutionWithCost(double Cost,
                                std::vector<std::uint8_t> Bytes) {
  CachedSolution S;
  S.Cost = Cost;
  S.Bytes = std::move(Bytes);
  return S;
}

/// Test-local instruments for one cache.
struct TestCacheInstruments {
  obs::Counter Hits, Misses, Evictions, Oversized;
  obs::Gauge Bytes;
  obs::CacheInstruments Counts{Hits, Misses, Evictions, Oversized, Bytes};
};

/// Budget for a handful of small entries per shard.
constexpr std::size_t RoomyBudget = std::size_t{1} << 20;

} // namespace

TEST(ShardedLruCache, StoreAndLookup) {
  ShardedLruCache Cache(RoomyBudget, 4);
  TestCacheInstruments I;
  Cache.setInstruments(&I.Counts, {});
  Cache.store(7, solutionWithCost(1.5, {1, 2, 3}));
  auto Hit = Cache.lookup(7, {1, 2, 3});
  ASSERT_TRUE(Hit);
  EXPECT_DOUBLE_EQ(Hit->Cost, 1.5);
  EXPECT_FALSE(Cache.lookup(8, {1, 2, 3}));
  EXPECT_EQ(I.Hits.value(), 1u);
  EXPECT_EQ(I.Misses.value(), 1u);
}

TEST(ShardedLruCache, HashCollisionIsAMissNotAWrongTree) {
  ShardedLruCache Cache(RoomyBudget, 4);
  Cache.store(7, solutionWithCost(1.5, {1, 2, 3}));
  // Same key, different canonical bytes: must refuse the entry.
  EXPECT_FALSE(Cache.lookup(7, {9, 9, 9}));
}

TEST(ShardedLruCache, EvictsLeastRecentlyUsed) {
  // Single shard with room for exactly two of the (equal-charge) entries.
  ShardedLruCache Cache(
      2 * ShardedLruCache::charge(solutionWithCost(1, {1})), 1);
  TestCacheInstruments I;
  Cache.setInstruments(&I.Counts, {});
  Cache.store(1, solutionWithCost(1, {1}));
  Cache.store(2, solutionWithCost(2, {2}));
  ASSERT_TRUE(Cache.lookup(1, {1}));        // 1 now most recent
  Cache.store(3, solutionWithCost(3, {3})); // evicts 2
  EXPECT_TRUE(Cache.lookup(1, {1}));
  EXPECT_FALSE(Cache.lookup(2, {2}));
  EXPECT_TRUE(Cache.lookup(3, {3}));
  EXPECT_EQ(I.Evictions.value(), 1u);
  EXPECT_EQ(Cache.size(), 2u);
}

// One large entry displaces as many small ones as its charge needs: the
// budget bounds bytes, not entries.
TEST(ShardedLruCache, LargeEntryEvictsByBytes) {
  CachedSolution Small = solutionWithCost(1, {1});
  CachedSolution Large =
      solutionWithCost(9, std::vector<std::uint8_t>(500, 9));
  std::size_t Unit = ShardedLruCache::charge(Small);
  ASSERT_GT(ShardedLruCache::charge(Large), 3 * Unit);
  ASSERT_LT(ShardedLruCache::charge(Large), 4 * Unit);
  ShardedLruCache Cache(6 * Unit, 1);
  TestCacheInstruments I;
  Cache.setInstruments(&I.Counts, {});
  for (std::uint8_t K = 1; K <= 6; ++K)
    Cache.store(K, solutionWithCost(K, {K}));
  Cache.store(100, Large); // needs the room of four small entries
  EXPECT_EQ(I.Evictions.value(), 4u);
  EXPECT_EQ(Cache.size(), 3u);
  for (std::uint8_t K = 1; K <= 4; ++K)
    EXPECT_FALSE(Cache.lookup(K, {K})) << int(K);
  EXPECT_TRUE(Cache.lookup(5, {5}));
  EXPECT_TRUE(Cache.lookup(6, {6}));
  EXPECT_TRUE(Cache.lookup(100, Large.Bytes));
  EXPECT_EQ(Cache.bytes(), 2 * Unit + ShardedLruCache::charge(Large));
}

TEST(ShardedLruCache, OversizedEntryIsRefusedAndCountedOnce) {
  CachedSolution Small = solutionWithCost(1, {1});
  ShardedLruCache Cache(2 * ShardedLruCache::charge(Small), 1);
  TestCacheInstruments I;
  Cache.setInstruments(&I.Counts, {});
  Cache.store(1, Small);
  Cache.store(2, solutionWithCost(2, {2}));
  CachedSolution Huge =
      solutionWithCost(3, std::vector<std::uint8_t>(4096, 3));
  ASSERT_GT(ShardedLruCache::charge(Huge), 2 * ShardedLruCache::charge(Small));
  Cache.store(3, Huge);
  // Refused without touching what was resident: nothing evicted, one
  // oversized event, and a probe for it misses.
  EXPECT_EQ(I.Oversized.value(), 1u);
  EXPECT_EQ(I.Evictions.value(), 0u);
  EXPECT_FALSE(Cache.lookup(3, Huge.Bytes));
  EXPECT_TRUE(Cache.lookup(1, {1}));
  EXPECT_TRUE(Cache.lookup(2, {2}));
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(Cache.bytes(), 2 * ShardedLruCache::charge(Small));
  // A budget of zero stores nothing at all.
  ShardedLruCache Off(0, 4);
  Off.store(1, Small);
  EXPECT_EQ(Off.size(), 0u);
}

TEST(ShardedLruCache, ClearEmpties) {
  ShardedLruCache Cache(RoomyBudget, 4);
  Cache.store(1, solutionWithCost(1, {1}));
  Cache.store(2, solutionWithCost(2, {2}));
  EXPECT_EQ(Cache.size(), 2u);
  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_FALSE(Cache.lookup(1, {1}));
}

TEST(ShardedLruCache, ClearResetsTheByteCount) {
  TestCacheInstruments I;
  {
    ShardedLruCache Cache(RoomyBudget, 4);
    Cache.setInstruments(&I.Counts, {});
    CachedSolution A = solutionWithCost(1, {1});
    CachedSolution B = solutionWithCost(2, std::vector<std::uint8_t>(100, 2));
    std::size_t Want =
        ShardedLruCache::charge(A) + ShardedLruCache::charge(B);
    Cache.store(1, A);
    Cache.store(2, B);
    Cache.store(2, B); // replacing an entry does not charge it twice
    EXPECT_EQ(Cache.bytes(), Want);
    EXPECT_EQ(I.Bytes.value(), static_cast<std::int64_t>(Want));
    Cache.clear();
    EXPECT_EQ(Cache.bytes(), 0u);
    EXPECT_EQ(I.Bytes.value(), 0);
    Cache.store(1, A);
    EXPECT_EQ(Cache.bytes(), ShardedLruCache::charge(A));
  }
  // A destroyed cache takes its charge off the process-wide gauge.
  EXPECT_EQ(I.Bytes.value(), 0);
}

// A hit shares the stored entry: no copy of the key bytes or the tree,
// and the entry outlives its eviction for whoever still holds it.
TEST(ShardedLruCache, HitsShareTheStoredEntry) {
  ShardedLruCache Cache(2 * ShardedLruCache::charge(solutionWithCost(1, {1})),
                        1);
  Cache.store(1, solutionWithCost(1, {1}));
  ShardedLruCache::Entry First = Cache.lookup(1, {1});
  ShardedLruCache::Entry Second = Cache.lookup(1, {1});
  ASSERT_TRUE(First);
  EXPECT_EQ(First.get(), Second.get());
  Cache.store(2, solutionWithCost(2, {2}));
  Cache.store(3, solutionWithCost(3, {3})); // evicts 1
  EXPECT_FALSE(Cache.lookup(1, {1}));
  EXPECT_DOUBLE_EQ(First->Cost, 1.0);
  EXPECT_EQ(First->Bytes, std::vector<std::uint8_t>{1});
}

//===----------------------------------------------------------------------===//
// Wire protocol
//===----------------------------------------------------------------------===//

namespace {

BuildRequest sampleBuildRequest() {
  BuildRequest R;
  R.Matrix = uniformRandomMetric(6, 11);
  R.Matrix.setName(0, "needs escaping?");
  R.Mode = CondenseMode::Average;
  R.ThreeThree = ThreeThreeMode::AllInsertions;
  R.MaxExactBlockSize = 9;
  R.Polish = true;
  R.NodeBudget = 123456789;
  R.DeadlineMillis = 2500;
  R.UseCache = false;
  return R;
}

} // namespace

TEST(Protocol, BuildRequestRoundTrip) {
  Request Original = makeBuildRequest(sampleBuildRequest());
  std::vector<std::uint8_t> Bytes = encodeRequest(Original);
  std::optional<Request> Back = decodeRequest(Bytes);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->V, Verb::Build);
  const BuildRequest &B = Back->Build;
  EXPECT_TRUE(Original.Build.Matrix.approxEquals(B.Matrix, 0.0));
  EXPECT_EQ(B.Matrix.name(0), "needs escaping?");
  EXPECT_EQ(B.Mode, CondenseMode::Average);
  EXPECT_EQ(B.ThreeThree, ThreeThreeMode::AllInsertions);
  EXPECT_EQ(B.MaxExactBlockSize, 9);
  EXPECT_TRUE(B.Polish);
  EXPECT_EQ(B.NodeBudget, 123456789u);
  EXPECT_EQ(B.DeadlineMillis, 2500u);
  EXPECT_FALSE(B.UseCache);
}

TEST(Protocol, GeneratorRequestRoundTrip) {
  BuildRequest G;
  G.Generator = GeneratorKind::Clustered;
  G.GenSpecies = 40;
  G.GenSeed = 77;
  std::optional<Request> Back = decodeRequest(encodeRequest(makeBuildRequest(G)));
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->Build.Generator, GeneratorKind::Clustered);
  EXPECT_EQ(Back->Build.GenSpecies, 40);
  EXPECT_EQ(Back->Build.GenSeed, 77u);
  EXPECT_EQ(Back->Build.Matrix.size(), 0);
}

TEST(Protocol, BuildResponseRoundTrip) {
  Response R;
  R.V = Verb::Build;
  R.Build.Newick = "((a:1,b:1):1,c:2);";
  R.Build.Cost = 42.25;
  R.Build.Exact = true;
  R.Build.CacheHit = true;
  R.Build.BlockCacheHits = 3;
  R.Build.Branched = 999;
  R.Build.QueueMillis = 0.5;
  R.Build.SolveMillis = 7.25;
  BlockSummary S;
  S.NumBlocks = 4;
  S.Cost = 10.5;
  S.Exact = false;
  S.FromCache = true;
  R.Build.Blocks = {S, S};
  std::optional<Response> Back = decodeResponse(encodeResponse(R));
  ASSERT_TRUE(Back.has_value());
  EXPECT_TRUE(Back->ok());
  EXPECT_EQ(Back->Build.Newick, R.Build.Newick);
  EXPECT_DOUBLE_EQ(Back->Build.Cost, 42.25);
  EXPECT_TRUE(Back->Build.Exact);
  EXPECT_TRUE(Back->Build.CacheHit);
  EXPECT_EQ(Back->Build.BlockCacheHits, 3u);
  EXPECT_EQ(Back->Build.Branched, 999u);
  ASSERT_EQ(Back->Build.Blocks.size(), 2u);
  EXPECT_EQ(Back->Build.Blocks[0].NumBlocks, 4);
  EXPECT_FALSE(Back->Build.Blocks[0].Exact);
  EXPECT_TRUE(Back->Build.Blocks[0].FromCache);
}

TEST(Protocol, ErrorResponseRoundTrip) {
  Response R = makeErrorResponse(Verb::Build, ServiceError::DeadlineExpired,
                                 "too slow");
  std::optional<Response> Back = decodeResponse(encodeResponse(R));
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->Error, ServiceError::DeadlineExpired);
  EXPECT_EQ(Back->Message, "too slow");
  EXPECT_FALSE(Back->ok());
}

TEST(Protocol, StatsRoundTrip) {
  Response R;
  R.V = Verb::Stats;
  R.Stats.Accepted = 10;
  R.Stats.WholeHits = 4;
  R.Stats.QueueDepth = 2;
  R.Stats.P95Millis = 12.5;
  std::optional<Response> Back = decodeResponse(encodeResponse(R));
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->Stats.Accepted, 10u);
  EXPECT_EQ(Back->Stats.WholeHits, 4u);
  EXPECT_EQ(Back->Stats.QueueDepth, 2u);
  EXPECT_DOUBLE_EQ(Back->Stats.P95Millis, 12.5);
}

TEST(Protocol, RejectsCorruptFrames) {
  EXPECT_FALSE(decodeRequest({}).has_value());
  EXPECT_FALSE(decodeRequest({99}).has_value());      // unknown verb
  EXPECT_FALSE(decodeResponse({}).has_value());
  EXPECT_FALSE(decodeResponse({0xff}).has_value());

  // Every strict prefix of a valid encoding must fail, and so must
  // trailing garbage — decoders consume exactly the payload.
  std::vector<std::uint8_t> Bytes =
      encodeRequest(makeBuildRequest(sampleBuildRequest()));
  for (std::size_t Len = 0; Len < Bytes.size(); ++Len) {
    std::vector<std::uint8_t> Prefix(Bytes.begin(), Bytes.begin() + Len);
    EXPECT_FALSE(decodeRequest(Prefix).has_value()) << "prefix " << Len;
  }
  std::vector<std::uint8_t> Padded = Bytes;
  Padded.push_back(0);
  EXPECT_FALSE(decodeRequest(Padded).has_value());
}

TEST(Protocol, RejectsOversizedMatrixHeader) {
  // A forged species count beyond the protocol cap must be rejected
  // before any n^2 allocation happens.
  BuildRequest R;
  R.Matrix = DistanceMatrix(2);
  std::vector<std::uint8_t> Bytes = encodeRequest(makeBuildRequest(R));
  // Layout: verb u8, version u32, generator u8, then the i32 species
  // count of the inline matrix.
  std::size_t CountOffset = 1 + 4 + 1;
  std::uint32_t Huge = 1u << 30;
  for (int I = 0; I < 4; ++I)
    Bytes[CountOffset + I] = static_cast<std::uint8_t>(Huge >> (8 * I));
  EXPECT_FALSE(decodeRequest(Bytes).has_value());
}

TEST(Protocol, RejectsNegativeAndNanDistances) {
  // DistanceMatrix itself refuses such values (asserts in debug), so
  // forge them on the wire: overwrite the single f64 distance of a
  // 2-species request. It sits right before the 26 trailing bytes of
  // knob fields (mode u8, 3-3 u8, cap i32, polish u8, budget u64,
  // deadline u32, cache u8, incremental u8, priority u8, empty tenant
  // u32 length).
  DistanceMatrix M(2);
  M.set(0, 1, 3.0);
  BuildRequest R;
  R.Matrix = M;
  std::vector<std::uint8_t> Good = encodeRequest(makeBuildRequest(R));
  ASSERT_TRUE(decodeRequest(Good).has_value());

  auto withDistance = [&](double Value) {
    std::vector<std::uint8_t> Forged = Good;
    std::uint64_t Bits = 0;
    std::memcpy(&Bits, &Value, sizeof(Bits));
    std::size_t Offset = Forged.size() - 26 - 8;
    for (int I = 0; I < 8; ++I)
      Forged[Offset + static_cast<std::size_t>(I)] =
          static_cast<std::uint8_t>(Bits >> (8 * I));
    return Forged;
  };
  ASSERT_TRUE(decodeRequest(withDistance(3.0)).has_value()); // offset sane
  EXPECT_FALSE(decodeRequest(withDistance(-1.0)).has_value());
  EXPECT_FALSE(
      decodeRequest(withDistance(std::numeric_limits<double>::quiet_NaN()))
          .has_value());
}

//===----------------------------------------------------------------------===//
// Latency histogram
//===----------------------------------------------------------------------===//

TEST(LatencyHistogram, PercentilesAreOrderedAndInRange) {
  LatencyHistogram H;
  EXPECT_DOUBLE_EQ(H.snapshotMillis().P50, 0.0);
  for (int I = 0; I < 95; ++I)
    H.record(1.0);
  for (int I = 0; I < 5; ++I)
    H.record(200.0);
  obs::HistogramSnapshot S = H.snapshotMillis();
  EXPECT_EQ(S.Count, 100u);
  EXPECT_GT(S.P50, 0.2);
  EXPECT_LT(S.P50, 3.0); // power-of-two buckets: within ~2x of 1ms
  EXPECT_LE(S.P50, S.P95);
  EXPECT_GT(S.P99, 100.0);
  EXPECT_LT(S.P99, 500.0);
  EXPECT_GT(S.Max, 100.0);
}

//===----------------------------------------------------------------------===//
// Loopback service
//===----------------------------------------------------------------------===//

TEST(TreeService, ConcurrentClientsMatchDirectPipeline) {
  // Direct single-threaded reference results for three matrices.
  std::vector<DistanceMatrix> Matrices;
  std::vector<std::string> WantNewick;
  std::vector<double> WantCost;
  for (std::uint64_t Seed = 1; Seed <= 3; ++Seed) {
    DistanceMatrix M = uniformRandomMetric(10 + 2 * static_cast<int>(Seed),
                                           Seed);
    PipelineResult Direct = buildCompactSetTree(M, defaultPipelineOptions());
    Matrices.push_back(std::move(M));
    WantNewick.push_back(toNewick(Direct.Tree));
    WantCost.push_back(Direct.Cost);
  }

  ServiceOptions Options;
  Options.NumWorkers = 4;
  TreeService Service(Options);
  StatsSnapshot Before = Service.stats();

  // 4 client threads, each submitting every matrix several times in a
  // different order: exercises queue, workers and cache concurrently.
  constexpr int NumClients = 4;
  constexpr int Rounds = 3;
  std::vector<std::thread> Clients;
  std::vector<std::string> Failures[NumClients];
  for (int C = 0; C < NumClients; ++C) {
    Clients.emplace_back([&, C] {
      for (int Round = 0; Round < Rounds; ++Round) {
        for (std::size_t K = 0; K < Matrices.size(); ++K) {
          std::size_t Pick = (K + static_cast<std::size_t>(C)) %
                             Matrices.size();
          BuildRequest R;
          R.Matrix = Matrices[Pick];
          BuildResponse Resp = Service.submit(std::move(R));
          if (!Resp.ok())
            Failures[C].push_back(Resp.Message);
          else if (Resp.Newick != WantNewick[Pick] ||
                   std::abs(Resp.Cost - WantCost[Pick]) > 1e-9)
            Failures[C].push_back("mismatch on matrix " +
                                  std::to_string(Pick));
        }
      }
    });
  }
  for (std::thread &T : Clients)
    T.join();
  for (int C = 0; C < NumClients; ++C)
    EXPECT_TRUE(Failures[C].empty())
        << "client " << C << ": " << Failures[C].front();

  StatsSnapshot S = countsBetween(Before, Service.stats());
  EXPECT_EQ(S.Accepted, static_cast<std::uint64_t>(NumClients) * Rounds * 3);
  EXPECT_EQ(S.Completed, S.Accepted);
  EXPECT_EQ(S.Failed, 0u);
  // 12 submissions per matrix and only the first can miss everywhere;
  // some overlap is guaranteed to hit one of the two cache layers.
  EXPECT_GT(S.WholeHits + S.BlockHits, 0u);
}

TEST(TreeService, RelabeledDuplicateHitsWholeCache) {
  DistanceMatrix M = uniformRandomMetric(12, 42);
  ServiceOptions Options;
  Options.NumWorkers = 2;
  TreeService Service(Options);
  StatsSnapshot Before = Service.stats();

  BuildRequest First;
  First.Matrix = M;
  BuildResponse R1 = Service.submit(std::move(First));
  ASSERT_TRUE(R1.ok()) << R1.Message;
  ASSERT_TRUE(R1.Exact); // only exact results are cached
  EXPECT_FALSE(R1.CacheHit);

  // The same metric under a different labeling: must be answered from
  // the whole-matrix cache without running a solver.
  std::vector<int> Perm(12);
  std::iota(Perm.begin(), Perm.end(), 0);
  std::reverse(Perm.begin(), Perm.end());
  BuildRequest Second;
  Second.Matrix = M.permuted(Perm);
  for (int I = 0; I < 12; ++I)
    Second.Matrix.setName(I, "relabeled_" + std::to_string(I));
  BuildResponse R2 = Service.submit(std::move(Second));
  ASSERT_TRUE(R2.ok()) << R2.Message;
  EXPECT_TRUE(R2.CacheHit);
  EXPECT_NEAR(R2.Cost, R1.Cost, 1e-9);
  EXPECT_NE(R2.Newick.find("relabeled_3"), std::string::npos);

  std::optional<PhyloTree> Replayed = parseNewick(R2.Newick);
  ASSERT_TRUE(Replayed.has_value());
  EXPECT_EQ(Replayed->numLeaves(), 12);

  StatsSnapshot S = countsBetween(Before, Service.stats());
  EXPECT_EQ(S.WholeHits, 1u);
  EXPECT_EQ(S.WholeMisses, 1u);
}

TEST(TreeService, CacheOptOutSolvesFresh) {
  DistanceMatrix M = uniformRandomMetric(10, 4);
  TreeService Service;
  BuildRequest First;
  First.Matrix = M;
  BuildResponse R1 = Service.submit(std::move(First));
  ASSERT_TRUE(R1.ok());
  BuildRequest Second;
  Second.Matrix = M;
  Second.UseCache = false;
  BuildResponse R2 = Service.submit(std::move(Second));
  ASSERT_TRUE(R2.ok());
  EXPECT_FALSE(R2.CacheHit);
  EXPECT_EQ(R2.BlockCacheHits, 0u);
  EXPECT_EQ(R2.Newick, R1.Newick); // still deterministic
}

TEST(TreeService, KnobsArePartOfTheCacheKey) {
  DistanceMatrix M = uniformRandomMetric(12, 8);
  TreeService Service;
  BuildRequest MaxMode;
  MaxMode.Matrix = M;
  BuildResponse R1 = Service.submit(std::move(MaxMode));
  ASSERT_TRUE(R1.ok());

  BuildRequest AvgMode;
  AvgMode.Matrix = M;
  AvgMode.Mode = CondenseMode::Average;
  BuildResponse R2 = Service.submit(std::move(AvgMode));
  ASSERT_TRUE(R2.ok());
  // A different condense mode must not be answered from the Maximum
  // entry (costs may or may not differ; the hit flag must not lie).
  EXPECT_FALSE(R2.CacheHit);
}

TEST(TreeService, RejectsBadAndOversizedRequests) {
  ServiceOptions Options;
  Options.MaxSpecies = 32;
  TreeService Service(Options);

  BuildRequest Empty; // neither matrix nor generator
  EXPECT_EQ(Service.submit(std::move(Empty)).Error, ServiceError::BadMatrix);

  BuildRequest TooBig;
  TooBig.Generator = GeneratorKind::Uniform;
  TooBig.GenSpecies = 100;
  EXPECT_EQ(Service.submit(std::move(TooBig)).Error,
            ServiceError::BadRequest);

  BuildRequest Inline;
  Inline.Matrix = uniformRandomMetric(33, 1);
  EXPECT_EQ(Service.submit(std::move(Inline)).Error, ServiceError::TooLarge);

  BuildRequest Single;
  Single.Matrix = DistanceMatrix(1);
  BuildResponse R = Service.submit(std::move(Single));
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.Exact);
  EXPECT_EQ(R.Cost, 0.0);
}

TEST(TreeService, DeadlineExpiredIsAStructuredError) {
  // One worker, and a blocker in front that branches a large (but
  // budget-bounded) number of B&B nodes: by the time the worker reaches
  // the second job its 1ms deadline has long expired, which must yield
  // a structured error, not a stall or a silent heuristic answer.
  ServiceOptions Options;
  Options.NumWorkers = 1;
  TreeService Service(Options);
  StatsSnapshot Before = Service.stats();

  BuildRequest Blocker;
  Blocker.Matrix = narrowBandMatrix(20, 3);
  Blocker.MaxExactBlockSize = 20;
  Blocker.NodeBudget = 400'000;
  Blocker.UseCache = false;
  std::future<BuildResponse> BlockerDone =
      Service.submitAsync(std::move(Blocker));

  // The queue is deadline-ordered, so a short-deadline job submitted
  // while the blocker is still *queued* would be popped first and solved
  // in time. Wait until the worker has dequeued the blocker — only then
  // does the doomed request actually sit behind a busy worker.
  while (Service.queueDepth() > 0)
    std::this_thread::yield();

  BuildRequest Doomed;
  Doomed.Matrix = uniformRandomMetric(8, 1);
  Doomed.DeadlineMillis = 1;
  std::future<BuildResponse> DoomedDone =
      Service.submitAsync(std::move(Doomed));

  BuildResponse BlockerResp = BlockerDone.get();
  EXPECT_TRUE(BlockerResp.ok()) << BlockerResp.Message;
  BuildResponse DoomedResp = DoomedDone.get();
  EXPECT_EQ(DoomedResp.Error, ServiceError::DeadlineExpired);
  EXPECT_FALSE(DoomedResp.Message.empty());
  EXPECT_GE(countsBetween(Before, Service.stats()).DeadlineExpired, 1u);
}

TEST(TreeService, DeadlineCapsNodeBudget) {
  // A request with both a node budget and a deadline gets the tighter
  // of the two: the solver must never branch past its explicit budget.
  TreeService Service;
  BuildRequest R;
  R.Matrix = narrowBandMatrix(14, 9);
  R.MaxExactBlockSize = 14;
  R.NodeBudget = 1000;
  R.DeadlineMillis = 60'000;
  BuildResponse Resp = Service.submit(std::move(R));
  ASSERT_TRUE(Resp.ok()) << Resp.Message;
  EXPECT_LE(Resp.Branched, 1000u + 14);
}

TEST(TreeService, CleanShutdownWithJobsInFlight) {
  ServiceOptions Options;
  Options.NumWorkers = 1;
  TreeService Service(Options);

  std::vector<std::future<BuildResponse>> Futures;
  for (int I = 0; I < 6; ++I) {
    BuildRequest R;
    R.Matrix = narrowBandMatrix(14, static_cast<std::uint64_t>(I));
    R.MaxExactBlockSize = 14;
    R.NodeBudget = 50'000;
    Futures.push_back(Service.submitAsync(std::move(R)));
  }
  Service.stop();

  // Every admitted job must be answered: solved if a worker got to it,
  // failed with ShuttingDown otherwise — never a broken promise.
  int Solved = 0, Failed = 0;
  for (std::future<BuildResponse> &F : Futures) {
    BuildResponse R = F.get();
    if (R.ok())
      ++Solved;
    else {
      EXPECT_EQ(R.Error, ServiceError::ShuttingDown);
      ++Failed;
    }
  }
  EXPECT_EQ(Solved + Failed, 6);

  // Post-shutdown submissions are refused, not queued forever.
  BuildRequest Late;
  Late.Matrix = uniformRandomMetric(6, 1);
  EXPECT_EQ(Service.submit(std::move(Late)).Error,
            ServiceError::ShuttingDown);
  Service.stop(); // idempotent
}

TEST(TreeService, HandleDispatchesProtocolVerbs) {
  TreeService Service;
  StatsSnapshot Before = Service.stats();
  Request Ping;
  Ping.V = Verb::Ping;
  EXPECT_TRUE(Service.handle(Ping).ok());

  Request Build = makeBuildRequest([] {
    BuildRequest R;
    R.Generator = GeneratorKind::Ultrametric;
    R.GenSpecies = 9;
    R.GenSeed = 5;
    return R;
  }());
  Response BuildResp = Service.handle(Build);
  ASSERT_TRUE(BuildResp.ok()) << BuildResp.Message;
  std::optional<PhyloTree> Tree = parseNewick(BuildResp.Build.Newick);
  ASSERT_TRUE(Tree.has_value());
  EXPECT_EQ(Tree->numLeaves(), 9);

  Request Stats;
  Stats.V = Verb::Stats;
  Response StatsResp = Service.handle(Stats);
  ASSERT_TRUE(StatsResp.ok());
  EXPECT_EQ(countsBetween(Before, StatsResp.Stats).Accepted, 1u);
}

// `stats()` reads every count from the registry counter of the same
// event. Over one run that produces each kind of event, the snapshot's
// deltas equal the registry's, and the `"service"` object of
// `statsJson()` carries the snapshot's numbers.
TEST(ServiceStats, SnapshotMatchesRegistry) {
  obs::ServiceInstruments &Svc = obs::serviceInstruments();
  obs::BlockCacheInstruments &Block = obs::blockCacheInstruments();
  obs::IncrementalInstruments &Inc = obs::incrementalInstruments();
  obs::QosInstruments &Qos = obs::qosInstruments();
  struct Field {
    const char *JsonKey;
    std::uint64_t StatsSnapshot::*Count;
    const obs::Counter &Registry;
  };
  const Field Fields[] = {
      {"accepted", &StatsSnapshot::Accepted, Svc.Submitted},
      {"completed", &StatsSnapshot::Completed, Svc.Completed},
      {"failed", &StatsSnapshot::Failed, Svc.Failed},
      {"whole_hits", &StatsSnapshot::WholeHits, Svc.WholeHits},
      {"whole_misses", &StatsSnapshot::WholeMisses, Svc.WholeMisses},
      {"block_hits", &StatsSnapshot::BlockHits, Block.Hits},
      {"block_misses", &StatsSnapshot::BlockMisses, Block.Misses},
      {"block_remote_hits", &StatsSnapshot::BlockRemoteHits,
       Block.RemoteHits},
      {"incremental_applied", &StatsSnapshot::IncrementalApplied,
       Inc.Applied},
      {"incremental_dirty", &StatsSnapshot::IncrementalDirty,
       Inc.DirtyBlocks},
      {"incremental_clean", &StatsSnapshot::IncrementalClean,
       Inc.CleanBlocks},
      {"deadline_expired", &StatsSnapshot::DeadlineExpired,
       Svc.DeadlineExpired},
      {"rejected", &StatsSnapshot::Rejected, Svc.Rejected},
      {"shed", &StatsSnapshot::Shed, Qos.Shed},
      {"rate_limited", &StatsSnapshot::RateLimited, Qos.RateLimited},
      {"tier_exact", &StatsSnapshot::TierExact, Qos.TierExact},
      {"tier_pipeline", &StatsSnapshot::TierPipeline, Qos.TierPipeline},
      {"tier_heuristic", &StatsSnapshot::TierHeuristic, Qos.TierHeuristic},
      {"coalesced", &StatsSnapshot::Coalesced, Qos.Coalesced}};
  auto registryCounts = [&] {
    std::vector<std::uint64_t> Out;
    for (const Field &F : Fields)
      Out.push_back(F.Registry.value());
    return Out;
  };

  ServiceOptions Options;
  Options.NumWorkers = 1;
  Options.QueueCapacity = 2;
  Options.BlockOnFullQueue = false;
  Options.Incremental = true;
  Options.Qos.Enabled = true;
  // Every request gets a tenant of its own, so only the deliberate
  // repeat below drains a one-token bucket.
  Options.Qos.TenantRatePerSec = 1e-6;
  Options.Qos.TenantBurst = 1.0;
  TreeService Service(Options);
  std::vector<std::uint64_t> RegistryBefore = registryCounts();
  StatsSnapshot Before = Service.stats();

  int NextTenant = 0;
  auto request = [&](DistanceMatrix M) {
    BuildRequest R;
    R.Matrix = std::move(M);
    R.Tenant = "tenant" + std::to_string(NextTenant++);
    return R;
  };

  // Shed first, while the cost model still has its default calibration:
  // not even one agglomerative pass over 96 taxa fits 1 ms.
  BuildRequest Hopeless;
  Hopeless.Generator = GeneratorKind::Uniform;
  Hopeless.GenSpecies = 96;
  Hopeless.DeadlineMillis = 1;
  EXPECT_EQ(Service.submit(std::move(Hopeless)).Error, ServiceError::Shed);

  DistanceMatrix Base = plantedClusterMetric(16, 3);
  BuildRequest First = request(Base);
  First.Tenant = "chatty";
  BuildResponse Cold = Service.submit(std::move(First));
  ASSERT_TRUE(Cold.ok()) << Cold.Message;
  ASSERT_TRUE(Cold.Exact);
  // Events of different kinds happen different numbers of times, so a
  // field reading the wrong counter shows up as a wrong number.
  for (std::uint64_t Seed = 5; Seed < 7; ++Seed) {
    BuildRequest Drained = request(uniformRandomMetric(8, Seed));
    Drained.Tenant = "chatty";
    EXPECT_EQ(Service.submit(std::move(Drained)).Error,
              ServiceError::RateLimited);
  }
  for (int I = 0; I < 3; ++I)
    EXPECT_TRUE(Service.submit(request(Base)).CacheHit);

  DistanceMatrix Perturbed = Base;
  Perturbed.set(0, 1, Base.at(0, 1) * 1.2);
  BuildRequest Incremental = request(Perturbed);
  Incremental.Incremental = true;
  BuildResponse Reused = Service.submit(std::move(Incremental));
  ASSERT_TRUE(Reused.ok()) << Reused.Message;
  EXPECT_TRUE(Reused.IncrementalApplied);
  EXPECT_GE(Reused.DirtyBlocks, 1u);
  EXPECT_GE(Reused.BlockCacheHits, 1u);

  // Pin the single worker, then queue behind it: a coalesced pair, a job
  // whose deadline lapses while it waits, and one job too many.
  BuildRequest Blocker = request(narrowBandMatrix(20, 3));
  Blocker.MaxExactBlockSize = 20;
  Blocker.NodeBudget = 400'000;
  Blocker.UseCache = false;
  std::future<BuildResponse> BlockerDone =
      Service.submitAsync(std::move(Blocker));
  while (Service.queueDepth() > 0)
    std::this_thread::yield();
  DistanceMatrix Shared = uniformRandomMetric(10, 21);
  std::future<BuildResponse> Leader = Service.submitAsync(request(Shared));
  std::future<BuildResponse> Follower = Service.submitAsync(request(Shared));
  BuildRequest Doomed = request(uniformRandomMetric(3, 2));
  Doomed.DeadlineMillis = 10;
  std::future<BuildResponse> DoomedDone =
      Service.submitAsync(std::move(Doomed));
  EXPECT_EQ(Service.submit(request(uniformRandomMetric(8, 9))).Error,
            ServiceError::QueueFull);
  BuildResponse BlockerResp = BlockerDone.get();
  EXPECT_TRUE(BlockerResp.ok()) << BlockerResp.Message;
  EXPECT_TRUE(Leader.get().ok());
  EXPECT_TRUE(Follower.get().Coalesced);
  EXPECT_EQ(DoomedDone.get().Error, ServiceError::DeadlineExpired)
      << "the blocker ran " << BlockerResp.SolveMillis << " ms";

  StatsSnapshot After = Service.stats();
  std::string Json = Service.statsJson();
  std::vector<std::uint64_t> RegistryAfter = registryCounts();

  StatsSnapshot Delta = countsBetween(Before, After);
  for (std::size_t I = 0; I < std::size(Fields); ++I)
    EXPECT_EQ(Delta.*Fields[I].Count, RegistryAfter[I] - RegistryBefore[I])
        << Fields[I].JsonKey;

  // What the sequence above did, event by event.
  EXPECT_EQ(Delta.Shed, 1u);
  EXPECT_EQ(Delta.RateLimited, 2u);
  EXPECT_EQ(Delta.Rejected, 4u) << "shed, 2 rate limited, queue full";
  EXPECT_EQ(Delta.WholeHits, 3u);
  EXPECT_GE(Delta.BlockHits, 1u);
  EXPECT_EQ(Delta.IncrementalApplied, 1u);
  EXPECT_EQ(Delta.IncrementalDirty, Reused.DirtyBlocks);
  EXPECT_EQ(Delta.IncrementalClean, Reused.CleanBlocks);
  EXPECT_EQ(Delta.Coalesced, 1u);
  EXPECT_EQ(Delta.DeadlineExpired, 1u);
  EXPECT_EQ(Delta.Accepted, 9u) << "the coalesced follower counts as accepted";
  EXPECT_EQ(Delta.Completed, 7u);
  EXPECT_EQ(Delta.Failed, 1u);

  std::string Section = Json.substr(0, Json.find('}'));
  for (const Field &F : Fields) {
    std::string Needle = std::string("\"") + F.JsonKey + "\":";
    std::size_t At = Section.find(Needle);
    ASSERT_NE(At, std::string::npos) << F.JsonKey;
    EXPECT_EQ(std::stoull(Section.substr(At + Needle.size())), After.*F.Count)
        << F.JsonKey;
  }
  Service.stop();
}

//===----------------------------------------------------------------------===//
// Socket transport
//===----------------------------------------------------------------------===//

TEST(SocketServer, UnixSocketEndToEnd) {
  ServiceOptions Options;
  Options.NumWorkers = 2;
  TreeService Service(Options);
  StatsSnapshot Before = Service.stats();
  SocketServer Server(Service);
  std::string Path = testing::TempDir() + "mutk_service_test.sock";
  std::string Error;
  ASSERT_TRUE(Server.listenUnix(Path, &Error)) << Error;
  Server.start();

  ServiceClient Client;
  ASSERT_TRUE(Client.connectUnix(Path, &Error)) << Error;
  EXPECT_TRUE(Client.ping(&Error)) << Error;

  BuildRequest R;
  R.Matrix = uniformRandomMetric(10, 6);
  std::optional<BuildResponse> Resp = Client.build(R, &Error);
  ASSERT_TRUE(Resp.has_value()) << Error;
  ASSERT_TRUE(Resp->ok()) << Resp->Message;
  PipelineResult Direct =
      buildCompactSetTree(R.Matrix, defaultPipelineOptions());
  EXPECT_EQ(Resp->Newick, toNewick(Direct.Tree));
  EXPECT_NEAR(Resp->Cost, Direct.Cost, 1e-9);

  std::optional<StatsSnapshot> S = Client.stats(&Error);
  ASSERT_TRUE(S.has_value()) << Error;
  EXPECT_GE(countsBetween(Before, *S).Accepted, 1u);

  EXPECT_TRUE(Client.shutdownServer(&Error)) << Error;
  Server.waitForShutdown();
  Server.stop();
  Service.stop();
}

// Regression: a failed Build echoes the Build verb with no body; the
// client must surface the outer error code instead of returning a
// default-constructed (silently successful) BuildResponse.
TEST(SocketServer, BuildErrorsCrossTheWire) {
  TreeService Service;
  SocketServer Server(Service);
  std::string Path = testing::TempDir() + "mutk_service_err.sock";
  std::string Error;
  ASSERT_TRUE(Server.listenUnix(Path, &Error)) << Error;
  Server.start();

  ServiceClient Client;
  ASSERT_TRUE(Client.connectUnix(Path, &Error)) << Error;

  BuildRequest R;
  R.Generator = GeneratorKind::Uniform;
  R.GenSpecies = 1 << 20;
  std::optional<BuildResponse> Resp = Client.build(R, &Error);
  ASSERT_TRUE(Resp.has_value()) << Error;
  EXPECT_EQ(Resp->Error, ServiceError::BadRequest);
  EXPECT_FALSE(Resp->Message.empty());

  Server.stop();
  Service.stop();
}

TEST(SocketServer, TcpEphemeralPortEndToEnd) {
  TreeService Service;
  SocketServer Server(Service);
  std::string Error;
  ASSERT_TRUE(Server.listenTcp("127.0.0.1", 0, &Error)) << Error;
  ASSERT_GT(Server.port(), 0);
  Server.start();

  ServiceClient Client;
  ASSERT_TRUE(Client.connectTcp("127.0.0.1", Server.port(), &Error)) << Error;
  EXPECT_TRUE(Client.ping(&Error)) << Error;
  BuildRequest R;
  R.Generator = GeneratorKind::Uniform;
  R.GenSpecies = 8;
  R.GenSeed = 2;
  std::optional<BuildResponse> Resp = Client.build(R, &Error);
  ASSERT_TRUE(Resp.has_value()) << Error;
  EXPECT_TRUE(Resp->ok()) << Resp->Message;
  Client.disconnect();
  Server.stop();
  Service.stop();
}

TEST(SocketServer, AnswersGarbageWithBadFrame) {
  TreeService Service;
  SocketServer Server(Service);
  std::string Path = testing::TempDir() + "mutk_badframe_test.sock";
  std::string Error;
  ASSERT_TRUE(Server.listenUnix(Path, &Error)) << Error;
  Server.start();

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s", Path.c_str());
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
            0);
  // A well-framed payload that does not decode as any request.
  ASSERT_TRUE(writeFrame(Fd, {0xde, 0xad, 0xbe, 0xef}));
  std::vector<std::uint8_t> Payload;
  ASSERT_EQ(readFrame(Fd, Payload), FrameError::None);
  std::optional<Response> Resp = decodeResponse(Payload);
  ASSERT_TRUE(Resp.has_value());
  EXPECT_EQ(Resp->Error, ServiceError::BadFrame);
  ::close(Fd);

  Server.stop();
  Service.stop();
}

TEST(SocketServer, StopWithConnectedClientDoesNotHang) {
  TreeService Service;
  SocketServer Server(Service);
  std::string Path = testing::TempDir() + "mutk_stop_test.sock";
  ASSERT_TRUE(Server.listenUnix(Path));
  Server.start();
  ServiceClient Client;
  ASSERT_TRUE(Client.connectUnix(Path));
  ASSERT_TRUE(Client.ping());
  // Client stays connected and idle; stop() must shut the connection
  // down rather than wait for the client to hang up.
  Server.stop();
  Service.stop();
  EXPECT_FALSE(Client.ping());
}

// Regression: the frame writer sent the header and the payload in two
// sends and TCP connections had Nagle on, so delayed ACK held every
// request on a persistent TCP connection (p50 ~88 ms against ~0.01 ms
// over a Unix socket). One send per frame plus TCP_NODELAY on both ends
// keeps TCP on par.
TEST(SocketServer, TcpRequestsDoNotStall) {
  TreeService Service;
  SocketServer Server(Service);
  std::string Error;
  ASSERT_TRUE(Server.listenTcp("127.0.0.1", 0, &Error)) << Error;
  Server.start();
  ServiceClient Client;
  ASSERT_TRUE(Client.connectTcp("127.0.0.1", Server.port(), &Error)) << Error;

  BuildRequest R;
  R.Matrix = uniformRandomMetric(10, 6);
  std::optional<BuildResponse> Cold = Client.build(R, &Error);
  ASSERT_TRUE(Cold && Cold->ok()) << Error;

  std::vector<double> Millis;
  for (int I = 0; I < 200; ++I) {
    auto Start = std::chrono::steady_clock::now();
    if (I == 100) {
      std::optional<BuildResponse> Warm = Client.build(R, &Error);
      ASSERT_TRUE(Warm && Warm->ok()) << Error;
      EXPECT_TRUE(Warm->CacheHit);
    } else {
      ASSERT_TRUE(Client.ping(&Error)) << Error;
    }
    Millis.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - Start)
                         .count());
  }
  std::nth_element(Millis.begin(), Millis.begin() + 100, Millis.end());
  EXPECT_LT(Millis[100], 2.0) << "median TCP round trip in ms";
  Server.stop();
  Service.stop();
}

// A peer that claims the largest legal frame, sends 10 bytes and hangs
// up must cost a buffer in proportion to what it sent, not 64 MiB.
TEST(Transport, PayloadGrowsAsBytesArrive) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  std::uint8_t Header[4];
  for (int I = 0; I < 4; ++I)
    Header[I] = static_cast<std::uint8_t>(MaxFrameBytes >> (8 * I));
  ASSERT_TRUE(writeAllBytes(Fds[1], Header, sizeof(Header)));
  std::uint8_t Partial[10] = {};
  ASSERT_TRUE(writeAllBytes(Fds[1], Partial, sizeof(Partial)));
  ::close(Fds[1]);
  std::vector<std::uint8_t> Payload;
  EXPECT_EQ(readFrame(Fds[0], Payload), FrameError::Truncated);
  EXPECT_LE(Payload.capacity(), std::size_t{1} << 20);
  ::close(Fds[0]);
}

TEST(Transport, FrameRoundTripsAcrossGrowthSteps) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  // Larger than the socket buffer and several growth steps long, so the
  // writer takes partial sends and the reader grows more than once.
  std::vector<std::uint8_t> Sent(3u << 20);
  for (std::size_t I = 0; I < Sent.size(); ++I)
    Sent[I] = static_cast<std::uint8_t>(I * 131u);
  std::thread Writer([&] { EXPECT_TRUE(writeFrame(Fds[1], Sent)); });
  std::vector<std::uint8_t> Got;
  EXPECT_EQ(readFrame(Fds[0], Got), FrameError::None);
  Writer.join();
  EXPECT_EQ(Got, Sent);
  ASSERT_TRUE(writeFrame(Fds[1], {}));
  EXPECT_EQ(readFrame(Fds[0], Got), FrameError::None);
  EXPECT_TRUE(Got.empty());
  ::close(Fds[1]);
  EXPECT_EQ(readFrame(Fds[0], Got), FrameError::Eof);
  ::close(Fds[0]);
}

// Running out of fds must pause the acceptor, not end it: once fds are
// free again, the connection that waited in the backlog is served.
TEST(Transport, AcceptorSurvivesFdExhaustion) {
  std::string Error;
  int Port = -1;
  int Listener = listenTcp("127.0.0.1", 0, &Port, &Error);
  ASSERT_GE(Listener, 0) << Error;
  ConnectionAcceptor Acceptor("test");
  Acceptor.start(Listener, [](int Fd) {
    std::vector<std::uint8_t> Frame;
    while (readFrame(Fd, Frame) == FrameError::None && writeFrame(Fd, Frame))
      continue;
  });

  // The client socket exists before the limit drops to the lowest free
  // fd number, so only the acceptor runs out.
  int Client = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(Client, 0);
  ASSERT_TRUE(setRecvTimeout(Client, 5.0));
  int Lowest = ::dup(0);
  ASSERT_GE(Lowest, 0);
  ::close(Lowest);
  rlimit Saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &Saved), 0);
  rlimit Tight = Saved;
  Tight.rlim_cur = static_cast<rlim_t>(Lowest);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &Tight), 0);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<std::uint16_t>(Port));
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int Connected =
      ::connect(Client, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &Saved), 0);
  ASSERT_EQ(Connected, 0) << std::strerror(errno);

  std::vector<std::uint8_t> Echo = {1, 2, 3};
  ASSERT_TRUE(writeFrame(Client, Echo));
  std::vector<std::uint8_t> Got;
  EXPECT_EQ(readFrame(Client, Got), FrameError::None);
  EXPECT_EQ(Got, Echo);
  ::close(Client);
  Acceptor.stop();
}

TEST(ClientBackoff, DoublesAndSaturatesAtCap) {
  EXPECT_EQ(nextBackoffMillis(100, 5000), 200);
  EXPECT_EQ(nextBackoffMillis(200, 5000), 400);
  EXPECT_EQ(nextBackoffMillis(2499, 5000), 4998);
  // At or past half the cap, doubling would overshoot: saturate.
  EXPECT_EQ(nextBackoffMillis(2500, 5000), 5000);
  EXPECT_EQ(nextBackoffMillis(5000, 5000), 5000);
  EXPECT_EQ(nextBackoffMillis(9999, 5000), 5000);
}

TEST(ClientBackoff, NeverOverflows) {
  // A huge current delay (e.g. user-supplied --backoff-ms near LONG_MAX)
  // must clamp to the cap, not wrap to a negative sleep. The naive
  // `min(Current * 2, Cap)` is undefined behavior here.
  constexpr long Cap = 5000;
  EXPECT_EQ(nextBackoffMillis(std::numeric_limits<long>::max(), Cap), Cap);
  EXPECT_EQ(nextBackoffMillis(std::numeric_limits<long>::max() / 2, Cap), Cap);
  // Degenerate inputs stay positive.
  EXPECT_EQ(nextBackoffMillis(0, 5000), 1);
  EXPECT_GT(nextBackoffMillis(1, 5000), 0);
}
