//===- tests/incremental_test.cpp - Block cache + incremental re-solve ----===//
//
// Covers the cross-request block cache tier and incremental re-solve
// mode end to end: the name-keyed matrix diff, the solved-base index,
// block reuse between different whole-matrix requests (byte-identical
// trees warm vs cold), perturbation requests re-solving exactly the
// dirty blocks, and restart recovery of block-namespace entries through
// the durable cache store.
//
// The workloads are "module compositions": small matrices placed
// block-diagonally at a cross distance far above any module's diameter,
// so every module is a compact set whose condensed matrix — and
// therefore its relabel-invariant fingerprint — depends only on the
// module, not on the composition it appears in (docs/caching.md).
//
//===----------------------------------------------------------------------===//

#include "matrix/Fingerprint.h"
#include "matrix/Generators.h"
#include "matrix/MatrixDiff.h"
#include "service/IncrementalIndex.h"
#include "service/Service.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

using namespace mutk;

namespace {

constexpr double ModuleDiameter = 20.0;
constexpr double ModuleSeparation = 80.0;

/// A module with no internal compact sets: near-equidistant distances in
/// [0.9, 1.0] * ModuleDiameter, so condensation cannot split it and the
/// whole module condenses to a single block.
DistanceMatrix hardModule(int Size, std::uint64_t Seed) {
  return scaledToMax(
      uniformRandomMetric(Size, Seed, 0.9 * ModuleDiameter, ModuleDiameter),
      ModuleDiameter);
}

/// Block-diagonal composition of (Size, Seed) hard modules at cross
/// distance ModuleSeparation; each module is a compact set of the
/// result.
DistanceMatrix compose(const std::vector<std::pair<int, std::uint64_t>> &Specs) {
  int Total = 0;
  for (const auto &Spec : Specs)
    Total += Spec.first;
  DistanceMatrix Out(Total);
  for (int I = 0; I < Total; ++I)
    for (int J = I + 1; J < Total; ++J)
      Out.set(I, J, ModuleSeparation);
  int Offset = 0;
  for (const auto &Spec : Specs) {
    DistanceMatrix Module = hardModule(Spec.first, Spec.second);
    for (int I = 0; I < Module.size(); ++I)
      for (int J = I + 1; J < Module.size(); ++J)
        Out.set(Offset + I, Offset + J, Module.at(I, J));
    Offset += Spec.first;
  }
  return Out;
}

BuildResponse solveOn(TreeService &Service, const DistanceMatrix &M,
                      bool Incremental = false) {
  BuildRequest Request;
  Request.Matrix = M;
  Request.Incremental = Incremental;
  BuildResponse Resp = Service.submit(std::move(Request));
  EXPECT_TRUE(Resp.ok()) << Resp.Message;
  return Resp;
}

/// A fresh, empty scratch directory per call, removed on destruction.
class ScratchDir {
public:
  explicit ScratchDir(const std::string &Tag) {
    static int Counter = 0;
    Path = testing::TempDir() + "mutk_incr_" + Tag + "_" +
           std::to_string(::getpid()) + "_" + std::to_string(Counter++);
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~ScratchDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

//===----------------------------------------------------------------------===//
// MatrixDiff: the detection half of incremental mode
//===----------------------------------------------------------------------===//

TEST(MatrixDiff, IdenticalMatricesHaveZeroDelta) {
  DistanceMatrix M = uniformRandomMetric(8, 7);
  MatrixDelta Delta = diffMatrices(M, M);
  EXPECT_TRUE(Delta.Comparable);
  EXPECT_EQ(Delta.CommonTaxa, 8);
  EXPECT_EQ(Delta.TaxaAdded, 0);
  EXPECT_EQ(Delta.TaxaRemoved, 0);
  EXPECT_EQ(Delta.EntriesChanged, 0);
  EXPECT_TRUE(Delta.DirtySpecies.empty());
}

TEST(MatrixDiff, ChangedEntryDirtiesBothEndpoints) {
  DistanceMatrix Base = uniformRandomMetric(8, 7);
  DistanceMatrix M = Base;
  M.set(2, 5, Base.at(2, 5) * 1.1);
  MatrixDelta Delta = diffMatrices(Base, M);
  EXPECT_TRUE(Delta.Comparable);
  EXPECT_EQ(Delta.EntriesChanged, 1);
  EXPECT_EQ(Delta.DirtySpecies, (std::vector<int>{2, 5}));
}

TEST(MatrixDiff, AddedTaxonIsDirtyRemovedIsCounted) {
  DistanceMatrix Base = uniformRandomMetric(6, 3);
  // Drop s0, append a fresh taxon at the end.
  DistanceMatrix M(6);
  for (int I = 0; I < 5; ++I)
    M.setName(I, Base.name(I + 1));
  M.setName(5, "fresh");
  for (int I = 0; I < 5; ++I)
    for (int J = I + 1; J < 5; ++J)
      M.set(I, J, Base.at(I + 1, J + 1));
  for (int I = 0; I < 5; ++I)
    M.set(I, 5, 42.0);
  MatrixDelta Delta = diffMatrices(Base, M);
  EXPECT_TRUE(Delta.Comparable);
  EXPECT_EQ(Delta.CommonTaxa, 5);
  EXPECT_EQ(Delta.TaxaAdded, 1);
  EXPECT_EQ(Delta.TaxaRemoved, 1);
  EXPECT_EQ(Delta.EntriesChanged, 0);
  EXPECT_EQ(Delta.DirtySpecies, (std::vector<int>{5}));
}

TEST(MatrixDiff, DisjointNamesAreNotComparable) {
  DistanceMatrix A = uniformRandomMetric(4, 1);
  DistanceMatrix B = uniformRandomMetric(4, 2);
  for (int I = 0; I < 4; ++I)
    B.setName(I, "other" + std::to_string(I));
  EXPECT_FALSE(diffMatrices(A, B).Comparable);
}

TEST(MatrixDiff, ToleranceAbsorbsSmallNoise) {
  DistanceMatrix Base = uniformRandomMetric(6, 9);
  DistanceMatrix M = Base;
  M.set(1, 3, Base.at(1, 3) + 1e-9);
  EXPECT_EQ(diffMatrices(Base, M).EntriesChanged, 1);
  EXPECT_EQ(diffMatrices(Base, M, 1e-6).EntriesChanged, 0);
}

//===----------------------------------------------------------------------===//
// IncrementalIndex: the remembered-base LRU
//===----------------------------------------------------------------------===//

TEST(IncrementalIndex, RemembersAndMatchesSmallestDelta) {
  IncrementalIndex Index(4);
  DistanceMatrix Near = uniformRandomMetric(8, 1);
  DistanceMatrix Far = uniformRandomMetric(8, 2);
  Index.remember(Far, canonicalForm(Far).Key);
  Index.remember(Near, canonicalForm(Near).Key);
  EXPECT_EQ(Index.size(), 2u);

  DistanceMatrix M = Near;
  M.set(0, 1, Near.at(0, 1) * 1.1);
  auto Match = Index.bestBase(M, 2, 8);
  ASSERT_TRUE(Match.has_value());
  EXPECT_EQ(Match->Delta.EntriesChanged, 1);
  EXPECT_EQ(Match->Delta.DirtySpecies, (std::vector<int>{0, 1}));
}

TEST(IncrementalIndex, DedupesByFingerprintAndEvictsLru) {
  IncrementalIndex Index(2);
  DistanceMatrix A = uniformRandomMetric(6, 1);
  DistanceMatrix B = uniformRandomMetric(6, 2);
  DistanceMatrix C = uniformRandomMetric(6, 3);
  Index.remember(A, canonicalForm(A).Key);
  Index.remember(A, canonicalForm(A).Key);
  EXPECT_EQ(Index.size(), 1u);
  Index.remember(B, canonicalForm(B).Key);
  Index.remember(C, canonicalForm(C).Key); // Evicts A.
  EXPECT_EQ(Index.size(), 2u);
  DistanceMatrix NearA = A;
  NearA.set(0, 1, A.at(0, 1) * 1.1);
  EXPECT_FALSE(Index.bestBase(NearA, 0, 8).has_value());
}

TEST(IncrementalIndex, ThresholdsRejectLargeDeltas) {
  IncrementalIndex Index(2);
  DistanceMatrix A = uniformRandomMetric(8, 5);
  Index.remember(A, canonicalForm(A).Key);
  DistanceMatrix M = A;
  M.set(0, 1, A.at(0, 1) * 1.1);
  M.set(2, 3, A.at(2, 3) * 1.1);
  EXPECT_TRUE(Index.bestBase(M, 2, 2).has_value());
  EXPECT_FALSE(Index.bestBase(M, 2, 1).has_value());
}

//===----------------------------------------------------------------------===//
// Cross-request block reuse
//===----------------------------------------------------------------------===//

TEST(BlockCache, SecondRequestReusesSharedModuleBlocks) {
  // X and Y are different whole matrices (different fingerprints) that
  // share module 1: solving Y after X must hit the block tier.
  DistanceMatrix X = compose({{5, 1}, {5, 2}});
  DistanceMatrix Y = compose({{5, 1}, {5, 3}});

  ServiceOptions Options;
  Options.NumWorkers = 1;
  TreeService Service(Options);
  StatsSnapshot Before = Service.stats();
  BuildResponse RespX = solveOn(Service, X);
  EXPECT_TRUE(RespX.Exact);
  EXPECT_EQ(RespX.BlockCacheHits, 0u);

  BuildResponse RespY = solveOn(Service, Y);
  EXPECT_FALSE(RespY.CacheHit);
  EXPECT_GE(RespY.BlockCacheHits, 1u);
  EXPECT_GE(RespY.CleanBlocks, 1u);

  StatsSnapshot S = countsBetween(Before, Service.stats());
  EXPECT_GE(S.BlockHits, 1u);
  EXPECT_GE(S.BlockMisses, 1u);
  Service.stop();

  // Block reuse must not change the answer: a cold service produces a
  // byte-identical tree for Y.
  ServiceOptions ColdOptions;
  ColdOptions.NumWorkers = 1;
  ColdOptions.CacheBytes = 0;
  TreeService Cold(ColdOptions);
  BuildResponse ColdY = solveOn(Cold, Y);
  EXPECT_EQ(ColdY.Newick, RespY.Newick);
  EXPECT_NEAR(ColdY.Cost, RespY.Cost, 1e-9);
  Cold.stop();
}

TEST(BlockCache, WholeMatrixReplayStaysByteIdentical) {
  DistanceMatrix M = compose({{5, 4}, {5, 5}});
  ServiceOptions Options;
  Options.NumWorkers = 1;
  TreeService Service(Options);
  BuildResponse First = solveOn(Service, M);
  BuildResponse Second = solveOn(Service, M);
  EXPECT_TRUE(Second.CacheHit);
  EXPECT_EQ(Second.Newick, First.Newick);
  EXPECT_NEAR(Second.Cost, First.Cost, 1e-12);
  Service.stop();
}

//===----------------------------------------------------------------------===//
// Incremental re-solve: only dirty blocks pay
//===----------------------------------------------------------------------===//

TEST(Incremental, PerturbedEntryResolvesOnlyTheDirtyModule) {
  // Four hard modules + the all-80 root block = 5 blocks. Stretching one
  // in-module distance dirties exactly that module's block; the other
  // three modules and the root condense byte-identically and replay.
  DistanceMatrix Base = compose({{5, 1}, {5, 2}, {5, 3}, {5, 4}});
  DistanceMatrix M = Base;
  M.set(0, 1, Base.at(0, 1) * 1.05);

  ServiceOptions Options;
  Options.NumWorkers = 1;
  Options.Incremental = true;
  TreeService Service(Options);
  StatsSnapshot Before = Service.stats();
  // The cold base solve runs every block; its dirty count is the total
  // block count of this decomposition.
  BuildResponse BaseResp = solveOn(Service, Base);
  std::uint32_t TotalBlocks = BaseResp.DirtyBlocks;
  EXPECT_EQ(BaseResp.CleanBlocks, 0u);
  EXPECT_GE(TotalBlocks, 5u);

  BuildResponse Resp = solveOn(Service, M, /*Incremental=*/true);
  EXPECT_FALSE(Resp.CacheHit);
  EXPECT_TRUE(Resp.IncrementalApplied);
  EXPECT_EQ(Resp.EntriesChanged, 1);
  EXPECT_EQ(Resp.TaxaAdded, 0);
  EXPECT_EQ(Resp.TaxaRemoved, 0);
  EXPECT_EQ(Resp.DirtyBlocks, 1u);
  EXPECT_EQ(Resp.CleanBlocks, TotalBlocks - 1);

  StatsSnapshot S = countsBetween(Before, Service.stats());
  EXPECT_EQ(S.IncrementalApplied, 1u);
  EXPECT_EQ(S.IncrementalDirty, 1u);
  EXPECT_EQ(S.IncrementalClean, TotalBlocks - 1);
  Service.stop();

  // The reused blocks must not change the answer.
  ServiceOptions ColdOptions;
  ColdOptions.NumWorkers = 1;
  ColdOptions.CacheBytes = 0;
  TreeService Cold(ColdOptions);
  BuildResponse ColdResp = solveOn(Cold, M);
  EXPECT_EQ(ColdResp.Newick, Resp.Newick);
  EXPECT_NEAR(ColdResp.Cost, Resp.Cost, 1e-9);
  Cold.stop();
}

TEST(Incremental, OneTaxonPerturbationResolvesOnlyAffectedBlocks) {
  // The acceptance drill: add one taxon next to module 0. Its enlarged
  // block is the only dirty one; modules 1-3 and the root replay.
  DistanceMatrix Base = compose({{5, 1}, {5, 2}, {5, 3}, {5, 4}});
  DistanceMatrix M(Base.size() + 1);
  for (int I = 0; I < Base.size(); ++I) {
    M.setName(I, Base.name(I));
    for (int J = I + 1; J < Base.size(); ++J)
      M.set(I, J, Base.at(I, J));
  }
  for (int I = 0; I < Base.size(); ++I)
    M.set(I, Base.size(), I < 5 ? ModuleDiameter : ModuleSeparation);

  ServiceOptions Options;
  Options.NumWorkers = 1;
  Options.Incremental = true;
  TreeService Service(Options);
  BuildResponse BaseResp = solveOn(Service, Base);
  std::uint32_t TotalBlocks = BaseResp.DirtyBlocks;

  BuildResponse Resp = solveOn(Service, M, /*Incremental=*/true);
  EXPECT_TRUE(Resp.IncrementalApplied);
  EXPECT_EQ(Resp.TaxaAdded, 1);
  EXPECT_EQ(Resp.TaxaRemoved, 0);
  EXPECT_EQ(Resp.EntriesChanged, 0);
  // Only the block(s) the new taxon lands in re-solve; every module the
  // taxon avoids — and the unchanged merge structure above them —
  // replays from the block cache.
  EXPECT_EQ(Resp.DirtyBlocks, 1u);
  EXPECT_GE(Resp.CleanBlocks, TotalBlocks - 2);
  Service.stop();

  ServiceOptions ColdOptions;
  ColdOptions.NumWorkers = 1;
  ColdOptions.CacheBytes = 0;
  TreeService Cold(ColdOptions);
  BuildResponse ColdResp = solveOn(Cold, M);
  EXPECT_EQ(ColdResp.Newick, Resp.Newick);
  EXPECT_NEAR(ColdResp.Cost, Resp.Cost, 1e-9);
  Cold.stop();
}

TEST(Incremental, RemovedTaxonResolvesOnlyItsModule) {
  DistanceMatrix Base = compose({{5, 1}, {5, 2}, {5, 3}, {5, 4}});
  std::vector<int> Keep;
  for (int I = 0; I + 1 < Base.size(); ++I)
    Keep.push_back(I);
  DistanceMatrix M = Base.restrictedTo(Keep);

  ServiceOptions Options;
  Options.NumWorkers = 1;
  Options.Incremental = true;
  TreeService Service(Options);
  BuildResponse BaseResp = solveOn(Service, Base);
  std::uint32_t TotalBlocks = BaseResp.DirtyBlocks;

  BuildResponse Resp = solveOn(Service, M, /*Incremental=*/true);
  EXPECT_TRUE(Resp.IncrementalApplied);
  EXPECT_EQ(Resp.TaxaAdded, 0);
  EXPECT_EQ(Resp.TaxaRemoved, 1);
  // The shrunken module's block plus the merge node above it re-solve;
  // everything untouched by the removal replays.
  EXPECT_LE(Resp.DirtyBlocks, 2u);
  EXPECT_GE(Resp.CleanBlocks, TotalBlocks - 2);
  Service.stop();
}

TEST(Incremental, NoQualifyingBaseFallsBackToFullSolve) {
  DistanceMatrix Base = compose({{5, 1}, {5, 2}});
  DistanceMatrix Unrelated = compose({{5, 8}, {5, 9}});

  ServiceOptions Options;
  Options.NumWorkers = 1;
  Options.Incremental = true;
  TreeService Service(Options);
  StatsSnapshot Before = Service.stats();
  solveOn(Service, Base);

  BuildResponse Resp = solveOn(Service, Unrelated, /*Incremental=*/true);
  EXPECT_TRUE(Resp.ok());
  EXPECT_FALSE(Resp.IncrementalApplied);
  EXPECT_TRUE(Resp.Exact);
  EXPECT_EQ(countsBetween(Before, Service.stats()).IncrementalApplied, 0u);
  Service.stop();
}

TEST(Incremental, FlagIsIgnoredWhenServiceIndexIsOff) {
  // `--incremental` is a service-side opt-in; a request flag against a
  // plain service must degrade to a normal solve.
  DistanceMatrix M = compose({{5, 1}, {5, 2}});
  ServiceOptions Options;
  Options.NumWorkers = 1;
  TreeService Service(Options);
  BuildResponse Resp = solveOn(Service, M, /*Incremental=*/true);
  EXPECT_TRUE(Resp.ok());
  EXPECT_FALSE(Resp.IncrementalApplied);
  Service.stop();
}

//===----------------------------------------------------------------------===//
// Durability: block entries survive a restart
//===----------------------------------------------------------------------===//

TEST(Persist, BlockEntriesSurviveServiceRestart) {
  ScratchDir Dir("blockrestart");
  DistanceMatrix X = compose({{5, 1}, {5, 2}});
  DistanceMatrix Y = compose({{5, 1}, {5, 3}});

  ServiceOptions Options;
  Options.NumWorkers = 1;
  Options.StateDir = Dir.path();
  {
    TreeService Service(Options);
    BuildResponse Resp = solveOn(Service, X);
    EXPECT_TRUE(Resp.Exact);
    Service.stop();
  }

  // The restarted service never solved anything, yet Y's shared module
  // must replay from the recovered block namespace — and X itself from
  // the recovered whole namespace.
  TreeService Restarted(Options);
  BuildResponse RespY = solveOn(Restarted, Y);
  EXPECT_FALSE(RespY.CacheHit);
  EXPECT_GE(RespY.BlockCacheHits, 1u);
  BuildResponse RespX = solveOn(Restarted, X);
  EXPECT_TRUE(RespX.CacheHit);
  Restarted.stop();
}

} // namespace
