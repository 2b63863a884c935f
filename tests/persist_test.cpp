//===- tests/persist_test.cpp - Durability subsystem tests ----------------===//
//
// Covers src/persist bottom-up — CRC framing, WAL replay and tail
// repair, the durable cache store, the job journal, file-backed search
// checkpoints — then the integration layers: solver checkpoint/resume
// equality for all three B&B engines, per-block pipeline checkpoints,
// and TreeService restart recovery (durable cache hits and journaled
// job re-enqueue). The kill-and-recover test SIGKILLs a forked writer
// mid-append and proves the survivor loads a clean prefix.
//
//===----------------------------------------------------------------------===//

#include "bnb/BestFirstBnb.h"
#include "bnb/Checkpoint.h"
#include "bnb/SequentialBnb.h"
#include "compact/CompactSetPipeline.h"
#include "matrix/Fingerprint.h"
#include "matrix/Generators.h"
#include "mp/Serialize.h"
#include "obs/Log.h"
#include "parallel/ThreadedBnb.h"
#include "persist/CacheStore.h"
#include "persist/Checkpoint.h"
#include "persist/Crc32.h"
#include "persist/Files.h"
#include "persist/JobJournal.h"
#include "persist/Wal.h"
#include "service/Protocol.h"
#include "service/Service.h"
#include "tree/Newick.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <fcntl.h>
#include <filesystem>
#include <numeric>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace mutk;

namespace {

/// A fresh, empty scratch directory per call, removed on destruction.
class ScratchDir {
public:
  explicit ScratchDir(const std::string &Tag) {
    static int Counter = 0;
    Path = testing::TempDir() + "mutk_persist_" + Tag + "_" +
           std::to_string(::getpid()) + "_" + std::to_string(Counter++);
    std::filesystem::remove_all(Path);
    persist::ensureDir(Path);
  }
  ~ScratchDir() { std::filesystem::remove_all(Path); }

  const std::string &path() const { return Path; }
  std::string file(const std::string &Name) const { return Path + "/" + Name; }

private:
  std::string Path;
};

/// Captures log lines for the duration of a scope.
class LogCapture {
public:
  LogCapture() {
    obs::setLogSink([this](std::string_view Line) {
      Lines.append(Line.data(), Line.size());
    });
  }
  ~LogCapture() { obs::setLogSink(nullptr); }

  bool contains(const std::string &Needle) const {
    return Lines.find(Needle) != std::string::npos;
  }

private:
  std::string Lines;
};

/// In-memory CheckpointSink keeping the most recent capture.
struct MemorySink : CheckpointSink {
  SearchCheckpoint Last;
  std::uint64_t Count = 0;
  void checkpoint(const SearchCheckpoint &State) override {
    Last = State;
    ++Count;
  }
};

/// Flips one byte of a file in place (corruption injection).
void flipByte(const std::string &Path, std::size_t Offset) {
  auto Bytes = persist::readFile(Path);
  ASSERT_TRUE(Bytes.has_value());
  ASSERT_LT(Offset, Bytes->size());
  (*Bytes)[Offset] ^= 0xff;
  ASSERT_TRUE(persist::writeFileAtomic(Path, *Bytes));
}

/// Drops the last \p N bytes of a file (torn-tail injection).
void truncateTail(const std::string &Path, std::size_t N) {
  auto Bytes = persist::readFile(Path);
  ASSERT_TRUE(Bytes.has_value());
  ASSERT_GT(Bytes->size(), N);
  Bytes->resize(Bytes->size() - N);
  ASSERT_TRUE(persist::writeFileAtomic(Path, *Bytes));
}

/// A realistic durable record: a solved small matrix in canonical form.
persist::DurableCacheRecord makeRecord(std::uint64_t Seed) {
  DistanceMatrix M = uniformRandomMetric(6, Seed);
  CanonicalForm Form = canonicalForm(M);
  MutResult R = solveMutSequential(M);
  persist::DurableCacheRecord Rec;
  Rec.Key = Form.Key;
  Rec.CanonicalBytes = Form.Bytes;
  Rec.Tree = R.Tree;
  Rec.Cost = R.Cost;
  Rec.Exact = true;
  return Rec;
}

} // namespace

//===----------------------------------------------------------------------===//
// CRC32 and frame scanning
//===----------------------------------------------------------------------===//

TEST(Crc32, KnownVectors) {
  // The standard CRC-32 check value ("123456789" -> 0xCBF43926).
  const std::uint8_t Check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(persist::crc32(Check, sizeof(Check)), 0xCBF43926u);
  EXPECT_EQ(persist::crc32(nullptr, 0), 0u);
}

TEST(Crc32, DetectsSingleBitFlips) {
  std::vector<std::uint8_t> Data(97);
  for (std::size_t I = 0; I < Data.size(); ++I)
    Data[I] = static_cast<std::uint8_t>(I * 31 + 7);
  std::uint32_t Want = persist::crc32(Data);
  for (std::size_t I = 0; I < Data.size(); I += 13) {
    Data[I] ^= 0x10;
    EXPECT_NE(persist::crc32(Data), Want) << "flip at " << I;
    Data[I] ^= 0x10;
  }
  EXPECT_EQ(persist::crc32(Data), Want);
}

TEST(Frames, ScanStopsAtDamage) {
  std::vector<std::uint8_t> Buffer;
  persist::appendFrame(Buffer, {1, 2, 3});
  persist::appendFrame(Buffer, {});
  persist::appendFrame(Buffer, std::vector<std::uint8_t>(64, 0xAB));
  std::size_t IntactBytes = Buffer.size();
  persist::appendFrame(Buffer, {9, 9, 9});
  Buffer.resize(Buffer.size() - 2); // tear the last frame

  persist::FrameScan Scan = persist::scanFrames(Buffer);
  ASSERT_EQ(Scan.Payloads.size(), 3u);
  EXPECT_EQ(Scan.Payloads[0], (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(Scan.Payloads[1].empty());
  EXPECT_EQ(Scan.CleanBytes, IntactBytes);
  EXPECT_TRUE(Scan.Damaged);
}

//===----------------------------------------------------------------------===//
// WAL
//===----------------------------------------------------------------------===//

TEST(Wal, AppendReplayRoundTrip) {
  ScratchDir Dir("wal");
  std::string Path = Dir.file("log.wal");
  {
    persist::Wal W(Path, "MUTKTEST", 1);
    EXPECT_TRUE(W.append({1, 2, 3}, true));
    EXPECT_TRUE(W.append({}, false));
    EXPECT_TRUE(W.append(std::vector<std::uint8_t>(300, 0x5C), true));
  }
  persist::Wal R(Path, "MUTKTEST", 1);
  persist::Wal::ReplayResult Replay = R.replay();
  EXPECT_FALSE(Replay.Missing);
  EXPECT_FALSE(Replay.Incompatible);
  EXPECT_FALSE(Replay.Damaged);
  ASSERT_EQ(Replay.Records.size(), 3u);
  EXPECT_EQ(Replay.Records[0], (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(Replay.Records[2].size(), 300u);
}

TEST(Wal, TornTailDropsOnlyTheTail) {
  ScratchDir Dir("wal_tail");
  std::string Path = Dir.file("log.wal");
  {
    persist::Wal W(Path, "MUTKTEST", 1);
    W.append({10}, false);
    W.append({20}, false);
    W.append({30}, true);
  }
  truncateTail(Path, 3);
  persist::Wal::ReplayResult Replay =
      persist::Wal(Path, "MUTKTEST", 1).replay();
  EXPECT_TRUE(Replay.Damaged);
  ASSERT_EQ(Replay.Records.size(), 2u);
  EXPECT_EQ(Replay.Records[1], (std::vector<std::uint8_t>{20}));
}

TEST(Wal, CorruptPayloadStopsReplayThere) {
  ScratchDir Dir("wal_flip");
  std::string Path = Dir.file("log.wal");
  std::uint64_t FirstFrameEnd;
  {
    persist::Wal W(Path, "MUTKTEST", 1);
    W.append(std::vector<std::uint8_t>(40, 1), false);
    FirstFrameEnd = W.bytes();
    W.append(std::vector<std::uint8_t>(40, 2), false);
    W.append(std::vector<std::uint8_t>(40, 3), true);
  }
  // Flip a payload byte of the middle record: record 1 survives, the
  // rest of the log is unreachable (by design — order is meaningful).
  flipByte(Path, FirstFrameEnd + 8 + 10);
  persist::Wal::ReplayResult Replay =
      persist::Wal(Path, "MUTKTEST", 1).replay();
  EXPECT_TRUE(Replay.Damaged);
  ASSERT_EQ(Replay.Records.size(), 1u);
  EXPECT_EQ(Replay.Records[0][0], 1);
}

TEST(Wal, HeaderGuardsFormatAndFlavor) {
  ScratchDir Dir("wal_hdr");
  std::string Path = Dir.file("log.wal");
  {
    persist::Wal W(Path, "MUTKTEST", 1);
    W.append({1}, true);
  }
  EXPECT_TRUE(persist::Wal(Path, "MUTKTEST", 2).replay().Incompatible);
  EXPECT_TRUE(persist::Wal(Path, "MUTKOTHR", 1).replay().Incompatible);
  EXPECT_TRUE(persist::Wal(Dir.file("absent.wal"), "MUTKTEST", 1)
                  .replay()
                  .Missing);
}

TEST(Wal, RewriteReplacesContents) {
  ScratchDir Dir("wal_rw");
  persist::Wal W(Dir.file("log.wal"), "MUTKTEST", 1);
  W.append({1}, false);
  W.append({2}, true);
  ASSERT_TRUE(W.rewrite({{7, 7}}));
  persist::Wal::ReplayResult Replay = W.replay();
  EXPECT_FALSE(Replay.Damaged);
  ASSERT_EQ(Replay.Records.size(), 1u);
  EXPECT_EQ(Replay.Records[0], (std::vector<std::uint8_t>{7, 7}));
  // Appends after a rewrite must land in the *new* file, not the old
  // inode the O_APPEND descriptor pointed at.
  EXPECT_TRUE(W.append({8}, true));
  EXPECT_EQ(W.replay().Records.size(), 2u);
}

//===----------------------------------------------------------------------===//
// Cache store
//===----------------------------------------------------------------------===//

TEST(CacheStore, RecordCodecRoundTrip) {
  persist::DurableCacheRecord Rec = makeRecord(5);
  auto Decoded = persist::decodeCacheRecord(persist::encodeCacheRecord(Rec));
  ASSERT_TRUE(Decoded.has_value());
  EXPECT_EQ(Decoded->Key, Rec.Key);
  EXPECT_EQ(Decoded->CanonicalBytes, Rec.CanonicalBytes);
  EXPECT_EQ(Decoded->Cost, Rec.Cost);
  EXPECT_EQ(Decoded->Exact, Rec.Exact);
  EXPECT_EQ(toNewick(Decoded->Tree), toNewick(Rec.Tree));
}

TEST(CacheStore, AppendLoadCompactCycle) {
  ScratchDir Dir("store");
  std::vector<persist::DurableCacheRecord> Recs = {makeRecord(1),
                                                   makeRecord(2),
                                                   makeRecord(3)};
  {
    persist::CacheStore Store(Dir.path());
    for (const auto &Rec : Recs)
      ASSERT_TRUE(Store.append(Rec));
  }
  {
    persist::CacheStore Store(Dir.path());
    persist::CacheStore::LoadResult Load = Store.load();
    EXPECT_FALSE(Load.ColdStart);
    EXPECT_FALSE(Load.WalDamaged);
    EXPECT_EQ(Load.WalRecords, 3u);
    EXPECT_EQ(Load.SnapshotRecords, 0u);
    ASSERT_EQ(Load.Records.size(), 3u);
    EXPECT_EQ(Load.Records[1].Key, Recs[1].Key);
    // Compaction folds the WAL into the snapshot.
    ASSERT_TRUE(Store.compact(Load.Records));
  }
  {
    persist::CacheStore Store(Dir.path());
    persist::CacheStore::LoadResult Load = Store.load();
    EXPECT_EQ(Load.SnapshotRecords, 3u);
    EXPECT_EQ(Load.WalRecords, 0u);
    ASSERT_TRUE(Store.append(makeRecord(4)));
    EXPECT_EQ(Store.load().Records.size(), 4u);
  }
}

TEST(CacheStore, DamagedWalTailIsSkippedLoggedAndRepaired) {
  ScratchDir Dir("store_tail");
  {
    persist::CacheStore Store(Dir.path());
    Store.append(makeRecord(1));
    Store.append(makeRecord(2));
  }
  truncateTail(Dir.file("cache.wal"), 5);
  {
    LogCapture Capture;
    persist::CacheStore Store(Dir.path());
    persist::CacheStore::LoadResult Load = Store.load();
    EXPECT_TRUE(Load.WalDamaged);
    EXPECT_EQ(Load.Records.size(), 1u);
    EXPECT_EQ(Load.DroppedRecords, 0u);
    EXPECT_TRUE(Capture.contains("damaged tail"));
  }
  // The damaged tail was truncated away during load: a fresh load sees
  // a clean log, and new appends extend the intact prefix.
  persist::CacheStore Store(Dir.path());
  persist::CacheStore::LoadResult Load = Store.load();
  EXPECT_FALSE(Load.WalDamaged);
  EXPECT_EQ(Load.Records.size(), 1u);
  ASSERT_TRUE(Store.append(makeRecord(3)));
  EXPECT_EQ(Store.load().Records.size(), 2u);
}

TEST(CacheStore, IncompatibleStateStartsCold) {
  ScratchDir Dir("store_cold");
  // A WAL written by a future format version must not be interpreted.
  {
    persist::Wal Future(Dir.file("cache.wal"), "MUTKCWAL", 999);
    Future.append(persist::encodeCacheRecord(makeRecord(1)), true);
  }
  LogCapture Capture;
  persist::CacheStore Store(Dir.path());
  persist::CacheStore::LoadResult Load = Store.load();
  EXPECT_TRUE(Load.ColdStart);
  EXPECT_TRUE(Load.Records.empty());
  EXPECT_TRUE(Capture.contains("starting cold"));
  // The store is usable immediately after the reset.
  ASSERT_TRUE(Store.append(makeRecord(2)));
  EXPECT_EQ(Store.load().Records.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Job journal
//===----------------------------------------------------------------------===//

TEST(JobJournal, PendingJobsSurviveCompletedOnesDoNot) {
  ScratchDir Dir("jobs");
  BuildRequest Build;
  Build.Matrix = uniformRandomMetric(5, 3);
  std::vector<std::uint8_t> Encoded = encodeRequest(makeBuildRequest(Build));
  {
    persist::JobJournal J(Dir.path());
    ASSERT_TRUE(J.submitted(1, Encoded));
    ASSERT_TRUE(J.submitted(2, Encoded));
    ASSERT_TRUE(J.submitted(3, Encoded));
    ASSERT_TRUE(J.completed(2));
    ASSERT_TRUE(J.completed(1));
  }
  std::vector<persist::PendingJob> Pending;
  {
    persist::JobJournal J(Dir.path());
    Pending = J.load();
  }
  ASSERT_EQ(Pending.size(), 1u);
  EXPECT_EQ(Pending[0].Id, 3u);
  std::optional<Request> Decoded = decodeRequest(Pending[0].EncodedRequest);
  ASSERT_TRUE(Decoded.has_value());
  EXPECT_EQ(Decoded->V, Verb::Build);
  EXPECT_EQ(Decoded->Build.Matrix.size(), 5);
  // load() compacted the journal down to the survivors.
  persist::JobJournal Again(Dir.path());
  std::vector<persist::PendingJob> Reloaded = Again.load();
  ASSERT_EQ(Reloaded.size(), 1u);
  EXPECT_EQ(Reloaded[0].Id, 3u);
}

TEST(JobJournal, DamagedTailTruncated) {
  ScratchDir Dir("jobs_tail");
  BuildRequest Build;
  Build.Matrix = uniformRandomMetric(4, 1);
  std::vector<std::uint8_t> Encoded = encodeRequest(makeBuildRequest(Build));
  {
    persist::JobJournal J(Dir.path());
    J.submitted(1, Encoded);
    J.submitted(2, Encoded);
  }
  truncateTail(Dir.file("jobs.wal"), 4);
  LogCapture Capture;
  persist::JobJournal J(Dir.path());
  std::vector<persist::PendingJob> Pending = J.load();
  ASSERT_EQ(Pending.size(), 1u);
  EXPECT_EQ(Pending[0].Id, 1u);
  EXPECT_TRUE(Capture.contains("damaged tail"));
}

//===----------------------------------------------------------------------===//
// Solver checkpoint/resume
//===----------------------------------------------------------------------===//

TEST(Resume, SequentialResumesToIdenticalCost) {
  DistanceMatrix M = uniformRandomMetric(10, 42);
  MutResult Ref = solveMutSequential(M);
  ASSERT_TRUE(Ref.Stats.Complete);
  ASSERT_GT(Ref.Stats.Branched, 8u);

  MemorySink Sink;
  BnbOptions Interrupted;
  Interrupted.Checkpoint = &Sink;
  Interrupted.CheckpointEveryNodes = 1;
  Interrupted.MaxBranchedNodes = Ref.Stats.Branched / 2;
  MutResult Partial = solveMutSequential(M, Interrupted);
  ASSERT_FALSE(Partial.Stats.Complete);
  ASSERT_GT(Sink.Count, 0u);
  EXPECT_EQ(Sink.Last.MatrixKey, fingerprint(M));

  BnbOptions Resume;
  Resume.ResumeFrom = &Sink.Last;
  MutResult Done = solveMutSequential(M, Resume);
  EXPECT_TRUE(Done.Stats.Complete);
  EXPECT_NEAR(Done.Cost, Ref.Cost, 1e-9);
  // Counters continue across the interruption instead of restarting.
  EXPECT_GE(Done.Stats.Branched, Sink.Last.Stats.Branched);
}

TEST(Resume, BestFirstResumesToIdenticalCost) {
  DistanceMatrix M = uniformRandomMetric(10, 7);
  BestFirstResult Ref = solveMutBestFirst(M);
  ASSERT_TRUE(Ref.Stats.Complete);
  ASSERT_GT(Ref.Stats.Branched, 8u);

  MemorySink Sink;
  BnbOptions Interrupted;
  Interrupted.Checkpoint = &Sink;
  Interrupted.CheckpointEveryNodes = 1;
  Interrupted.MaxBranchedNodes = Ref.Stats.Branched / 2;
  BestFirstResult Partial = solveMutBestFirst(M, Interrupted);
  ASSERT_FALSE(Partial.Stats.Complete);
  ASSERT_GT(Sink.Count, 0u);

  BnbOptions Resume;
  Resume.ResumeFrom = &Sink.Last;
  BestFirstResult Done = solveMutBestFirst(M, Resume);
  EXPECT_TRUE(Done.Stats.Complete);
  EXPECT_NEAR(Done.Cost, Ref.Cost, 1e-9);
}

TEST(Resume, ThreadedResumesSequentialCheckpoint) {
  // Cross-engine resume: the checkpoint format is solver-independent
  // (same maxmin label space), so a search interrupted under the DFS
  // solver can be finished by the threaded one.
  DistanceMatrix M = uniformRandomMetric(10, 19);
  MutResult Ref = solveMutSequential(M);
  ASSERT_TRUE(Ref.Stats.Complete);

  MemorySink Sink;
  BnbOptions Interrupted;
  Interrupted.Checkpoint = &Sink;
  Interrupted.CheckpointEveryNodes = 1;
  Interrupted.MaxBranchedNodes = std::max<std::uint64_t>(
      1, Ref.Stats.Branched / 2);
  solveMutSequential(M, Interrupted);
  ASSERT_GT(Sink.Count, 0u);

  BnbOptions Resume;
  Resume.ResumeFrom = &Sink.Last;
  ParallelMutResult Done = solveMutThreaded(M, 4, Resume);
  EXPECT_TRUE(Done.Stats.Complete);
  EXPECT_NEAR(Done.Cost, Ref.Cost, 1e-9);
}

TEST(Resume, ThreadedCheckpointsWhileSolving) {
  DistanceMatrix M = uniformRandomMetric(11, 23);
  MutResult Ref = solveMutSequential(M);

  MemorySink Sink;
  BnbOptions Options;
  Options.Checkpoint = &Sink;
  Options.CheckpointEveryNodes = 1;
  Options.CheckpointEverySeconds = 0.001;
  ParallelMutResult R = solveMutThreaded(M, 3, Options);
  EXPECT_TRUE(R.Stats.Complete);
  EXPECT_NEAR(R.Cost, Ref.Cost, 1e-9);
  // Whether a checkpoint fired depends on timing; when one did, it must
  // be resumable to the same optimum.
  if (Sink.Count > 0) {
    BnbOptions Resume;
    Resume.ResumeFrom = &Sink.Last;
    ParallelMutResult Done = solveMutThreaded(M, 3, Resume);
    EXPECT_TRUE(Done.Stats.Complete);
    EXPECT_NEAR(Done.Cost, Ref.Cost, 1e-9);
  }
}

TEST(Resume, MismatchedMatrixStartsFresh) {
  DistanceMatrix A = uniformRandomMetric(9, 1);
  DistanceMatrix B = uniformRandomMetric(9, 2);
  ASSERT_NE(fingerprint(A), fingerprint(B));

  MemorySink Sink;
  BnbOptions Interrupted;
  Interrupted.Checkpoint = &Sink;
  Interrupted.CheckpointEveryNodes = 1;
  Interrupted.MaxBranchedNodes = 4;
  solveMutSequential(A, Interrupted);
  ASSERT_GT(Sink.Count, 0u);

  // Resuming a checkpoint of A against B is refused (fingerprint
  // mismatch) — B still solves to its own optimum from scratch.
  BnbOptions Resume;
  Resume.ResumeFrom = &Sink.Last;
  MutResult RB = solveMutSequential(B, Resume);
  MutResult RefB = solveMutSequential(B);
  EXPECT_TRUE(RB.Stats.Complete);
  EXPECT_NEAR(RB.Cost, RefB.Cost, 1e-9);
}

TEST(Resume, CheckpointCodecRoundTrip) {
  DistanceMatrix M = uniformRandomMetric(9, 13);
  MemorySink Sink;
  BnbOptions Options;
  Options.Checkpoint = &Sink;
  Options.CheckpointEveryNodes = 1;
  Options.MaxBranchedNodes = 10;
  solveMutSequential(M, Options);
  ASSERT_GT(Sink.Count, 0u);

  std::optional<SearchCheckpoint> Decoded =
      decodeSearchCheckpoint(encodeSearchCheckpoint(Sink.Last));
  ASSERT_TRUE(Decoded.has_value());
  EXPECT_EQ(Decoded->Frontier.size(), Sink.Last.Frontier.size());
  EXPECT_EQ(Decoded->UpperBound, Sink.Last.UpperBound);
  EXPECT_EQ(Decoded->MatrixKey, Sink.Last.MatrixKey);
  EXPECT_EQ(Decoded->Stats.Branched, Sink.Last.Stats.Branched);
  EXPECT_EQ(toNewick(Decoded->Incumbent), toNewick(Sink.Last.Incumbent));

  BnbOptions Resume;
  Resume.ResumeFrom = &*Decoded;
  MutResult Done = solveMutSequential(M, Resume);
  MutResult Ref = solveMutSequential(M);
  EXPECT_NEAR(Done.Cost, Ref.Cost, 1e-9);
}

//===----------------------------------------------------------------------===//
// File-backed checkpoints
//===----------------------------------------------------------------------===//

TEST(FileCheckpoint, WriteLoadResumeRemove) {
  ScratchDir Dir("ckpt");
  std::string Path = Dir.file("search.ckpt");
  DistanceMatrix M = uniformRandomMetric(10, 31);
  MutResult Ref = solveMutSequential(M);

  persist::FileCheckpointSink Sink(Path);
  BnbOptions Interrupted;
  Interrupted.Checkpoint = &Sink;
  Interrupted.CheckpointEveryNodes = 1;
  Interrupted.MaxBranchedNodes = std::max<std::uint64_t>(
      1, Ref.Stats.Branched / 2);
  MutResult Partial = solveMutSequential(M, Interrupted);
  ASSERT_FALSE(Partial.Stats.Complete);
  ASSERT_GT(Sink.writes(), 0u);

  std::optional<SearchCheckpoint> Loaded = persist::loadCheckpoint(Path);
  ASSERT_TRUE(Loaded.has_value());
  BnbOptions Resume;
  Resume.ResumeFrom = &*Loaded;
  MutResult Done = solveMutSequential(M, Resume);
  EXPECT_TRUE(Done.Stats.Complete);
  EXPECT_NEAR(Done.Cost, Ref.Cost, 1e-9);

  EXPECT_TRUE(persist::removeCheckpoint(Path));
  EXPECT_FALSE(persist::loadCheckpoint(Path).has_value());
}

TEST(FileCheckpoint, CorruptFileIsRejectedNotTrusted) {
  ScratchDir Dir("ckpt_bad");
  std::string Path = Dir.file("search.ckpt");
  DistanceMatrix M = uniformRandomMetric(9, 3);
  persist::FileCheckpointSink Sink(Path);
  BnbOptions Options;
  Options.Checkpoint = &Sink;
  Options.CheckpointEveryNodes = 1;
  Options.MaxBranchedNodes = 8;
  solveMutSequential(M, Options);
  ASSERT_GT(Sink.writes(), 0u);

  std::uint64_t Size = persist::fileSize(Path);
  ASSERT_GT(Size, 16u);
  flipByte(Path, static_cast<std::size_t>(Size) - 4);
  LogCapture Capture;
  EXPECT_FALSE(persist::loadCheckpoint(Path).has_value());
  EXPECT_TRUE(Capture.contains("checkpoint ignored"));
}

//===----------------------------------------------------------------------===//
// Pipeline per-block checkpoints
//===----------------------------------------------------------------------===//

TEST(PipelineCheckpoint, HooksProduceSameTreeAndCleanUp) {
  ScratchDir Dir("blocks");
  DistanceMatrix M = plantedClusterMetric(18, 77);
  PipelineOptions Plain;
  PipelineResult Ref = buildCompactSetTree(M, Plain);

  auto PathFor = [&](std::uint64_t Key) {
    return Dir.file(std::to_string(Key) + ".ckpt");
  };
  BlockCheckpointHooks Hooks;
  Hooks.SinkFor = [&](std::uint64_t Key) {
    return std::make_unique<persist::FileCheckpointSink>(PathFor(Key));
  };
  Hooks.Load = [&](std::uint64_t Key) {
    return persist::loadCheckpoint(PathFor(Key));
  };
  Hooks.Done = [&](std::uint64_t Key) { persist::removeCheckpoint(PathFor(Key)); };

  PipelineOptions WithHooks;
  WithHooks.BlockCheckpoint = &Hooks;
  WithHooks.Bnb.CheckpointEveryNodes = 1;
  PipelineResult R = buildCompactSetTree(M, WithHooks);
  EXPECT_NEAR(R.Cost, Ref.Cost, 1e-9);
  EXPECT_EQ(toNewick(R.Tree), toNewick(Ref.Tree));
  // Every exactly-solved block finished, so Done() removed every file.
  EXPECT_TRUE(std::filesystem::is_empty(Dir.path()));
}

//===----------------------------------------------------------------------===//
// Service restart recovery
//===----------------------------------------------------------------------===//

TEST(ServiceRecovery, DurableCacheServesHitsAcrossRestart) {
  ScratchDir Dir("svc_cache");
  DistanceMatrix M = uniformRandomMetric(10, 7);
  ServiceOptions Options;
  Options.NumWorkers = 2;
  Options.StateDir = Dir.path();

  double Cost = 0.0;
  {
    TreeService Service(Options);
    BuildRequest Req;
    Req.Matrix = M;
    BuildResponse Resp = Service.submit(Req);
    ASSERT_TRUE(Resp.ok());
    EXPECT_FALSE(Resp.CacheHit);
    Cost = Resp.Cost;
    Service.stop();
  }
  {
    TreeService Service(Options);
    StatsSnapshot Before = Service.stats();
    BuildRequest Req;
    Req.Matrix = M;
    BuildResponse Resp = Service.submit(Req);
    ASSERT_TRUE(Resp.ok());
    EXPECT_TRUE(Resp.CacheHit);
    EXPECT_NEAR(Resp.Cost, Cost, 1e-9);
    EXPECT_GE(countsBetween(Before, Service.stats()).WholeHits, 1u);

    // Relabeling-invariance survives the disk round trip too.
    std::vector<int> Perm(10);
    std::iota(Perm.begin(), Perm.end(), 0);
    std::reverse(Perm.begin(), Perm.end());
    BuildRequest Relabeled;
    Relabeled.Matrix = M.permuted(Perm);
    BuildResponse Resp2 = Service.submit(Relabeled);
    ASSERT_TRUE(Resp2.ok());
    EXPECT_TRUE(Resp2.CacheHit);
    EXPECT_NEAR(Resp2.Cost, Cost, 1e-9);

    // The persist instruments flow into the StatsJson surface.
    EXPECT_NE(Service.statsJson().find("mutk_persist_wal_appends_total"),
              std::string::npos);
    Service.stop();
  }
}

TEST(ServiceRecovery, JournaledJobIsReRunAfterCrash) {
  ScratchDir Dir("svc_jobs");
  DistanceMatrix M = uniformRandomMetric(9, 11);
  BuildRequest Req;
  Req.Matrix = M;
  {
    // Simulated crash: the job reached the journal but no worker ever
    // marked it complete (the process "died" before solving).
    persist::JobJournal Journal(Dir.path());
    ASSERT_TRUE(Journal.submitted(7, encodeRequest(makeBuildRequest(Req))));
  }
  ServiceOptions Options;
  Options.NumWorkers = 2;
  Options.StateDir = Dir.path();
  {
    // Counts are process totals, and the constructor already re-enqueues
    // the job: take the baseline before it runs.
    const std::uint64_t CompletedBefore =
        obs::serviceInstruments().Completed.value();
    TreeService Service(Options);
    // The recovered job runs in the background; wait for it to finish.
    auto Deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(60);
    while (Service.stats().Completed - CompletedBefore < 1 &&
           std::chrono::steady_clock::now() < Deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_GE(Service.stats().Completed - CompletedBefore, 1u);
    Service.stop();
  }
  {
    // Its solution became durable: a fresh daemon answers from cache.
    TreeService Service(Options);
    BuildResponse Resp = Service.submit(Req);
    ASSERT_TRUE(Resp.ok());
    EXPECT_TRUE(Resp.CacheHit);
    Service.stop();
  }
  // And the journal no longer lists the job as pending.
  persist::JobJournal Journal(Dir.path());
  EXPECT_TRUE(Journal.load().empty());
}

//===----------------------------------------------------------------------===//
// Kill-and-recover
//===----------------------------------------------------------------------===//

// fork() under ThreadSanitizer deadlocks sporadically when the parent
// holds runtime locks; the durability property is already exercised by
// the ASan and Release legs, so skip the hard-kill test there.
#if !defined(__SANITIZE_THREAD__)
TEST(CrashRecovery, SigkilledWriterLeavesLoadablePrefix) {
  ScratchDir Dir("kill");
  // Build the record in the parent: the child only appends bytes.
  persist::DurableCacheRecord Rec = makeRecord(1);

  pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    // Child: append records as fast as possible until killed.
    persist::CacheStore Store(Dir.path());
    std::uint64_t I = 0;
    for (;;) {
      Rec.Key = ++I;
      Store.append(Rec, /*Sync=*/false);
    }
    _exit(0); // unreachable
  }

  // Parent: wait until the WAL has real volume, then kill mid-write.
  std::string WalPath = Dir.file("cache.wal");
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (persist::fileSize(WalPath) < (64u << 10) &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GE(persist::fileSize(WalPath), 64u << 10)
      << "writer child made no progress";
  ASSERT_EQ(::kill(Pid, SIGKILL), 0);
  int Status = 0;
  ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
  ASSERT_TRUE(WIFSIGNALED(Status));

  // The survivor sees an intact prefix of the append sequence: possibly
  // a torn final frame (skipped), never a decoded-but-wrong record.
  persist::CacheStore Store(Dir.path());
  persist::CacheStore::LoadResult Load = Store.load();
  EXPECT_FALSE(Load.ColdStart);
  EXPECT_EQ(Load.DroppedRecords, 0u);
  ASSERT_GT(Load.Records.size(), 0u);
  for (std::size_t I = 0; I < Load.Records.size(); ++I)
    EXPECT_EQ(Load.Records[I].Key, I + 1);
  // And the repaired store accepts new work.
  EXPECT_TRUE(Store.append(makeRecord(2)));
}
#endif // !__SANITIZE_THREAD__
