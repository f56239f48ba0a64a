#include "journal/recovery.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/brute_force_engine.h"
#include "core/tma_engine.h"
#include "journal/journal_reader.h"
#include "journal/journal_writer.h"
#include "tests/journal/journal_test_util.h"
#include "tests/test_util.h"

namespace topkmon {
namespace {

using ::topkmon::testing::ImageAnchor;
using ::topkmon::testing::MakeRandomQueries;
using ::topkmon::testing::ScopedTempDir;
using ::topkmon::testing::Scores;

constexpr int kDim = 2;
constexpr std::size_t kWindow = 300;
constexpr std::size_t kBatch = 40;

GridEngineOptions TmaOptions() {
  GridEngineOptions opt;
  opt.dim = kDim;
  opt.window = WindowSpec::Count(kWindow);
  opt.cell_budget = 256;
  return opt;
}

/// Drives `engine` (and mirrors every append into `writer`, when given)
/// through deterministic cycles [first, last], taking writer snapshots
/// whenever due.
void DriveCycles(MonitorEngine& engine, CycleJournalWriter* writer,
                 RecordSource& source, Timestamp first, Timestamp last,
                 const std::vector<JournaledQuery>& live) {
  for (Timestamp ts = first; ts <= last; ++ts) {
    const std::vector<Record> batch = source.NextBatch(kBatch, ts);
    if (writer != nullptr) {
      TOPKMON_ASSERT_OK(writer->AppendCycle(ts, batch));
    }
    TOPKMON_ASSERT_OK(engine.ProcessCycle(ts, batch));
    if (writer != nullptr && writer->SnapshotDue()) {
      auto engine_snap = engine.SnapshotState();
      ASSERT_TRUE(engine_snap.ok()) << engine_snap.status();
      JournalSnapshot snap;
      snap.last_cycle_ts = engine_snap->last_cycle;
      snap.window = std::move(engine_snap->window);
      snap.next_record_id =
          snap.window.empty() ? 0 : snap.window.back().id + 1;
      snap.next_query_id = 100;
      snap.live_queries = live;
      TOPKMON_ASSERT_OK(
          writer->RotateWithSnapshot(ImageAnchor(std::move(snap))));
    }
  }
}

std::vector<JournaledQuery> JournaledQueries(
    const std::vector<QuerySpec>& specs) {
  std::vector<JournaledQuery> out;
  for (const QuerySpec& spec : specs) out.push_back({spec, "client"});
  return out;
}

/// The acceptance scenario at engine level: run a journaled TMA engine,
/// "crash" it mid-stream, recover into a fresh engine, and drive the
/// post-crash stream through both the recovered engine and an
/// uninterrupted BruteForceEngine. Top-k results must agree after every
/// cycle, and the two delta streams must reconstruct identical results
/// cycle-for-cycle. Exercised both with mid-stream snapshots (recovery =
/// snapshot + tail replay) and without (recovery = full replay).
void RunCrashRecoveryScenario(std::uint64_t snapshot_every_cycles) {
  ScopedTempDir dir;
  const Timestamp crash_at = 23;
  const Timestamp end_at = 40;
  const auto specs = MakeRandomQueries(kDim, 4, 5, 1234);
  const std::vector<JournaledQuery> live = JournaledQueries(specs);

  // Uninterrupted ground truth over the identical stream.
  BruteForceEngine truth(kDim, WindowSpec::Count(kWindow));
  RecordSource truth_source(MakeGenerator(Distribution::kIndependent, kDim, 5));
  for (const QuerySpec& spec : specs) {
    TOPKMON_ASSERT_OK(truth.RegisterQuery(spec));
  }

  // Journaled engine, crashed after `crash_at` cycles (the writer is
  // dropped without a final snapshot, exactly like a process kill; the
  // cycle records up to the crash are on disk).
  {
    JournalOptions options;
    options.dir = dir.path();
    options.snapshot_every_cycles = snapshot_every_cycles;
    auto writer = CycleJournalWriter::Open(options, ImageAnchor());
    ASSERT_TRUE(writer.ok()) << writer.status();
    TmaEngine live_engine(TmaOptions());
    for (const JournaledQuery& q : live) {
      TOPKMON_ASSERT_OK((*writer)->AppendRegister(q));
      TOPKMON_ASSERT_OK(live_engine.RegisterQuery(q.spec));
    }
    RecordSource source(MakeGenerator(Distribution::kIndependent, kDim, 5));
    DriveCycles(live_engine, writer->get(), source, 1, crash_at, live);
  }
  DriveCycles(truth, nullptr, truth_source, 1, crash_at, live);

  // Recover into a fresh engine.
  TmaEngine recovered(TmaOptions());
  auto report = RecoveryDriver::Replay(dir.path(), recovered);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->recovered);
  EXPECT_EQ(report->last_cycle_ts, crash_at);
  EXPECT_EQ(report->live_queries.size(), specs.size());
  EXPECT_FALSE(report->torn_tail);
  EXPECT_FALSE(report->corrupt_record);
  EXPECT_EQ(recovered.WindowSize(), truth.WindowSize());
  if (snapshot_every_cycles > 0) {
    // Rotation happened mid-stream: bounded replay from the last anchor.
    EXPECT_LT(report->cycles_replayed,
              static_cast<std::uint64_t>(crash_at));
  } else {
    EXPECT_EQ(report->cycles_replayed,
              static_cast<std::uint64_t>(crash_at));
  }

  // The recovered state already answers every query like the truth does.
  for (const QuerySpec& spec : specs) {
    const auto got = recovered.CurrentResult(spec.id);
    const auto want = truth.CurrentResult(spec.id);
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_EQ(Scores(*got), Scores(*want)) << "query " << spec.id;
  }

  // Post-crash: both engines report deltas from the same starting line.
  std::map<QueryId, std::map<RecordId, double>> got_view;
  std::map<QueryId, std::map<RecordId, double>> want_view;
  auto apply = [](std::map<QueryId, std::map<RecordId, double>>& views,
                  const ResultDelta& d) {
    auto& view = views[d.query];
    for (const ResultEntry& e : d.removed) view.erase(e.id);
    for (const ResultEntry& e : d.added) view.emplace(e.id, e.score);
  };
  recovered.SetDeltaCallback(
      [&](const ResultDelta& d) { apply(got_view, d); });
  truth.SetDeltaCallback([&](const ResultDelta& d) { apply(want_view, d); });

  RecordSource recovered_source(
      MakeGenerator(Distribution::kIndependent, kDim, 5));
  for (Timestamp ts = 1; ts <= crash_at; ++ts) {
    recovered_source.NextBatch(kBatch, ts);  // skip to the crash point
  }
  for (Timestamp ts = crash_at + 1; ts <= end_at; ++ts) {
    const std::vector<Record> batch = recovered_source.NextBatch(kBatch, ts);
    TOPKMON_ASSERT_OK(recovered.ProcessCycle(ts, batch));
    TOPKMON_ASSERT_OK(truth.ProcessCycle(ts, batch));
    for (const QuerySpec& spec : specs) {
      // Snapshot reads agree cycle-for-cycle...
      const auto got = recovered.CurrentResult(spec.id);
      const auto want = truth.CurrentResult(spec.id);
      ASSERT_TRUE(got.ok() && want.ok());
      EXPECT_EQ(Scores(*got), Scores(*want))
          << "query " << spec.id << " at cycle " << ts;
      // ... and so do the delta-reconstructed client views.
      std::vector<double> got_scores, want_scores;
      for (const auto& [id, score] : got_view[spec.id]) {
        (void)id;
        got_scores.push_back(score);
      }
      for (const auto& [id, score] : want_view[spec.id]) {
        (void)id;
        want_scores.push_back(score);
      }
      std::sort(got_scores.begin(), got_scores.end());
      std::sort(want_scores.begin(), want_scores.end());
      EXPECT_EQ(got_scores, want_scores)
          << "delta views diverge for query " << spec.id << " at cycle "
          << ts;
    }
  }
}

TEST(RecoveryTest, FullReplayMatchesUninterruptedRun) {
  RunCrashRecoveryScenario(/*snapshot_every_cycles=*/0);
}

TEST(RecoveryTest, SnapshotPlusTailReplayMatchesUninterruptedRun) {
  RunCrashRecoveryScenario(/*snapshot_every_cycles=*/7);
}

TEST(RecoveryTest, EmptyOrMissingJournalDirIsAFreshStart) {
  ScopedTempDir dir;
  TmaEngine engine(TmaOptions());
  auto report = RecoveryDriver::Replay(dir.path(), engine);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->recovered);
  EXPECT_EQ(report->next_record_id, 0u);
  EXPECT_EQ(report->next_query_id, 1u);
  EXPECT_EQ(engine.WindowSize(), 0u);

  auto missing =
      RecoveryDriver::Replay("/tmp/topkmon-no-such-journal-999", engine);
  ASSERT_TRUE(missing.ok()) << missing.status();
  EXPECT_FALSE(missing->recovered);
}

/// Writes a small journal (1-record batches, no rotation) and returns the
/// segment path plus the number of cycles written.
std::string WriteSmallJournal(const std::string& dir, int cycles) {
  JournalOptions options;
  options.dir = dir;
  options.snapshot_every_cycles = 0;
  auto writer = CycleJournalWriter::Open(options, ImageAnchor());
  EXPECT_TRUE(writer.ok());
  for (Timestamp ts = 1; ts <= cycles; ++ts) {
    std::vector<Record> batch;
    batch.emplace_back(static_cast<RecordId>(ts - 1), Point{0.5, 0.5}, ts);
    EXPECT_TRUE((*writer)->AppendCycle(ts, batch).ok());
  }
  EXPECT_TRUE((*writer)->Close().ok());
  return (*writer)->current_segment_path();
}

TEST(RecoveryTest, TornFinalRecordIsTruncatedAndThePrefixReplays) {
  ScopedTempDir dir;
  const std::string path = WriteSmallJournal(dir.path(), 10);

  // Chop a few bytes off the end: the classic crash-mid-append tail.
  struct stat st;
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  ASSERT_EQ(::truncate(path.c_str(), st.st_size - 5), 0);

  TmaEngine engine(TmaOptions());
  auto report = RecoveryDriver::Replay(dir.path(), engine);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->recovered);
  EXPECT_TRUE(report->torn_tail);
  EXPECT_FALSE(report->corrupt_record);
  EXPECT_EQ(report->cycles_replayed, 9u) << "the torn 10th cycle is dropped";
  EXPECT_EQ(report->last_cycle_ts, 9);
  EXPECT_GT(report->tail_bytes_dropped, 0u);
  EXPECT_EQ(engine.WindowSize(), 9u);
}

TEST(RecoveryTest, CorruptCrcMidSegmentStopsReplayAtTheDamage) {
  ScopedTempDir dir;
  const std::string path = WriteSmallJournal(dir.path(), 10);

  // Flip one byte halfway into the file — inside some cycle record's
  // frame, well before the last one.
  struct stat st;
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  const long target = st.st_size / 2;
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, target, SEEK_SET), 0);
    const int orig = std::fgetc(f);
    ASSERT_NE(orig, EOF);
    ASSERT_EQ(std::fseek(f, target, SEEK_SET), 0);
    std::fputc(orig ^ 0xFF, f);
    std::fclose(f);
  }

  // Independently count how many records a reader still trusts.
  std::uint64_t good_cycles = 0;
  {
    auto reader = CycleJournalReader::Open(path);
    ASSERT_TRUE(reader.ok());
    (void)(*reader)->Next();  // anchor snapshot
    while (true) {
      auto outcome = (*reader)->Next();
      if (outcome.kind != CycleJournalReader::Kind::kRecord) {
        EXPECT_EQ(outcome.kind, CycleJournalReader::Kind::kCorrupt);
        break;
      }
      ++good_cycles;
    }
  }
  ASSERT_LT(good_cycles, 10u);

  TmaEngine engine(TmaOptions());
  auto report = RecoveryDriver::Replay(dir.path(), engine);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->recovered);
  EXPECT_TRUE(report->corrupt_record);
  EXPECT_FALSE(report->torn_tail);
  EXPECT_EQ(report->cycles_replayed, good_cycles);
  EXPECT_GT(report->tail_bytes_dropped, 0u);
  EXPECT_EQ(engine.WindowSize(), good_cycles);
}

TEST(RecoveryTest, QueryLifecycleEventsReplay) {
  ScopedTempDir dir;
  const auto specs = MakeRandomQueries(kDim, 3, 4, 77);
  {
    JournalOptions options;
    options.dir = dir.path();
    auto writer = CycleJournalWriter::Open(options, ImageAnchor());
    ASSERT_TRUE(writer.ok());
    // Register all three, run a cycle, unregister the second.
    for (const QuerySpec& spec : specs) {
      TOPKMON_ASSERT_OK((*writer)->AppendRegister({spec, "alice"}));
    }
    std::vector<Record> batch;
    for (RecordId id = 0; id < 20; ++id) {
      batch.emplace_back(id, Point{0.1 * static_cast<double>(id % 10),
                                   0.5},
                         1);
    }
    TOPKMON_ASSERT_OK((*writer)->AppendCycle(1, batch));
    TOPKMON_ASSERT_OK((*writer)->AppendUnregister(specs[1].id));
    TOPKMON_ASSERT_OK((*writer)->Close());
  }

  TmaEngine engine(TmaOptions());
  auto report = RecoveryDriver::Replay(dir.path(), engine);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->registers_replayed, 3u);
  EXPECT_EQ(report->unregisters_replayed, 1u);
  ASSERT_EQ(report->live_queries.size(), 2u);
  EXPECT_EQ(report->live_queries[0].spec.id, specs[0].id);
  EXPECT_EQ(report->live_queries[1].spec.id, specs[2].id);
  EXPECT_EQ(report->next_query_id,
            static_cast<std::uint64_t>(specs[2].id) + 1);
  EXPECT_TRUE(engine.CurrentResult(specs[0].id).ok());
  EXPECT_EQ(engine.CurrentResult(specs[1].id).status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(engine.CurrentResult(specs[2].id).ok());
}

// ---- exhaustive fault injection ---------------------------------------
//
// Recovery's contract under arbitrary single-point damage: every byte
// flip and every truncation of a segment must land in one of the clean
// outcomes — full replay (damage in ignored bytes), classified
// torn-tail/corrupt-record prefix replay, a skipped segment (damaged
// header or anchor → fresh start), or an explicit error — and the
// replayed window must always be an exact prefix of the undamaged run.
// Never a crash, never silently wrong data.

struct FaultTruth {
  std::string segment_path;
  std::string pristine;            ///< undamaged segment bytes
  std::vector<Record> window;      ///< undamaged final window (id order)
  std::uint64_t cycles = 0;
  std::size_t records_per_cycle = 0;
  /// File offsets that end a complete frame. A truncation at one of
  /// these is byte-identical to a journal that cleanly wrote fewer
  /// records — the only damage no tail-scanning WAL can flag.
  std::set<std::size_t> frame_boundaries;
};

void ComputeFrameBoundaries(FaultTruth* truth) {
  std::size_t off = 16;  // segment header
  while (off + 8 <= truth->pristine.size()) {
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>(static_cast<unsigned char>(
                 truth->pristine[off + static_cast<std::size_t>(i)]))
             << (8 * i);
    }
    off += 8 + len;
    if (off > truth->pristine.size()) break;
    truth->frame_boundaries.insert(off);
  }
}

/// Writes a small journal (1 register + `cycles` 2-record cycles) and
/// returns its bytes plus the ground-truth window.
FaultTruth WriteFaultJournal(const std::string& dir, int cycles) {
  FaultTruth truth;
  truth.cycles = static_cast<std::uint64_t>(cycles);
  truth.records_per_cycle = 2;
  JournalOptions options;
  options.dir = dir;
  options.snapshot_every_cycles = 0;
  auto writer = CycleJournalWriter::Open(options, ImageAnchor());
  EXPECT_TRUE(writer.ok());
  const auto specs = MakeRandomQueries(kDim, 1, 3, 55);
  EXPECT_TRUE((*writer)->AppendRegister({specs[0], "alice"}).ok());
  RecordId id = 0;
  for (Timestamp ts = 1; ts <= cycles; ++ts) {
    std::vector<Record> batch;
    for (std::size_t r = 0; r < truth.records_per_cycle; ++r) {
      batch.emplace_back(id, Point{0.05 * static_cast<double>(id % 20),
                                   0.07 * static_cast<double>(id % 13)},
                         ts);
      truth.window.push_back(batch.back());
      ++id;
    }
    EXPECT_TRUE((*writer)->AppendCycle(ts, batch).ok());
  }
  EXPECT_TRUE((*writer)->Close().ok());
  truth.segment_path = (*writer)->current_segment_path();
  std::FILE* f = std::fopen(truth.segment_path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    truth.pristine.append(buf, n);
  }
  std::fclose(f);
  ComputeFrameBoundaries(&truth);
  return truth;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// Recovers the (damaged) journal in `dir` and applies the common safety
/// assertions. `damaged_size` is the mutated file's length (a prefix
/// replay may end flag-free only when that length is a frame boundary);
/// `what` labels the mutation for failure messages.
void ExpectSafeRecovery(const std::string& dir, const FaultTruth& truth,
                        std::size_t damaged_size, const std::string& what) {
  TmaEngine engine(TmaOptions());
  const auto report = RecoveryDriver::Replay(dir, engine);
  if (!report.ok()) {
    // An explicit error must leave the engine untouched (operators can
    // retry against the intact bytes); I/O-level failures land here.
    EXPECT_EQ(engine.WindowSize(), 0u) << what;
    return;
  }
  if (!report->recovered) {
    // Damaged header or anchor snapshot: the segment is skipped whole —
    // a fresh start, never a partially trusted one.
    EXPECT_EQ(report->segments_skipped, 1u) << what;
    EXPECT_EQ(engine.WindowSize(), 0u) << what;
    return;
  }
  // Prefix replay: exactly the cycles before the damage, flagged as
  // torn/corrupt unless the replay is complete (then the damage was in
  // bytes the format ignores, e.g. the reserved header field).
  ASSERT_LE(report->cycles_replayed, truth.cycles) << what;
  if (report->cycles_replayed < truth.cycles ||
      report->registers_replayed == 0) {
    // Data was dropped: that must be classified — except for the one
    // undetectable case, a truncation landing exactly on a frame
    // boundary (indistinguishable from a journal that wrote less).
    EXPECT_TRUE(report->torn_tail || report->corrupt_record ||
                truth.frame_boundaries.count(damaged_size) > 0)
        << what << ": dropped data without classifying the damage";
  }
  const auto snapshot = engine.SnapshotState();
  ASSERT_TRUE(snapshot.ok()) << what;
  const std::size_t expect_records =
      static_cast<std::size_t>(report->cycles_replayed) *
      truth.records_per_cycle;
  ASSERT_EQ(snapshot->window.size(), expect_records) << what;
  for (std::size_t i = 0; i < snapshot->window.size(); ++i) {
    const Record& got = snapshot->window[i];
    const Record& want = truth.window[i];
    ASSERT_EQ(got.id, want.id) << what << " record " << i;
    ASSERT_EQ(got.arrival, want.arrival) << what << " record " << i;
    for (int d = 0; d < kDim; ++d) {
      ASSERT_EQ(got.position[d], want.position[d])
          << what << " record " << i;
    }
  }
}

TEST(RecoveryFaultInjectionTest, EveryByteFlipIsClassifiedAndSafe) {
  ScopedTempDir dir;
  const FaultTruth truth = WriteFaultJournal(dir.path(), 6);
  ASSERT_FALSE(truth.pristine.empty());
  for (std::size_t i = 0; i < truth.pristine.size(); ++i) {
    std::string damaged = truth.pristine;
    damaged[i] = static_cast<char>(damaged[i] ^ 0xFF);
    WriteBytes(truth.segment_path, damaged);
    // A flipped file keeps its full length: a flip is never allowed to
    // masquerade as a clean shorter journal, so the boundary exemption
    // in ExpectSafeRecovery cannot fire for a partial replay here
    // (pristine.size() is a boundary, but then nothing was dropped).
    ExpectSafeRecovery(dir.path(), truth, /*damaged_size=*/0,
                       "flip at byte " + std::to_string(i));
  }
}

TEST(RecoveryFaultInjectionTest, EveryTruncationIsClassifiedAndSafe) {
  ScopedTempDir dir;
  const FaultTruth truth = WriteFaultJournal(dir.path(), 6);
  ASSERT_FALSE(truth.pristine.empty());
  for (std::size_t len = 0; len < truth.pristine.size(); ++len) {
    WriteBytes(truth.segment_path, truth.pristine.substr(0, len));
    ExpectSafeRecovery(dir.path(), truth, len,
                       "truncation to " + std::to_string(len) + " bytes");
  }
}

TEST(RecoveryFaultInjectionTest, CombinedFlipPlusTruncationSpotChecks) {
  // A sparser sweep of two-fault combinations (flip then truncate): the
  // classification contract must hold under compound damage too.
  ScopedTempDir dir;
  const FaultTruth truth = WriteFaultJournal(dir.path(), 6);
  for (std::size_t i = 7; i < truth.pristine.size(); i += 23) {
    for (std::size_t len = truth.pristine.size() / 3;
         len < truth.pristine.size(); len += 41) {
      std::string damaged = truth.pristine.substr(0, len);
      if (i < damaged.size()) {
        damaged[i] = static_cast<char>(damaged[i] ^ 0x10);
      }
      WriteBytes(truth.segment_path, damaged);
      ExpectSafeRecovery(dir.path(), truth, len,
                         "flip@" + std::to_string(i) + "+trunc@" +
                             std::to_string(len));
    }
  }
}

TEST(RecoveryTest, ReplayIntoAUsedEngineIsRefused) {
  ScopedTempDir dir;
  WriteSmallJournal(dir.path(), 3);
  TmaEngine engine(TmaOptions());
  std::vector<Record> batch;
  batch.emplace_back(0, Point{0.5, 0.5}, 1);
  TOPKMON_ASSERT_OK(engine.ProcessCycle(1, batch));
  auto report = RecoveryDriver::Replay(dir.path(), engine);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

TEST(RecoveryTest, DimensionMismatchIsRefusedBeforeAnythingIsApplied) {
  ScopedTempDir dir;
  {
    // A journal whose anchor snapshot carries a 2-d window record.
    JournalOptions options;
    options.dir = dir.path();
    JournalSnapshot anchor;
    anchor.last_cycle_ts = 1;
    anchor.next_record_id = 1;
    anchor.window.emplace_back(0, Point{0.5, 0.5}, 1);
    auto writer = CycleJournalWriter::Open(options, ImageAnchor(anchor));
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  GridEngineOptions opt = TmaOptions();
  opt.dim = 3;
  TmaEngine engine(opt);
  auto report = RecoveryDriver::Replay(dir.path(), engine);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.WindowSize(), 0u);
}

}  // namespace
}  // namespace topkmon
