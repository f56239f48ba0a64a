#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "journal/journal_reader.h"
#include "journal/journal_writer.h"
#include "tests/journal/journal_test_util.h"
#include "util/clock.h"

namespace topkmon {
namespace {

using ::topkmon::testing::ImageAnchor;
using ::topkmon::testing::ScopedTempDir;

std::vector<Record> OneRecordBatch(RecordId id, Timestamp ts) {
  std::vector<Record> batch;
  batch.emplace_back(id, Point{0.3, 0.4}, ts);
  return batch;
}

JournaledQuery LinearQuery(QueryId id, const std::string& label) {
  JournaledQuery q;
  q.spec.id = id;
  q.spec.k = 2;
  q.spec.function =
      std::make_shared<LinearFunction>(std::vector<double>{0.5, 0.5});
  q.owner_label = label;
  return q;
}

TEST(JournalIoTest, WritesReadBackInOrder) {
  ScopedTempDir dir;
  JournalOptions options;
  options.dir = dir.path();
  auto writer = CycleJournalWriter::Open(options, ImageAnchor());
  ASSERT_TRUE(writer.ok()) << writer.status();

  ASSERT_TRUE((*writer)->AppendRegister(LinearQuery(1, "alice")).ok());
  ASSERT_TRUE((*writer)->AppendCycle(10, OneRecordBatch(0, 10)).ok());
  ASSERT_TRUE((*writer)->AppendCycle(11, OneRecordBatch(1, 11)).ok());
  ASSERT_TRUE((*writer)->AppendUnregister(1).ok());
  ASSERT_TRUE((*writer)->Close().ok());

  auto segments = ListSegments(dir.path());
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 1u);
  auto reader = CycleJournalReader::Open((*segments)[0].path);
  ASSERT_TRUE(reader.ok()) << reader.status();

  auto next = (*reader)->Next();
  ASSERT_EQ(next.kind, CycleJournalReader::Kind::kRecord);
  EXPECT_EQ(next.record.type, JournalRecordType::kSnapshot);

  next = (*reader)->Next();
  ASSERT_EQ(next.kind, CycleJournalReader::Kind::kRecord);
  ASSERT_EQ(next.record.type, JournalRecordType::kRegister);
  EXPECT_EQ(next.record.query.spec.id, 1u);
  EXPECT_EQ(next.record.query.owner_label, "alice");

  next = (*reader)->Next();
  ASSERT_EQ(next.record.type, JournalRecordType::kCycle);
  EXPECT_EQ(next.record.cycle_ts, 10);
  next = (*reader)->Next();
  ASSERT_EQ(next.record.type, JournalRecordType::kCycle);
  EXPECT_EQ(next.record.cycle_ts, 11);

  next = (*reader)->Next();
  ASSERT_EQ(next.record.type, JournalRecordType::kUnregister);
  EXPECT_EQ(next.record.unregistered, 1u);

  EXPECT_EQ((*reader)->Next().kind, CycleJournalReader::Kind::kEnd);
  // Terminal outcomes are sticky.
  EXPECT_EQ((*reader)->Next().kind, CycleJournalReader::Kind::kEnd);
}

TEST(JournalIoTest, RotationAnchorsNewSegmentsAndCollectsOldOnes) {
  ScopedTempDir dir;
  JournalOptions options;
  options.dir = dir.path();
  options.snapshot_every_cycles = 2;
  auto writer = CycleJournalWriter::Open(options, ImageAnchor());
  ASSERT_TRUE(writer.ok()) << writer.status();

  EXPECT_FALSE((*writer)->SnapshotDue());
  ASSERT_TRUE((*writer)->AppendCycle(1, OneRecordBatch(0, 1)).ok());
  EXPECT_FALSE((*writer)->SnapshotDue());
  ASSERT_TRUE((*writer)->AppendCycle(2, OneRecordBatch(1, 2)).ok());
  EXPECT_TRUE((*writer)->SnapshotDue());

  JournalSnapshot snap;
  snap.last_cycle_ts = 2;
  snap.next_record_id = 2;
  snap.window = OneRecordBatch(1, 2);
  ASSERT_TRUE((*writer)->RotateWithSnapshot(ImageAnchor(snap)).ok());
  EXPECT_EQ((*writer)->current_segment_index(), 1u);
  EXPECT_FALSE((*writer)->SnapshotDue());

  // The superseded segment 0 is gone; segment 1 starts with the snapshot.
  auto segments = ListSegments(dir.path());
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 1u);
  EXPECT_EQ((*segments)[0].index, 1u);
  auto reader = CycleJournalReader::Open((*segments)[0].path);
  ASSERT_TRUE(reader.ok());
  auto first = (*reader)->Next();
  ASSERT_EQ(first.kind, CycleJournalReader::Kind::kRecord);
  ASSERT_EQ(first.record.type, JournalRecordType::kSnapshot);
  EXPECT_EQ(first.record.snapshot.last_cycle_ts, 2);
  ASSERT_EQ(first.record.snapshot.window.size(), 1u);
  EXPECT_EQ((*writer)->stats().segments_deleted, 1u);
}

TEST(JournalIoTest, GroupCommitSyncsOnCycleCountAndOnTheTimeTrigger) {
  ScopedTempDir dir;
  JournalOptions options;
  options.dir = dir.path();
  options.sync = SyncPolicy::kInterval;
  options.sync_every_records = 1000;  // never trips in this test
  options.sync_interval_cycles = 4;   // the group-commit batch size
  auto writer = CycleJournalWriter::Open(options, ImageAnchor());
  ASSERT_TRUE(writer.ok()) << writer.status();
  const std::uint64_t base = (*writer)->stats().sync_calls;  // anchor sync

  // 8 cycles at 4 cycles per group commit: exactly 2 syncs.
  for (Timestamp ts = 1; ts <= 8; ++ts) {
    ASSERT_TRUE((*writer)
                    ->AppendCycle(ts, OneRecordBatch(
                                          static_cast<RecordId>(ts), ts))
                    .ok());
  }
  EXPECT_EQ((*writer)->stats().sync_calls, base + 2);

  // Non-cycle records ride along in the batch without forcing a sync.
  ASSERT_TRUE((*writer)->AppendRegister(LinearQuery(1, "alice")).ok());
  EXPECT_EQ((*writer)->stats().sync_calls, base + 2);

  // The explicit barrier flushes the partial batch; a second call is a
  // no-op because nothing is unsynced.
  ASSERT_TRUE((*writer)->Sync().ok());
  EXPECT_EQ((*writer)->stats().sync_calls, base + 3);
  ASSERT_TRUE((*writer)->Sync().ok());
  EXPECT_EQ((*writer)->stats().sync_calls, base + 3);

  // Time trigger, on the writer's clock frozen and advanced by hand: the
  // idle-path SyncIfDue syncs pending appends — and only pending ones —
  // once the interval has elapsed, and not a tick before.
  ASSERT_TRUE((*writer)->SyncIfDue().ok());
  EXPECT_EQ((*writer)->stats().sync_calls, base + 3) << "nothing pending";
  auto timed = options;
  timed.sync_interval_cycles = 0;
  timed.sync_interval_ms = std::chrono::milliseconds(1);
  ScopedTempDir dir2;
  timed.dir = dir2.path();
  Clock clock;
  clock.Freeze();
  auto writer2 = CycleJournalWriter::Open(timed, ImageAnchor(),
                                          /*resuming=*/false, &clock);
  ASSERT_TRUE(writer2.ok()) << writer2.status();
  const std::uint64_t base2 = (*writer2)->stats().sync_calls;
  ASSERT_TRUE((*writer2)->AppendRegister(LinearQuery(1, "bob")).ok());
  clock.Advance(std::chrono::microseconds(999));
  ASSERT_TRUE((*writer2)->SyncIfDue().ok());
  EXPECT_EQ((*writer2)->stats().sync_calls, base2) << "interval not elapsed";
  clock.Advance(std::chrono::microseconds(1));
  ASSERT_TRUE((*writer2)->SyncIfDue().ok());
  EXPECT_EQ((*writer2)->stats().sync_calls, base2 + 1);
  ASSERT_TRUE((*writer2)->Close().ok());
  ASSERT_TRUE((*writer)->Close().ok());
}

TEST(JournalIoTest, RetainSegmentCountKeepsAReplicationHorizon) {
  ScopedTempDir dir;
  JournalOptions options;
  options.dir = dir.path();
  options.retain_segment_count = 2;
  auto writer = CycleJournalWriter::Open(options, ImageAnchor());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendCycle(1, OneRecordBatch(0, 1)).ok());
  ASSERT_TRUE((*writer)->RotateWithSnapshot(ImageAnchor()).ok());
  auto segments = ListSegments(dir.path());
  ASSERT_TRUE(segments.ok());
  EXPECT_EQ(segments->size(), 2u) << "previous segment survives";
  ASSERT_TRUE((*writer)->RotateWithSnapshot(ImageAnchor()).ok());
  segments = ListSegments(dir.path());
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 2u);
  EXPECT_EQ(segments->front().index, 1u) << "only the oldest is collected";
  ASSERT_TRUE((*writer)->Close().ok());
}

TEST(JournalIoTest, RetainOldSegmentsKeepsHistory) {
  ScopedTempDir dir;
  JournalOptions options;
  options.dir = dir.path();
  options.retain_old_segments = true;
  auto writer = CycleJournalWriter::Open(options, ImageAnchor());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendCycle(1, OneRecordBatch(0, 1)).ok());
  ASSERT_TRUE((*writer)->RotateWithSnapshot(ImageAnchor()).ok());
  auto segments = ListSegments(dir.path());
  ASSERT_TRUE(segments.ok());
  EXPECT_EQ(segments->size(), 2u);
}

TEST(JournalIoTest, FreshOpenRefusesADirectoryWithHistory) {
  ScopedTempDir dir;
  JournalOptions options;
  options.dir = dir.path();
  {
    auto writer = CycleJournalWriter::Open(options, ImageAnchor());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  auto second = CycleJournalWriter::Open(options, ImageAnchor());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
  // Resuming (the recovery path) appends a new segment instead.
  auto resumed =
      CycleJournalWriter::Open(options, ImageAnchor(), /*resuming=*/true);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ((*resumed)->current_segment_index(), 1u);
}

TEST(JournalIoTest, AppendsAfterCloseFail) {
  ScopedTempDir dir;
  JournalOptions options;
  options.dir = dir.path();
  auto writer = CycleJournalWriter::Open(options, ImageAnchor());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_TRUE((*writer)->closed());
  EXPECT_EQ((*writer)->AppendCycle(1, OneRecordBatch(0, 1)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*writer)->RotateWithSnapshot(ImageAnchor()).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE((*writer)->Close().ok()) << "Close is idempotent";
}

TEST(JournalIoTest, SyncPoliciesParseAndCount) {
  EXPECT_EQ(*ParseSyncPolicy("none"), SyncPolicy::kNone);
  EXPECT_EQ(*ParseSyncPolicy("interval"), SyncPolicy::kInterval);
  EXPECT_EQ(*ParseSyncPolicy("always"), SyncPolicy::kAlways);
  EXPECT_FALSE(ParseSyncPolicy("sometimes").ok());

  ScopedTempDir dir;
  JournalOptions options;
  options.dir = dir.path();
  options.sync = SyncPolicy::kAlways;
  auto writer = CycleJournalWriter::Open(options, ImageAnchor());
  ASSERT_TRUE(writer.ok());
  const std::uint64_t baseline = (*writer)->stats().sync_calls;
  ASSERT_TRUE((*writer)->AppendCycle(1, OneRecordBatch(0, 1)).ok());
  ASSERT_TRUE((*writer)->AppendCycle(2, OneRecordBatch(1, 2)).ok());
  EXPECT_EQ((*writer)->stats().sync_calls, baseline + 2);
}

TEST(JournalIoTest, ListSegmentsOnMissingDirectoryIsEmptyNotAnError) {
  auto segments = ListSegments("/tmp/topkmon-does-not-exist-12345");
  ASSERT_TRUE(segments.ok());
  EXPECT_TRUE(segments->empty());
}

}  // namespace
}  // namespace topkmon
