// Durability order: the file-system operations the journal writer and
// the fencing-epoch file make, in call order, recorded through the fs
// test hook. The transcripts pin the order docs/JOURNAL_FORMAT.md
// (rotation) and docs/REPLICATION.md (the EPOCH file) promise, and the
// failure cases drive a failing fdatasync, fsync or rename through the
// same hook.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "core/brute_force_engine.h"
#include "core/tma_engine.h"
#include "journal/format.h"
#include "journal/journal_reader.h"
#include "journal/journal_writer.h"
#include "journal/recovery.h"
#include "journal/wire.h"
#include "replica/lease.h"
#include "stream/generators.h"
#include "tests/journal/journal_test_util.h"
#include "tests/test_util.h"
#include "util/fs.h"

namespace topkmon {
namespace {

using ::topkmon::testing::FsTranscript;
using ::topkmon::testing::ImageAnchor;
using ::topkmon::testing::MakeRandomQueries;
using ::topkmon::testing::ScopedTempDir;

constexpr int kDim = 2;

/// The operations that change what is on disk or make it durable, plus
/// the listings garbage collection decides from.
const std::set<fs::Op> kMutations = {
    fs::Op::kOpen,    fs::Op::kWrite,  fs::Op::kWriteAt,  fs::Op::kDataSync,
    fs::Op::kSync,    fs::Op::kSyncDir, fs::Op::kRename,  fs::Op::kUnlink,
    fs::Op::kTruncate, fs::Op::kList,  fs::Op::kMkdir};

using Transcript = std::vector<std::string>;

std::string Seg(std::uint64_t index) { return SegmentFileName(index); }
/// The name a segment is created under, until its rename.
std::string Tmp(std::uint64_t index) { return Seg(index) + ".tmp"; }
/// The rename that lists segment `index`.
std::string Listed(std::uint64_t index) {
  return "rename " + Tmp(index) + " -> " + Seg(index);
}

std::vector<Record> OneRecord(Timestamp ts) {
  std::vector<Record> batch;
  batch.emplace_back(static_cast<RecordId>(ts), Point{0.25, 0.75}, ts);
  return batch;
}

JournalSnapshot AnchorAt(Timestamp ts) {
  JournalSnapshot snapshot;
  snapshot.last_cycle_ts = ts;
  snapshot.next_record_id = static_cast<RecordId>(ts) + 1;
  return snapshot;
}

TEST(DurabilityOrderTest, WriterRotationSyncsNewSegmentThenDeletesOld) {
  for (const std::uint64_t retain : {1u, 2u}) {
    ScopedTempDir dir;
    JournalOptions options;
    options.dir = dir.path();
    options.retain_segment_count = retain;
    FsTranscript transcript(dir.path(), kMutations);
    auto writer = CycleJournalWriter::Open(options, ImageAnchor());
    ASSERT_TRUE(writer.ok()) << writer.status();
    // GarbageCollect lists the directory once a segment could be old
    // enough to delete.
    Transcript want = {"mkdir .",          "list .",
                       "open " + Tmp(0),   "write " + Tmp(0),
                       "datasync " + Tmp(0), Listed(0),
                       "syncdir ."};
    if (retain == 1) want.push_back("list .");
    EXPECT_EQ(transcript.entries(), want) << "retain " << retain;

    TOPKMON_ASSERT_OK((*writer)->AppendCycle(1, OneRecord(1)));
    TOPKMON_ASSERT_OK(
        (*writer)->RotateWithSnapshot(ImageAnchor(AnchorAt(1))));
    TOPKMON_ASSERT_OK((*writer)->AppendCycle(2, OneRecord(2)));
    transcript.Clear();
    TOPKMON_ASSERT_OK(
        (*writer)->RotateWithSnapshot(ImageAnchor(AnchorAt(2))));
    // The new segment is synced under its temp name, renamed, and its
    // directory entry made durable before any superseded segment is
    // deleted.
    want = {"open " + Tmp(2), "write " + Tmp(2), "datasync " + Tmp(2),
            Listed(2),        "syncdir .",       "list .",
            "unlink " + Seg(retain == 1 ? 1 : 0)};
    EXPECT_EQ(transcript.entries(), want) << "retain " << retain;
    const auto anchored = ListSegments(dir.path());
    ASSERT_TRUE(anchored.ok());
    EXPECT_EQ(transcript.BytesWritten(Tmp(2)),
              std::filesystem::file_size(anchored->back().path))
        << "the anchor goes to disk in one write";
    TOPKMON_ASSERT_OK((*writer)->Close());
  }
}

TEST(DurabilityOrderTest, MultiChunkRotationWritesThePrologueLastThenSyncs) {
  // An anchor of 20000 records at d = 2 encodes to about 360 KB, so the
  // rotation streams it in several chunks of at most 64 KiB plus the
  // record that crossed the mark, then fills in the prologue.
  constexpr std::size_t kWindow = 20000;
  constexpr std::uint64_t kChunk = 64u << 10;
  constexpr std::uint64_t kRecordMax = 10 + 10 + 8 * kDim;
  ScopedTempDir dir;
  JournalOptions options;
  options.dir = dir.path();
  GridEngineOptions grid;
  grid.dim = kDim;
  grid.window = WindowSpec::Count(kWindow);
  TmaEngine engine(grid);
  const std::vector<QuerySpec> queries = MakeRandomQueries(kDim, 3, 5, 7);
  std::vector<JournaledQuery> live;
  for (const QuerySpec& q : queries) {
    TOPKMON_ASSERT_OK(engine.RegisterQuery(q));
    live.push_back(JournaledQuery{q, "owner"});
  }
  auto writer = CycleJournalWriter::Open(
      options, SnapshotAnchor{engine, 0, 100, live});
  ASSERT_TRUE(writer.ok()) << writer.status();
  RecordSource source(MakeGenerator(Distribution::kIndependent, kDim, 3));
  for (Timestamp ts = 1; ts <= 20; ++ts) {
    const std::vector<Record> batch = source.NextBatch(kWindow / 10, ts);
    TOPKMON_ASSERT_OK((*writer)->AppendCycle(ts, batch));
    TOPKMON_ASSERT_OK(engine.ProcessCycle(ts, batch));
  }
  ASSERT_EQ(engine.WindowSize(), kWindow);

  FsTranscript transcript(dir.path(), kMutations);
  const SnapshotAnchor anchor{engine, source.next_id(), 100, live};
  // A chunk that fails to write takes the half-made segment with it.
  transcript.FailWhen([](const std::vector<std::string>& so_far,
                         const std::string& entry) {
    return entry == "write " + Tmp(1) &&
           std::count(so_far.begin(), so_far.end(), entry) == 2;
  });
  EXPECT_FALSE((*writer)->RotateWithSnapshot(anchor).ok());
  EXPECT_EQ(transcript.entries().back(), "unlink " + Tmp(1));
  EXPECT_EQ(dir.Files(), std::vector<std::string>{Seg(0)});
  EXPECT_EQ((*writer)->current_segment_index(), 0u);
  transcript.FailWhen(nullptr);
  transcript.Clear();

  TOPKMON_ASSERT_OK((*writer)->RotateWithSnapshot(anchor));
  const std::vector<std::uint64_t> writes = transcript.WriteSizes(Tmp(1));
  ASSERT_GE(writes.size(), 4u) << "the anchor spans at least 4 chunks";
  Transcript want = {"open " + Tmp(1)};
  for (std::size_t i = 0; i < writes.size(); ++i) {
    want.push_back("write " + Tmp(1));
    EXPECT_LE(writes[i], kChunk + kRecordMax) << "write " << i;
    if (i + 1 < writes.size()) {
      EXPECT_GE(writes[i], kChunk) << "write " << i;
    }
  }
  want.insert(want.end(), {"pwrite " + Tmp(1), "datasync " + Tmp(1),
                           Listed(1), "syncdir .", "list .",
                           "unlink " + Seg(0)});
  EXPECT_EQ(transcript.entries(), want);
  const std::string path = dir.path() + "/" + Seg(1);
  EXPECT_EQ((*writer)->current_segment_path(), path);
  EXPECT_EQ(transcript.BytesWritten(Tmp(1)),
            std::filesystem::file_size(path));

  // The segment holds the bytes of the anchor encoded whole.
  JournalSnapshot image;
  image.last_cycle_ts = 20;
  image.next_record_id = source.next_id();
  image.next_query_id = 100;
  image.live_queries = live;
  auto state = engine.SnapshotState();
  ASSERT_TRUE(state.ok()) << state.status();
  image.window = std::move(state->window);
  std::string want_bytes;
  EncodeSegmentHeader(&want_bytes);
  std::string body;
  TOPKMON_ASSERT_OK(EncodeSnapshotBody(image, &body));
  wire::PutFrame(body, &want_bytes);
  auto got = fs::ReadFile(path, want_bytes.size() + 1);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(*got == want_bytes) << "segment differs from the whole anchor";
  TOPKMON_ASSERT_OK((*writer)->Close());
}

TEST(DurabilityOrderTest, WriterCloseSyncsTheCurrentSegment) {
  ScopedTempDir dir;
  JournalOptions options;
  options.dir = dir.path();
  auto writer = CycleJournalWriter::Open(options, ImageAnchor());
  ASSERT_TRUE(writer.ok()) << writer.status();
  FsTranscript transcript(dir.path(), kMutations);
  TOPKMON_ASSERT_OK((*writer)->AppendCycle(1, OneRecord(1)));
  TOPKMON_ASSERT_OK((*writer)->Close());
  TOPKMON_ASSERT_OK((*writer)->Close());  // idempotent: no second sync
  EXPECT_EQ(transcript.entries(),
            (Transcript{"write " + Seg(0), "datasync " + Seg(0)}));
}

TEST(DurabilityOrderTest, FailedRotationKeepsAppendingToThePreviousSegment) {
  // The rename is the rotation's commit point. A failed fdatasync comes
  // before it: the temp file goes and the writer stays on segment 0. A
  // failed directory fsync comes after it: segment 1 is listed, so the
  // writer moves onto it, owes the fsync to the next Sync, and keeps
  // segment 0 until that is paid.
  for (const fs::Op failing : {fs::Op::kDataSync, fs::Op::kSyncDir}) {
    const bool renamed = failing == fs::Op::kSyncDir;
    ScopedTempDir dir;
    JournalOptions options;
    options.dir = dir.path();
    auto writer = CycleJournalWriter::Open(options, ImageAnchor());
    ASSERT_TRUE(writer.ok()) << writer.status();
    TOPKMON_ASSERT_OK((*writer)->AppendCycle(1, OneRecord(1)));

    FsTranscript transcript(dir.path(), kMutations);
    const std::string fail = renamed ? "syncdir ." : "datasync " + Tmp(1);
    transcript.FailWhen([fail](const std::vector<std::string>&,
                               const std::string& entry) {
      return entry == fail;
    });
    JournalSnapshot image = AnchorAt(1);
    image.window = OneRecord(1);
    const Status rotated =
        (*writer)->RotateWithSnapshot(ImageAnchor(std::move(image)));
    EXPECT_FALSE(rotated.ok());
    EXPECT_NE(rotated.message().find("injected failure"), std::string::npos)
        << rotated;
    EXPECT_EQ((*writer)->current_segment_index(), renamed ? 1u : 0u);
    // Nothing old was deleted; the half-made segment is gone, or the
    // renamed one stays.
    EXPECT_EQ(transcript.entries().back(),
              renamed ? "syncdir . [failed]" : "unlink " + Tmp(1));
    auto segments = ListSegments(dir.path());
    ASSERT_TRUE(segments.ok());
    ASSERT_EQ(segments->size(), renamed ? 2u : 1u);
    EXPECT_EQ(segments->front().index, 0u);

    transcript.FailWhen(nullptr);
    TOPKMON_ASSERT_OK((*writer)->AppendCycle(2, OneRecord(2)));
    TOPKMON_ASSERT_OK((*writer)->AppendCycle(3, OneRecord(3)));
    transcript.Clear();
    TOPKMON_ASSERT_OK((*writer)->Sync());
    const Transcript paid = {"syncdir .", "list .", "unlink " + Seg(0),
                             "datasync " + Seg(1)};
    const Transcript synced = {"datasync " + Seg(0)};
    EXPECT_EQ(transcript.entries(), renamed ? paid : synced);
    TOPKMON_ASSERT_OK((*writer)->Close());

    BruteForceEngine engine(kDim, WindowSpec::Count(100));
    const auto report = RecoveryDriver::Replay(dir.path(), engine);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(report->recovered);
    EXPECT_EQ(report->cycles_replayed, renamed ? 2u : 3u);
    EXPECT_EQ(report->last_cycle_ts, 3);
    EXPECT_EQ(engine.WindowSize(), 3u);
  }
}

TEST(DurabilityOrderTest, OwedDirectoryFsyncIsPaidBeforeTheOldSegmentGoes) {
  // A Sync whose payment of the owed fsync fails again reports it and
  // deletes nothing; the next Sync pays, then deletes segment 0, then
  // fdatasyncs. With nothing owed and nothing appended, Sync does nothing.
  ScopedTempDir dir;
  JournalOptions options;
  options.dir = dir.path();
  auto writer = CycleJournalWriter::Open(options, ImageAnchor());
  ASSERT_TRUE(writer.ok()) << writer.status();
  FsTranscript transcript(dir.path(), kMutations);
  transcript.FailWhen([](const std::vector<std::string>&,
                         const std::string& entry) {
    return entry == "syncdir .";
  });
  EXPECT_FALSE((*writer)->RotateWithSnapshot(ImageAnchor()).ok());
  EXPECT_FALSE((*writer)->Sync().ok()) << "only the fsync is owed";
  EXPECT_EQ(transcript.entries().back(), "syncdir . [failed]");
  std::vector<std::string> files = dir.Files();
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{Seg(0), Seg(1)}));

  transcript.FailWhen(nullptr);
  transcript.Clear();
  TOPKMON_ASSERT_OK((*writer)->Sync());
  TOPKMON_ASSERT_OK((*writer)->Sync());
  EXPECT_EQ(transcript.entries(),
            (Transcript{"syncdir .", "list .", "unlink " + Seg(0),
                        "datasync " + Seg(1)}));
  EXPECT_EQ(dir.Files(), std::vector<std::string>{Seg(1)});
  TOPKMON_ASSERT_OK((*writer)->Close());
}

TEST(DurabilityOrderTest, FencingEpochIsReplacedThroughASyncedTempFile) {
  ScopedTempDir dir;
  FsTranscript transcript(dir.path(), kMutations);
  TOPKMON_ASSERT_OK(WriteFencingEpoch(dir.path(), 261));
  EXPECT_EQ(transcript.entries(),
            (Transcript{"mkdir .", "open EPOCH.tmp", "write EPOCH.tmp",
                        "fsync EPOCH.tmp", "rename EPOCH.tmp -> EPOCH",
                        "syncdir ."}));
  EXPECT_EQ(transcript.BytesWritten("EPOCH.tmp"), 4u) << "\"261\\n\"";
  const auto epoch = ReadFencingEpoch(dir.path());
  ASSERT_TRUE(epoch.ok()) << epoch.status();
  EXPECT_EQ(*epoch, 261u);
}

TEST(DurabilityOrderTest, FailedFencingEpochWriteLeavesTheOldEpoch) {
  for (const std::string fail :
       {"fsync EPOCH.tmp", "rename EPOCH.tmp -> EPOCH"}) {
    ScopedTempDir dir;
    TOPKMON_ASSERT_OK(WriteFencingEpoch(dir.path(), 5));
    FsTranscript transcript(dir.path(), kMutations);
    transcript.FailWhen([fail](const std::vector<std::string>&,
                               const std::string& entry) {
      return entry == fail;
    });
    EXPECT_FALSE(WriteFencingEpoch(dir.path(), 9).ok()) << fail;
    EXPECT_EQ(transcript.entries().back(), "unlink EPOCH.tmp") << fail;
    const auto epoch = ReadFencingEpoch(dir.path());
    ASSERT_TRUE(epoch.ok()) << epoch.status();
    EXPECT_EQ(*epoch, 5u) << fail;
    EXPECT_EQ(dir.Files(), std::vector<std::string>{"EPOCH"}) << fail;
  }
}

TEST(DurabilityOrderTest, FsReportsMissingFilesAsNotFound) {
  ScopedTempDir dir;
  const std::string missing = dir.path() + "/missing";
  EXPECT_EQ(fs::Open(missing, fs::OpenMode::kReadOnly).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(fs::ReadFile(missing, 8).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(fs::Unlink(missing).code(), StatusCode::kNotFound);
  EXPECT_EQ(fs::Truncate(missing, 0).code(), StatusCode::kNotFound);
  EXPECT_EQ(fs::ListDir(missing).status().code(), StatusCode::kNotFound);
  const auto epoch = ReadFencingEpoch(missing);
  ASSERT_TRUE(epoch.ok()) << epoch.status();
  EXPECT_EQ(*epoch, 0u) << "no EPOCH file is epoch 0";
}

TEST(DurabilityOrderTest, HookFailsAnOperationWithoutMakingTheCall) {
  ScopedTempDir dir;
  FsTranscript transcript(dir.path(), {fs::Op::kOpen, fs::Op::kWrite});
  transcript.FailWhen([](const std::vector<std::string>&,
                         const std::string& entry) {
    return entry == "write f";
  });
  auto file = fs::Open(dir.path() + "/f", fs::OpenMode::kCreateTruncate);
  ASSERT_TRUE(file.ok()) << file.status();
  EXPECT_FALSE(file->Write("abc").ok());
  const auto size = file->Size();
  ASSERT_TRUE(size.ok()) << size.status();
  EXPECT_EQ(*size, 0u) << "the failed write never reached the file";
  transcript.FailWhen(nullptr);
  TOPKMON_ASSERT_OK(file->Write("abc"));
  TOPKMON_ASSERT_OK(file->Close());
  const auto bytes = fs::ReadFile(dir.path() + "/f", 2);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  EXPECT_EQ(*bytes, "ab");
  EXPECT_EQ(transcript.entries(),
            (Transcript{"open f", "write f [failed]", "write f", "open f"}));
}

}  // namespace
}  // namespace topkmon
