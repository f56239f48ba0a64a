#include "journal/journal_writer.h"

#include <utility>

#include "journal/journal_reader.h"
#include "journal/wire.h"

namespace topkmon {
namespace {

/// The clock of a writer whose owner has no node clock: never frozen.
const Clock kRunningClock;

}  // namespace

Result<SyncPolicy> ParseSyncPolicy(const std::string& name) {
  if (name == "none") return SyncPolicy::kNone;
  if (name == "interval") return SyncPolicy::kInterval;
  if (name == "always") return SyncPolicy::kAlways;
  return Status::InvalidArgument("unknown sync policy '" + name +
                                 "' (expected none|interval|always)");
}

const char* SyncPolicyName(SyncPolicy policy) {
  switch (policy) {
    case SyncPolicy::kNone: return "none";
    case SyncPolicy::kInterval: return "interval";
    case SyncPolicy::kAlways: return "always";
  }
  return "?";
}

CycleJournalWriter::CycleJournalWriter(const JournalOptions& options,
                                       std::uint64_t next_index,
                                       const Clock& clock)
    : options_(options), clock_(clock), segment_index_(next_index) {}

Result<std::unique_ptr<CycleJournalWriter>> CycleJournalWriter::Open(
    const JournalOptions& options, const SnapshotAnchor& initial,
    bool resuming, const Clock* clock) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("journal directory is empty");
  }
  TOPKMON_RETURN_IF_ERROR(fs::MakeDirs(options.dir));
  auto existing = ListSegments(options.dir);
  if (!existing.ok()) return existing.status();
  const std::uint64_t next_index =
      existing->empty() ? 0 : existing->back().index + 1;
  if (!resuming && next_index != 0) {
    return Status::FailedPrecondition(
        "journal directory " + options.dir + " already holds " +
        std::to_string(existing->size()) +
        " segment(s); recover it (MonitorService::Open) or point the "
        "writer at an empty directory");
  }
  std::unique_ptr<CycleJournalWriter> writer(
      new CycleJournalWriter(options, next_index,
                             clock != nullptr ? *clock : kRunningClock));
  TOPKMON_RETURN_IF_ERROR(writer->OpenSegment(initial, next_index));
  return writer;
}

CycleJournalWriter::~CycleJournalWriter() { Close(); }

namespace {

/// Streams a segment's anchor frame to disk while it is encoded, under
/// the segment's temp name, which ListSegments never lists. The buffer
/// starts with the segment header and a placeholder prologue, and the
/// snapshot body is encoded behind them. Each time the buffer reaches
/// kAnchorChunkBytes it is written out and emptied, and the body's length
/// and CRC-32C are carried across chunks. Finish writes the rest and then
/// the prologue at its place (pwrite), or, when the whole frame fitted in
/// one chunk, seals it in place and writes it once; fs::CommitCreate then
/// syncs it and renames it to its segment name, or unlinks it. The file
/// is created at the first write.
class AnchorStream final : public SnapshotDrain {
 public:
  AnchorStream(std::string dir, std::uint64_t index)
      : dir_(std::move(dir)), name_(SegmentFileName(index)) {}

  Status Drain(std::string* buf) override {
    TOPKMON_RETURN_IF_ERROR(Create());
    return WriteOut(buf);
  }

  /// Ends the stream whose encode returned `encoded` and commits the
  /// segment. Returns the first failure; file() is open, under the
  /// segment's name, once the rename was made.
  Status Finish(Status encoded, std::string* buf) {
    if (!encoded.ok() && !file_.is_open()) return encoded;  // nothing made
    Status st = std::move(encoded);
    if (st.ok() && !file_.is_open()) {
      // The whole frame fitted in one chunk: seal it in place, write once.
      wire::SealFrame(kSegmentHeaderBytes, buf);
      TOPKMON_RETURN_IF_ERROR(Create());
      st = file_.Write(*buf);
      bytes_ = buf->size();
    } else if (st.ok()) {
      st = WriteOut(buf);
      char prologue[wire::kFrameHeaderBytes];
      wire::PutFramePrologue(static_cast<std::uint32_t>(body_bytes_), crc_,
                             prologue);
      if (st.ok()) {
        st = file_.WriteAt(kSegmentHeaderBytes, prologue, sizeof(prologue));
      }
    }
    return fs::CommitCreate(dir_, name_, &file_, std::move(st));
  }

  fs::File& file() { return file_; }
  /// Bytes written to the segment.
  std::size_t bytes() const { return bytes_; }

 private:
  Status Create() {
    if (file_.is_open()) return Status::Ok();
    auto file = fs::Open(dir_ + "/" + name_ + ".tmp",
                         fs::OpenMode::kCreateTruncate);
    if (!file.ok()) return file.status();
    file_ = std::move(*file);
    return Status::Ok();
  }

  /// Writes *buf out, folding its body bytes into the length and CRC,
  /// and empties it.
  Status WriteOut(std::string* buf) {
    const std::size_t body = buf->size() - body_from_;
    crc_ = wire::Crc32(buf->data() + body_from_, body, crc_);
    body_bytes_ += body;
    body_from_ = 0;
    TOPKMON_RETURN_IF_ERROR(file_.Write(*buf));
    bytes_ += buf->size();
    buf->clear();
    return Status::Ok();
  }

  const std::string dir_;
  const std::string name_;  ///< the segment's name; the temp name adds .tmp
  fs::File file_;
  /// Where the body starts in the buffer: behind the header and the
  /// prologue until the first chunk is out.
  std::size_t body_from_ = kSegmentHeaderBytes + wire::kFrameHeaderBytes;
  std::size_t body_bytes_ = 0;
  std::uint32_t crc_ = 0;
  std::size_t bytes_ = 0;
};

}  // namespace

Status CycleJournalWriter::OpenSegment(const SnapshotAnchor& anchor,
                                       std::uint64_t index) {
  // Build the new segment on local state under its temp name. The
  // snapshot is the recovery anchor: it is always synced before the
  // rename, and the rename's directory entry after it.
  AnchorStream stream(options_.dir, index);
  frame_scratch_.clear();
  EncodeSegmentHeader(&frame_scratch_);
  frame_scratch_.resize(kSegmentHeaderBytes + wire::kFrameHeaderBytes);
  Status st = EncodeSnapshotBody(anchor, &frame_scratch_, &stream);
  if (st.ok()) ++stats_.sync_calls;
  st = stream.Finish(std::move(st), &frame_scratch_);
  frame_scratch_.clear();
  if (!st.ok()) ++stats_.append_failures;
  // The rename is the commit point. Before it, a failure leaves the
  // current segment (and every member) exactly as it was, so appends keep
  // landing somewhere recovery can read. From it on the new segment is
  // listed and may already be shipped, so the writer moves onto it and
  // never unlinks it; a failed directory fsync is owed to the next sync
  // barrier, and the superseded segments stay until it is paid.
  if (!stream.file().is_open()) return st;
  file_ = std::move(stream.file());  // the old segment closes here
  segment_index_ = index;
  segment_bytes_ = stream.bytes();
  cycles_in_segment_ = 0;
  appends_since_sync_ = 0;
  cycles_since_sync_ = 0;
  last_sync_time_ = clock_.Now();
  stats_.bytes_written += stream.bytes();
  ++stats_.segments_created;
  ++stats_.snapshots_written;
  dir_sync_owed_ = !st.ok();
  if (st.ok()) GarbageCollect();
  return st;
}

Status CycleJournalWriter::SyncFd() {
  if (dir_sync_owed_) {
    TOPKMON_RETURN_IF_ERROR(fs::SyncDir(options_.dir));
    dir_sync_owed_ = false;
    GarbageCollect();
  }
  ++stats_.sync_calls;
  const auto start = Clock::RealNow();
  const Status st = file_.DataSync();
  if (fsync_histogram_ != nullptr) {
    fsync_histogram_->Record(Clock::RealNow() - start);
  }
  if (!st.ok()) {
    // The tail is still only in page cache: leave the group-commit
    // counters armed so the next append / Sync / SyncIfDue retries
    // instead of reporting the unsynced tail durable.
    return st;
  }
  appends_since_sync_ = 0;
  cycles_since_sync_ = 0;
  last_sync_time_ = clock_.Now();
  return Status::Ok();
}

Status CycleJournalWriter::SyncIfDue() {
  if (closed() || appends_since_sync_ == 0) return Status::Ok();
  if (options_.sync != SyncPolicy::kInterval ||
      options_.sync_interval_ms.count() <= 0 ||
      clock_.Now() - last_sync_time_ < options_.sync_interval_ms) {
    return Status::Ok();
  }
  Status st = SyncFd();
  if (!st.ok()) ++stats_.append_failures;
  return st;
}

Status CycleJournalWriter::Sync() {
  if (closed()) {
    return Status::FailedPrecondition("journal writer is closed");
  }
  if (appends_since_sync_ == 0 && !dir_sync_owed_) return Status::Ok();
  Status st = SyncFd();
  if (!st.ok()) ++stats_.append_failures;
  return st;
}

void CycleJournalWriter::GarbageCollect() {
  if (options_.retain_old_segments) return;
  // Keep the newest retain_segment_count segments (the current one plus
  // the replication horizon); everything older is superseded history.
  const std::uint64_t keep = std::max<std::uint64_t>(
      1, options_.retain_segment_count);
  if (segment_index_ + 1 < keep) return;  // nothing old enough yet
  const std::uint64_t first_kept = segment_index_ + 1 - keep;
  auto existing = ListSegments(options_.dir);
  if (!existing.ok()) return;  // best-effort
  for (const SegmentInfo& segment : *existing) {
    if (segment.index >= first_kept) continue;
    if (fs::Unlink(segment.path).ok()) ++stats_.segments_deleted;
  }
}

Status CycleJournalWriter::AppendScratchFrame(bool is_cycle) {
  if (closed()) {
    ++stats_.append_failures;
    return Status::FailedPrecondition("journal writer is closed");
  }
  wire::SealFrame(0, &frame_scratch_);
  Status st = file_.Write(frame_scratch_);
  if (st.ok()) {
    segment_bytes_ += frame_scratch_.size();
    stats_.bytes_written += frame_scratch_.size();
    ++appends_since_sync_;
    if (is_cycle) ++cycles_since_sync_;
    bool sync_now = options_.sync == SyncPolicy::kAlways;
    if (options_.sync == SyncPolicy::kInterval) {
      // Group commit: whichever batching threshold trips first.
      sync_now =
          appends_since_sync_ >= std::max<std::uint64_t>(
                                     1, options_.sync_every_records) ||
          (options_.sync_interval_cycles > 0 &&
           cycles_since_sync_ >= options_.sync_interval_cycles) ||
          (options_.sync_interval_ms.count() > 0 &&
           clock_.Now() - last_sync_time_ >= options_.sync_interval_ms);
    }
    if (sync_now) st = SyncFd();
  }
  if (!st.ok()) {
    ++stats_.append_failures;
    return st;
  }
  ++stats_.records_appended;
  if (is_cycle) {
    ++stats_.cycles_appended;
    ++cycles_in_segment_;
  }
  return Status::Ok();
}

Status CycleJournalWriter::AppendCycle(Timestamp ts, RecordSpan batch) {
  frame_scratch_.assign(wire::kFrameHeaderBytes, '\0');  // prologue
  EncodeCycleBody(ts, batch, &frame_scratch_);
  return AppendScratchFrame(/*is_cycle=*/true);
}

Status CycleJournalWriter::AppendRegister(const JournaledQuery& query) {
  frame_scratch_.assign(wire::kFrameHeaderBytes, '\0');
  // An encode refusal (Unimplemented: non-journalable scoring function)
  // is a rejection of the caller's input, not a journal failure — the
  // segment is untouched and stays healthy.
  TOPKMON_RETURN_IF_ERROR(EncodeRegisterBody(query, &frame_scratch_));
  return AppendScratchFrame(/*is_cycle=*/false);
}

Status CycleJournalWriter::AppendUnregister(QueryId id) {
  frame_scratch_.assign(wire::kFrameHeaderBytes, '\0');
  EncodeUnregisterBody(id, &frame_scratch_);
  return AppendScratchFrame(/*is_cycle=*/false);
}

bool CycleJournalWriter::SnapshotDue() const {
  if (closed()) return false;
  if (segment_bytes_ >= options_.segment_bytes) return true;
  return options_.snapshot_every_cycles > 0 &&
         cycles_in_segment_ >= options_.snapshot_every_cycles;
}

Status CycleJournalWriter::RotateWithSnapshot(const SnapshotAnchor& anchor) {
  if (closed()) {
    return Status::FailedPrecondition("journal writer is closed");
  }
  return OpenSegment(anchor, segment_index_ + 1);
}

Status CycleJournalWriter::Close() {
  if (closed()) return Status::Ok();
  const Status synced = SyncFd();
  const Status closed = file_.Close();
  return synced.ok() ? closed : synced;
}

}  // namespace topkmon
