#include "journal/journal_writer.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "journal/journal_reader.h"
#include "util/fs.h"

namespace topkmon {
namespace {

using fs::ErrnoStatus;
using fs::MakeDirs;

/// Writes all of `bytes` to `fd`, riding out EINTR and partial writes.
Status WriteAllTo(int fd, const std::string& path,
                  const std::string& bytes) {
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write " + path, errno);
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

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
                                       std::uint64_t next_index)
    : options_(options), segment_index_(next_index) {}

Result<std::unique_ptr<CycleJournalWriter>> CycleJournalWriter::Open(
    const JournalOptions& options, const JournalSnapshot& initial,
    bool resuming) {
  return OpenAnchored(options, initial, resuming);
}

Result<std::unique_ptr<CycleJournalWriter>> CycleJournalWriter::Open(
    const JournalOptions& options, const SnapshotAnchor& initial,
    bool resuming) {
  return OpenAnchored(options, initial, resuming);
}

template <typename Anchor>
Result<std::unique_ptr<CycleJournalWriter>> CycleJournalWriter::OpenAnchored(
    const JournalOptions& options, const Anchor& initial, bool resuming) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("journal directory is empty");
  }
  TOPKMON_RETURN_IF_ERROR(MakeDirs(options.dir));
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
      new CycleJournalWriter(options, next_index));
  TOPKMON_RETURN_IF_ERROR(writer->OpenSegment(initial, next_index));
  return writer;
}

CycleJournalWriter::~CycleJournalWriter() { Close(); }

template <typename Anchor>
Status CycleJournalWriter::OpenSegment(const Anchor& anchor,
                                       std::uint64_t index) {
  // Build the new segment on local state and commit the writer to it
  // only once its anchor snapshot is durable; a failed rotation leaves
  // the current segment (and every member) exactly as it was, so
  // subsequent appends keep landing somewhere recovery can read.
  const std::string path = options_.dir + "/" + SegmentFileName(index);
  const int fd =
      ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) {
    ++stats_.append_failures;
    return ErrnoStatus("open " + path, errno);
  }
  std::string bytes;
  EncodeSegmentHeader(&bytes);
  bytes.resize(kSegmentHeaderBytes + kFrameHeaderBytes);  // prologue
  Status st = EncodeSnapshotBody(anchor, &bytes);
  if (st.ok()) {
    SealFrame(kSegmentHeaderBytes, &bytes);
    st = WriteAllTo(fd, path, bytes);
  }
  if (st.ok()) {
    ++stats_.sync_calls;
    // The snapshot is the recovery anchor — it is always synced, and so
    // is its directory entry.
    if (::fdatasync(fd) != 0) st = ErrnoStatus("fdatasync " + path, errno);
  }
  if (st.ok()) st = SyncDir();
  if (!st.ok()) {
    ++stats_.append_failures;
    ::close(fd);
    ::unlink(path.c_str());
    return st;
  }
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
  segment_path_ = path;
  segment_index_ = index;
  segment_bytes_ = bytes.size();
  cycles_in_segment_ = 0;
  appends_since_sync_ = 0;
  cycles_since_sync_ = 0;
  last_sync_time_ = std::chrono::steady_clock::now();
  stats_.bytes_written += bytes.size();
  ++stats_.segments_created;
  ++stats_.snapshots_written;
  GarbageCollect();
  return Status::Ok();
}

Status CycleJournalWriter::WriteAll(const std::string& bytes) {
  TOPKMON_RETURN_IF_ERROR(WriteAllTo(fd_, segment_path_, bytes));
  segment_bytes_ += bytes.size();
  stats_.bytes_written += bytes.size();
  return Status::Ok();
}

Status CycleJournalWriter::SyncFd() {
  ++stats_.sync_calls;
  const auto start = std::chrono::steady_clock::now();
  const int rc = ::fdatasync(fd_);
  if (fsync_histogram_ != nullptr) {
    fsync_histogram_->Record(std::chrono::steady_clock::now() - start);
  }
  if (rc != 0) {
    // The tail is still only in page cache: leave the group-commit
    // counters armed so the next append / Sync / SyncIfDue retries
    // instead of reporting the unsynced tail durable.
    return ErrnoStatus("fdatasync " + segment_path_, errno);
  }
  appends_since_sync_ = 0;
  cycles_since_sync_ = 0;
  last_sync_time_ = std::chrono::steady_clock::now();
  return Status::Ok();
}

Status CycleJournalWriter::SyncIfDue() {
  if (closed_ || fd_ < 0 || appends_since_sync_ == 0) return Status::Ok();
  if (options_.sync != SyncPolicy::kInterval ||
      options_.sync_interval_ms.count() <= 0 ||
      std::chrono::steady_clock::now() - last_sync_time_ <
          options_.sync_interval_ms) {
    return Status::Ok();
  }
  Status st = SyncFd();
  if (!st.ok()) ++stats_.append_failures;
  return st;
}

Status CycleJournalWriter::Sync() {
  if (closed_ || fd_ < 0) {
    return Status::FailedPrecondition("journal writer is closed");
  }
  if (appends_since_sync_ == 0) return Status::Ok();
  Status st = SyncFd();
  if (!st.ok()) ++stats_.append_failures;
  return st;
}

Status CycleJournalWriter::SyncDir() {
  const int dfd = ::open(options_.dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return ErrnoStatus("open " + options_.dir, errno);
  const int rc = ::fsync(dfd);
  const int err = errno;
  ::close(dfd);
  if (rc != 0) return ErrnoStatus("fsync " + options_.dir, err);
  return Status::Ok();
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
    if (::unlink(segment.path.c_str()) == 0) ++stats_.segments_deleted;
  }
}

Status CycleJournalWriter::AppendScratchFrame(bool is_cycle) {
  if (closed_ || fd_ < 0) {
    ++stats_.append_failures;
    return Status::FailedPrecondition("journal writer is closed");
  }
  SealFrame(0, &frame_scratch_);
  Status st = WriteAll(frame_scratch_);
  if (st.ok()) {
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
           std::chrono::steady_clock::now() - last_sync_time_ >=
               options_.sync_interval_ms);
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
  frame_scratch_.clear();
  frame_scratch_.resize(kFrameHeaderBytes);  // prologue placeholder
  EncodeCycleBody(ts, batch, &frame_scratch_);
  return AppendScratchFrame(/*is_cycle=*/true);
}

Status CycleJournalWriter::AppendRegister(const JournaledQuery& query) {
  frame_scratch_.clear();
  frame_scratch_.resize(kFrameHeaderBytes);
  // An encode refusal (Unimplemented: non-journalable scoring function)
  // is a rejection of the caller's input, not a journal failure — the
  // segment is untouched and stays healthy.
  TOPKMON_RETURN_IF_ERROR(EncodeRegisterBody(query, &frame_scratch_));
  return AppendScratchFrame(/*is_cycle=*/false);
}

Status CycleJournalWriter::AppendUnregister(QueryId id) {
  frame_scratch_.clear();
  frame_scratch_.resize(kFrameHeaderBytes);
  EncodeUnregisterBody(id, &frame_scratch_);
  return AppendScratchFrame(/*is_cycle=*/false);
}

bool CycleJournalWriter::SnapshotDue() const {
  if (closed_) return false;
  if (segment_bytes_ >= options_.segment_bytes) return true;
  return options_.snapshot_every_cycles > 0 &&
         cycles_in_segment_ >= options_.snapshot_every_cycles;
}

Status CycleJournalWriter::RotateWithSnapshot(
    const JournalSnapshot& snapshot) {
  if (closed_ || fd_ < 0) {
    return Status::FailedPrecondition("journal writer is closed");
  }
  return OpenSegment(snapshot, segment_index_ + 1);
}

Status CycleJournalWriter::RotateWithSnapshot(const SnapshotAnchor& anchor) {
  if (closed_ || fd_ < 0) {
    return Status::FailedPrecondition("journal writer is closed");
  }
  return OpenSegment(anchor, segment_index_ + 1);
}

Status CycleJournalWriter::Close() {
  if (closed_) return Status::Ok();
  closed_ = true;
  if (fd_ < 0) return Status::Ok();
  Status st = SyncFd();
  if (::close(fd_) != 0 && st.ok()) {
    st = ErrnoStatus("close " + segment_path_, errno);
  }
  fd_ = -1;
  return st;
}

}  // namespace topkmon
