// CycleJournalWriter — append side of the durable cycle journal.
//
// One writer owns a journal directory and appends length-prefixed,
// CRC-checked records to the current segment file. Every segment begins
// with a snapshot record (an engine-ready image of the window plus the
// live query set), making each segment self-contained: recovery reads
// exactly one segment. Rotation — triggered by segment size or by the
// snapshot interval — writes the next snapshot as the first record of a
// fresh segment, fdatasyncs it, and only then garbage-collects the older
// segments, so a crash at any instant leaves at least one segment with an
// intact leading snapshot on disk.
//
// Durability knobs (JournalOptions::sync):
//   kNone     every append reaches the kernel (write(2)); the OS decides
//             when it reaches the platter. Crash of the process loses
//             nothing; crash of the machine loses the page-cache tail.
//   kInterval group commit: fdatasync once several appends have batched
//             up — every `sync_every_records` appends, every
//             `sync_interval_cycles` cycle records, or once
//             `sync_interval_ms` has elapsed since the last sync,
//             whichever trips first (zero disables that trigger). The
//             time trigger is checked on appends and by SyncIfDue(),
//             which the service driver calls on idle loops so a quiet
//             stream still bounds the unsynced window.
//   kAlways   fdatasync after every append (group-commit-free, slowest).
// Snapshot records are always fdatasync'd regardless of policy — they are
// the recovery anchors.
//
// Thread-compatibility: calls must be externally serialized (the service
// holds its engine mutex across every append, which also keeps the
// journal's record order identical to the engine's apply order).

#ifndef TOPKMON_JOURNAL_JOURNAL_WRITER_H_
#define TOPKMON_JOURNAL_JOURNAL_WRITER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "journal/format.h"
#include "obs/metrics.h"

namespace topkmon {

/// When appended records are pushed to the platter.
enum class SyncPolicy : std::uint8_t {
  kNone = 0,      ///< write(2) only; kernel flushes at its leisure
  kInterval = 1,  ///< fdatasync every sync_every_records appends
  kAlways = 2,    ///< fdatasync after every append
};

/// Parses "none" / "interval" / "always" (for CLI flags).
Result<SyncPolicy> ParseSyncPolicy(const std::string& name);
const char* SyncPolicyName(SyncPolicy policy);

/// Journaling configuration (part of ServiceOptions).
struct JournalOptions {
  /// Journal directory; empty disables journaling entirely.
  std::string dir;
  /// Rotate (and snapshot) once the current segment exceeds this size.
  std::size_t segment_bytes = 8u << 20;
  /// Also rotate after this many cycle records (0 = size-based only).
  std::uint64_t snapshot_every_cycles = 4096;
  SyncPolicy sync = SyncPolicy::kNone;
  /// fdatasync cadence under SyncPolicy::kInterval.
  std::uint64_t sync_every_records = 256;
  /// Group-commit triggers under SyncPolicy::kInterval: also sync after
  /// this many *cycle* records batched since the last sync, or once this
  /// much wall time elapsed since it (0 disables either trigger). Acks
  /// ride behind the batch: a producer that needs an explicit durability
  /// point calls MonitorService::SyncJournal() (the Sync() barrier
  /// below), not a sync per record.
  std::uint64_t sync_interval_cycles = 0;
  std::chrono::milliseconds sync_interval_ms{0};
  /// Keep superseded segments instead of deleting them after rotation.
  bool retain_old_segments = false;
  /// How many of the newest segments survive garbage collection (>= 1;
  /// the current segment always survives). Replicated leaders keep 2+ so
  /// a follower at the tail of the just-sealed segment can finish
  /// shipping it instead of paying a full snapshot resync on every
  /// rotation (the replication horizon); ignored when
  /// retain_old_segments keeps everything.
  std::uint64_t retain_segment_count = 1;
  /// Write a final snapshot segment on clean service shutdown so restart
  /// recovery replays nothing.
  bool snapshot_on_shutdown = true;
};

/// Monotonic writer counters.
struct JournalWriterStats {
  std::uint64_t records_appended = 0;   ///< cycle/register/unregister
  std::uint64_t cycles_appended = 0;
  std::uint64_t snapshots_written = 0;
  std::uint64_t segments_created = 0;
  std::uint64_t segments_deleted = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t sync_calls = 0;
  std::uint64_t append_failures = 0;
};

/// Append-only writer over a journal directory. Create with Open().
class CycleJournalWriter {
 public:
  /// Opens `options.dir` (creating it if absent) and starts a fresh
  /// segment anchored by `initial` — the state of the engine this journal
  /// is about to describe. When `resuming` is false and the directory
  /// already holds segments, fails with FailedPrecondition instead of
  /// silently superseding the previous journal's state (recover first —
  /// MonitorService::Open does).
  static Result<std::unique_ptr<CycleJournalWriter>> Open(
      const JournalOptions& options, const JournalSnapshot& initial,
      bool resuming = false);
  /// Same, anchored on live state: the anchor's window is encoded
  /// straight from its engine (see SnapshotAnchor).
  static Result<std::unique_ptr<CycleJournalWriter>> Open(
      const JournalOptions& options, const SnapshotAnchor& initial,
      bool resuming = false);

  ~CycleJournalWriter();

  CycleJournalWriter(const CycleJournalWriter&) = delete;
  CycleJournalWriter& operator=(const CycleJournalWriter&) = delete;

  /// Appends one record (write-ahead: call before applying to the engine).
  Status AppendCycle(Timestamp ts, RecordSpan batch);
  Status AppendRegister(const JournaledQuery& query);
  Status AppendUnregister(QueryId id);

  /// True once the segment-size or snapshot-interval threshold is hit;
  /// the owner should take an engine snapshot and call
  /// RotateWithSnapshot() at the next convenient point.
  bool SnapshotDue() const;

  /// Starts a new segment anchored by `snapshot`, fdatasyncs it, and
  /// garbage-collects superseded segments.
  Status RotateWithSnapshot(const JournalSnapshot& snapshot);
  Status RotateWithSnapshot(const SnapshotAnchor& anchor);

  /// Group-commit time trigger: fdatasyncs iff there are unsynced
  /// appends and the kInterval time window (sync_interval_ms) has
  /// elapsed. Cheap no-op otherwise; the service driver calls this on
  /// idle loops so a stream that goes quiet still gets its tail synced.
  Status SyncIfDue();

  /// Unconditional durability barrier: fdatasyncs any unsynced appends.
  Status Sync();

  /// fdatasyncs and closes the current segment. Idempotent; appends after
  /// Close fail with FailedPrecondition.
  Status Close();

  /// Admin-plane instrumentation: every fdatasync this writer issues is
  /// timed into `histogram` (the service registers it as
  /// topkmon_journal_fsync_latency_seconds). The histogram must outlive
  /// the writer; nullptr (the default) disables timing. Like every
  /// other writer call, externally serialized by the owner.
  void set_fsync_histogram(LatencyHistogram* histogram) {
    fsync_histogram_ = histogram;
  }

  bool closed() const { return closed_; }
  const JournalWriterStats& stats() const { return stats_; }
  const std::string& current_segment_path() const { return segment_path_; }
  std::uint64_t current_segment_index() const { return segment_index_; }

 private:
  CycleJournalWriter(const JournalOptions& options, std::uint64_t next_index);

  /// Open() for either kind of anchor (JournalSnapshot, SnapshotAnchor).
  template <typename Anchor>
  static Result<std::unique_ptr<CycleJournalWriter>> OpenAnchored(
      const JournalOptions& options, const Anchor& initial, bool resuming);

  /// Creates and durably anchors segment `index`, committing the writer
  /// to it only on success (a failed rotation leaves the current segment
  /// in place and appendable). The segment header, the anchor frame's
  /// prologue and its body are encoded into one buffer, the body in
  /// place behind its prologue, and written with one call.
  template <typename Anchor>
  Status OpenSegment(const Anchor& anchor, std::uint64_t index);
  /// Appends frame_scratch_, whose first kFrameHeaderBytes are a
  /// placeholder prologue patched here (length + CRC over the body that
  /// follows) — the body is encoded in place, never copied.
  Status AppendScratchFrame(bool is_cycle);
  Status WriteAll(const std::string& bytes);
  Status SyncFd();
  Status SyncDir();
  void GarbageCollect();

  const JournalOptions options_;
  /// Reused serialization buffer (capacity persists across appends so
  /// the per-cycle hot path does not allocate).
  std::string frame_scratch_;
  int fd_ = -1;
  std::string segment_path_;
  std::uint64_t segment_index_ = 0;
  std::size_t segment_bytes_ = 0;       ///< bytes written to current segment
  std::uint64_t cycles_in_segment_ = 0;
  std::uint64_t appends_since_sync_ = 0;
  std::uint64_t cycles_since_sync_ = 0;
  std::chrono::steady_clock::time_point last_sync_time_{};
  bool closed_ = false;
  LatencyHistogram* fsync_histogram_ = nullptr;
  JournalWriterStats stats_;
};

}  // namespace topkmon

#endif  // TOPKMON_JOURNAL_JOURNAL_WRITER_H_
