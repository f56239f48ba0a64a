// Batched, reordering MPSC ingest queue (service layer).
//
// Many producer threads feed tuples concurrently, but the monitoring
// engines consume one single-threaded arrival batch per processing cycle
// with strictly increasing record ids and non-decreasing timestamps.
// IngestQueue bridges the two worlds:
//   * Push()/TryPush() admit a point with a client-supplied arrival
//     timestamp from any thread. A bounded capacity applies backpressure
//     (Push blocks while full) or load-shedding (TryPush refuses and
//     counts the record as shed). PushBatch() admits a whole validated
//     wire-frame block at once, with one lock and one clock read.
//   * The queue is the one owner of buffered records, stored at the
//     engine's dimensionality d: a payload lane of `capacity` × d
//     doubles, a free-slot stack handing out lane slots, and a ring of
//     `capacity` fixed 24-byte (arrival, push instant, slot, rank) keys
//     holding a sorted run. Pushes append in O(1), and the run is
//     sorted by arrival only when a drain finds out-of-order arrivals —
//     in-order streams never pay a sort, a sort moves only the keys in
//     place, and equal arrivals keep push order. All of it is taken
//     at construction, capacity × (28 + 8d) bytes, so the queue's
//     footprint is set by its options and d, not by how deep a backlog
//     has run.
//   * A tuple is released only once the highest timestamp seen has
//     advanced past it by `slack` time units, so out-of-order arrivals
//     within the slack are re-sorted rather than clamped. Stragglers
//     that show up later than the release frontier are coerced forward
//     to it (and counted) — the engines' window contract admits no time
//     travel.
//   * DrainBatch() copies the releasable prefix into the consumer's
//     reusable batch vector (the one copy on the wire path), assigns
//     the strictly increasing record ids the engines require, reports
//     the cycle timestamp to process the batch at, and pushes the
//     drained records' lane slots back on the free stack: journal
//     append, engine apply and the cycle observer all read the drained
//     copy. When nothing clears the slack gate within `max_wait` the
//     gate opens and whatever is buffered is released, bounding result
//     staleness when the stream goes quiet.

#ifndef TOPKMON_SERVICE_INGEST_QUEUE_H_
#define TOPKMON_SERVICE_INGEST_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <vector>

#include "common/record.h"
#include "common/status.h"

namespace topkmon {

/// Tuning knobs for the ingest path.
struct IngestOptions {
  /// Maximum buffered records before producers feel backpressure.
  std::size_t capacity = 1 << 16;
  /// Maximum records released per DrainBatch call (one processing cycle).
  std::size_t max_batch = 8192;
  /// Reorder tolerance: a record is held until max-seen-timestamp exceeds
  /// its arrival by this much, giving out-of-order producers a chance to
  /// slot in. 0 releases immediately in push order.
  Timestamp slack = 2;
};

/// Observable ingest counters (all monotonically increasing except depth).
struct IngestStats {
  std::uint64_t pushed = 0;    ///< records accepted into the buffer
  std::uint64_t shed = 0;      ///< TryPush/PushBatch refusals on a full
                               ///< buffer
  std::uint64_t coerced = 0;   ///< late records whose timestamp was
                               ///< advanced to the release frontier
  std::uint64_t batches = 0;   ///< DrainBatch calls that released records
  std::uint64_t sorts = 0;     ///< drains that found out-of-order input
  std::size_t max_depth = 0;   ///< high-water mark of the buffer
};

/// Thread-safe multi-producer single-consumer batching queue.
class IngestQueue {
 public:
  /// A queue of records with `dim` coordinates (the engine's
  /// dimensionality; every pushed point must have exactly that many).
  IngestQueue(const IngestOptions& options, int dim);

  IngestQueue(const IngestQueue&) = delete;
  IngestQueue& operator=(const IngestQueue&) = delete;

  /// Admits a tuple, blocking while the buffer is at capacity
  /// (backpressure). Fails with FailedPrecondition once Close()d.
  Status Push(const Point& position, Timestamp arrival);

  /// Non-blocking admission; returns false when the buffer is full
  /// (counted as shed) or the queue is closed (not counted — the stream
  /// has ended, nothing was load-shed).
  bool TryPush(const Point& position, Timestamp arrival);

  /// Batch admission of already-validated records (a decoded wire-frame
  /// block): copies the arrival and the d coordinates of exactly the
  /// first min(n, capacity − depth) records — the prefix, in record
  /// order — and returns that count without blocking; the refused suffix
  /// is counted as shed. Returns 0 once closed (not counted as shed).
  /// The records' ids are ignored (DrainBatch assigns them).
  std::size_t PushBatch(RecordSpan records);

  /// Consumer side: appends at most options.max_batch releasable records
  /// to *out (ids assigned, timestamps non-decreasing), frees their
  /// slots, and sets *cycle_ts to the timestamp the batch should be
  /// processed at. Blocks up to
  /// `max_wait` for the slack gate to clear; on timeout (or when
  /// `flush_all` is set, or after Close) everything buffered is released.
  /// Returns the number of records appended; 0 with closed() true and an
  /// empty buffer means the stream is fully drained. When
  /// `oldest_push` is non-null and records were released, it receives
  /// the earliest push instant among them (one instant per Push,
  /// TryPush or PushBatch call) — the driver times
  /// (publish instant − oldest push) into the ingest→publish latency
  /// histogram, so one sample per cycle records the batch's worst case.
  std::size_t DrainBatch(std::vector<Record>* out, Timestamp* cycle_ts,
                         std::chrono::milliseconds max_wait,
                         bool flush_all = false,
                         std::chrono::steady_clock::time_point* oldest_push =
                             nullptr);

  /// Permanently closes the queue: subsequent pushes fail, blocked
  /// producers wake, and DrainBatch releases the remaining buffer.
  void Close();

  bool closed() const;

  /// Records currently buffered.
  std::size_t depth() const;

  /// Backpressure hint for producers: 0 while the buffer sits below the
  /// high-water mark (half of capacity), otherwise the fullness scaled
  /// into 1..255 (255 = at capacity). Front-ends ship it to remote
  /// producers (the IngestAck queue_hint byte) so they self-pace instead
  /// of the server blocking on a full queue.
  std::uint8_t Pressure() const;

  IngestStats stats() const;

  /// Total records ever accepted (stats().pushed; used as a flush fence).
  std::uint64_t PushedSoFar() const;

  /// The id the next drained record will receive (journal snapshots store
  /// this so recovery can resume the sequence).
  RecordId NextRecordId() const;

  /// Re-seeds the id/timestamp sequences of an *empty* queue (they start
  /// at id 0 with no frontier). A leader resuming a journal calls it:
  /// record ids must stay strictly increasing across restarts and
  /// promotions, and arrivals before `min_timestamp` are coerced forward
  /// to it (and counted) like stragglers, so no tuple time-travels
  /// behind the last journaled cycle. FailedPrecondition while records
  /// are buffered or the queue is closed.
  Status ResumeSequences(RecordId next_record_id, Timestamp min_timestamp);

  /// Bytes of record storage (key ring + payload lane + free-slot
  /// stack): capacity × (28 + 8d), all taken at construction, so this
  /// never changes (the topkmon_arena_bytes gauge).
  std::size_t MemoryBytes() const;

 private:
  /// One buffered record's ordering key; its coordinates sit in the
  /// payload lane at `slot`, so a sort moves only these 24 bytes.
  struct Pending {
    Timestamp arrival;
    /// Wall instant of the push (ingest→publish latency measurement).
    std::chrono::steady_clock::time_point pushed_at;
    std::uint32_t slot;  ///< payload lane slot (coordinates at slot × d)
    /// Position in the live run, set by SortLocked just before it sorts
    /// (it fills what would be padding).
    std::uint32_t rank;
  };
  static_assert(sizeof(Pending) == 24, "docs quote 28 + 8d bytes a record");

  std::size_t SizeLocked() const { return size_; }
  /// Ring slot of the i-th oldest buffered record.
  std::size_t SlotLocked(std::size_t i) const {
    const std::size_t slot = head_ + i;
    return slot < buf_.size() ? slot : slot - buf_.size();
  }
  /// Buffers one record: takes a free slot, copies its d coordinates
  /// there and appends its key. Caller holds mu_ and checked capacity.
  void PushLocked(const double* coords, Timestamp arrival,
                  std::chrono::steady_clock::time_point now);
  bool ReleasableLocked() const;
  /// Restores arrival order over the live run if a push broke it. The
  /// run is the part a previous sort left (ties in push order) followed
  /// by the later pushes in push order, so sorting by (arrival, position
  /// in the run) keeps every tie in push order.
  void SortLocked();

  const IngestOptions options_;
  const int dim_;

  mutable std::mutex mu_;
  std::condition_variable not_full_cv_;  ///< producers wait here
  std::condition_variable drain_cv_;     ///< the consumer waits here
  /// Ring of options.capacity slots; the live run is the size_ slots
  /// from head_ on.
  std::vector<Pending> buf_;
  /// capacity × d coordinates; slot s holds lane_[s·d, (s+1)·d).
  std::vector<double> lane_;
  /// Free-slot stack: free_[0, capacity − size_) are the unused slots.
  /// Push pops, the drain pushes back — in whatever order a sort left
  /// the keys.
  std::vector<std::uint32_t> free_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  bool is_sorted_ = true;
  /// Smallest buffered arrival (the slack-gate probe); max() when empty.
  Timestamp min_arrival_ = std::numeric_limits<Timestamp>::max();
  bool closed_ = false;
  Timestamp max_seen_ = std::numeric_limits<Timestamp>::min();
  Timestamp frontier_ = std::numeric_limits<Timestamp>::min();
  RecordId next_id_ = 0;
  IngestStats stats_;
};

}  // namespace topkmon

#endif  // TOPKMON_SERVICE_INGEST_QUEUE_H_
