// Sliding windows over an append-only stream.
//
// The paper's data model (Section 1): tuples continuously stream into the
// system and are valid only while they belong to a sliding window W.
//   * count-based W: the N most recent records;
//   * time-based W: all records that arrived within the last T time units.
// In both versions eviction is strictly first-in-first-out (Section 4.1),
// so the valid records always form a contiguous range of arrival ids. A
// window is a FIFO of one entry per valid record that locates any record
// by id in O(1) without storing the id, and the grid's cells refer to its
// records by the low 32 bits of their ids (WindowHandle). SlidingWindow
// keeps whole records; TMA and SMA keep each record's arrival, cell and
// coordinates in their own window (core/tma_engine.h).

#ifndef TOPKMON_STREAM_SLIDING_WINDOW_H_
#define TOPKMON_STREAM_SLIDING_WINDOW_H_

#include <cassert>
#include <cstddef>
#include <deque>
#include <limits>
#include <vector>

#include "common/record.h"
#include "common/status.h"

namespace topkmon {

/// Which flavor of sliding window (Section 1).
enum class WindowKind {
  kCountBased,  ///< keep the most recent `capacity` tuples
  kTimeBased,   ///< keep tuples with arrival > now - span
};

/// Window configuration shared by all engines and monitors.
struct WindowSpec {
  WindowKind kind = WindowKind::kCountBased;
  std::size_t capacity = 0;  ///< count-based: N most recent tuples
  Timestamp span = 0;        ///< time-based: tuples younger than `span`

  static WindowSpec Count(std::size_t n) {
    return WindowSpec{WindowKind::kCountBased, n, 0};
  }
  static WindowSpec Time(Timestamp span) {
    return WindowSpec{WindowKind::kTimeBased, 0, span};
  }
};

/// The handle a grid cell keeps for window record `id` (a PointHandle):
/// the low 32 bits of the id.
inline PointHandle WindowHandle(RecordId id) {
  return static_cast<PointHandle>(id);
}

/// The id of the record with handle `handle` in a window whose oldest
/// record is `front_id`. Exact while the window holds fewer than 2^32
/// records, even where the low 32 bits of the ids wrap inside it.
inline RecordId WindowRecordId(RecordId front_id, PointHandle handle) {
  return front_id +
         static_cast<PointHandle>(handle - static_cast<PointHandle>(front_id));
}

/// The rules and ids of a window, whatever it stores per record: which
/// records may join it, which ids it holds and when its oldest record
/// expires. A container built on it stores one entry per valid record,
/// oldest first, and supplies the oldest one's arrival.
class WindowRules {
 public:
  /// Most records a window holds at once: a WindowHandle resolves to its
  /// id only while the window holds fewer than 2^32.
  static constexpr std::size_t kMaxRecords =
      std::numeric_limits<PointHandle>::max();

  /// Requires 0 < capacity <= kMaxRecords (count-based) or span > 0
  /// (time-based).
  explicit WindowRules(const WindowSpec& spec);

  /// True iff the record with this id is currently valid.
  bool Contains(RecordId id) const {
    return size_ > 0 && id >= front_id_ && id - front_id_ < size_;
  }

  /// Number of valid records.
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Id of the oldest valid record. Meaningful iff !empty().
  RecordId front_id() const { return front_id_; }

  /// The id of the valid record with this handle (see WindowHandle).
  RecordId IdOf(PointHandle handle) const {
    return WindowRecordId(front_id_, handle);
  }

 protected:
  /// Admits the record `id` arriving at `arrival` as the newest; on
  /// success the container stores it. Ids must be contiguous and
  /// increasing across all admissions (they encode arrival order);
  /// arrival timestamps must be non-decreasing. Violations return
  /// FailedPrecondition, the invalid id InvalidArgument, and a window
  /// that already holds kMaxRecords ResourceExhausted.
  Status Admit(RecordId id, Timestamp arrival);

  /// True iff the oldest valid record, which arrived at `oldest_arrival`,
  /// is older than record `end_id` and has expired at `now`:
  ///   count-based: more than `capacity` records are valid;
  ///   time-based: oldest_arrival <= now - span.
  /// Requires !empty().
  bool FrontExpired(Timestamp oldest_arrival, Timestamp now,
                    RecordId end_id) const {
    return front_id_ < end_id &&
           (spec_.kind == WindowKind::kCountBased
                ? size_ > spec_.capacity
                : oldest_arrival <= now - spec_.span);
  }

  /// Drops the oldest record, once the container has dropped its entry.
  void Retire() {
    ++front_id_;
    --size_;
  }

 private:
  WindowSpec spec_;
  RecordId next_id_ = 0;  ///< smallest id not yet seen
  Timestamp last_arrival_ = -1;
  RecordId front_id_ = 0;
  std::size_t size_ = 0;
};

/// FIFO window of one `Entry` per valid record, oldest first. The i-th
/// oldest entry belongs to record front_id() + i. `Entry` must carry the
/// record's `arrival` timestamp.
template <typename Entry>
class WindowFifo : public WindowRules {
 public:
  explicit WindowFifo(const WindowSpec& spec) : WindowRules(spec) {}

  /// Admits `entry` as record `id` (see WindowRules::Admit).
  Status Push(RecordId id, const Entry& entry) {
    TOPKMON_RETURN_IF_ERROR(Admit(id, entry.arrival));
    entries_.push_back(entry);
    return Status::Ok();
  }

  /// Pops every entry that has expired at `now` and is older than record
  /// `end_id`, oldest first, calling fn(id, entry) before each pop.
  template <typename Fn>
  void PopExpired(Timestamp now, Fn&& fn,
                  RecordId end_id = kInvalidRecordId) {
    while (!empty() && FrontExpired(entries_.front().arrival, now, end_id)) {
      fn(front_id(), entries_.front());
      entries_.pop_front();
      Retire();
    }
  }

  /// O(1) access to a valid record's entry. Requires Contains(id).
  const Entry& Get(RecordId id) const {
    assert(Contains(id));
    return entries_[static_cast<std::size_t>(id - front_id())];
  }

  /// Iteration over the entries in arrival order.
  typename std::deque<Entry>::const_iterator begin() const {
    return entries_.begin();
  }
  typename std::deque<Entry>::const_iterator end() const {
    return entries_.end();
  }

  /// Approximate heap footprint of the stored entries.
  std::size_t MemoryBytes() const { return entries_.size() * sizeof(Entry); }

 private:
  std::deque<Entry> entries_;
};

/// FIFO sliding window storing the valid records of the stream, for the
/// engines and monitors that read records by id.
///
/// Usage per processing cycle:
///   1. Append() each arriving record (ids must be strictly increasing);
///   2. EvictExpired(now) to obtain (and drop) the expired records.
/// Engines receive both lists and update their indexes accordingly.
class SlidingWindow : public WindowFifo<Record> {
 public:
  explicit SlidingWindow(const WindowSpec& spec) : WindowFifo(spec) {}

  /// Window of the `capacity` most recent tuples. Requires capacity > 0.
  static SlidingWindow CountBased(std::size_t capacity) {
    return SlidingWindow(WindowSpec::Count(capacity));
  }

  /// Window of tuples with arrival timestamp in (now - span, now].
  /// Requires span > 0.
  static SlidingWindow TimeBased(Timestamp span) {
    return SlidingWindow(WindowSpec::Time(span));
  }

  /// Admits an arriving record (see WindowRules::Admit).
  Status Append(const Record& record) { return Push(record.id, record); }

  /// Removes and returns all records that are no longer valid, in
  /// expiration (arrival) order (see WindowRules::Expired).
  std::vector<Record> EvictExpired(Timestamp now);

  /// Oldest (first to expire) valid record. Requires !empty().
  const Record& Oldest() const { return Get(front_id()); }
};

}  // namespace topkmon

#endif  // TOPKMON_STREAM_SLIDING_WINDOW_H_
