// The stream record type.
//
// Following Section 4.1 of the paper, a record is the tuple
// <p.id, p.x1 ... p.xd, p.t>: a unique identifier, d attribute values in
// the unit workspace, and its arrival time. For time-based windows the
// expiration instant is `t + window_span`; for count-based windows records
// expire in strict arrival (FIFO) order.

#ifndef TOPKMON_COMMON_RECORD_H_
#define TOPKMON_COMMON_RECORD_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/geometry.h"

namespace topkmon {

/// Unique, monotonically increasing record identifier assigned on arrival.
/// Because ids are assigned in arrival order, comparing ids also compares
/// arrival (and, in the append-only model, expiration) order.
using RecordId = std::uint64_t;

/// Sentinel for "no record".
inline constexpr RecordId kInvalidRecordId =
    std::numeric_limits<RecordId>::max();

/// Logical timestamp (processing-cycle counter for count-based windows,
/// wall-clock ticks for time-based windows).
using Timestamp = std::int64_t;

/// A single stream tuple.
struct Record {
  RecordId id = kInvalidRecordId;
  Point position;          ///< attribute vector in [0,1]^d
  Timestamp arrival = 0;   ///< arrival timestamp

  Record() = default;
  Record(RecordId id_in, Point pos, Timestamp arrival_in)
      : id(id_in), position(std::move(pos)), arrival(arrival_in) {}
};

/// Non-owning, contiguous view over records — the currency of the
/// ingest path. A span never outlives the storage it views: a cycle
/// batch span views the driver's batch vector and is valid for the
/// duration of the driver's cycle (journal append, engine apply,
/// observer); a decoded wire-frame block views a poll loop's reusable
/// decode block and is valid until the next block is decoded into it
/// (IngestQueue::PushBatch copies what it admits, at the engine's
/// dimensionality). Implicitly constructible from a vector so every
/// ProcessCycle / AppendCycle call site takes one unchanged.
class RecordSpan {
 public:
  constexpr RecordSpan() = default;
  constexpr RecordSpan(const Record* data, std::size_t size)
      : data_(data), size_(size) {}
  RecordSpan(const std::vector<Record>& records)  // NOLINT: implicit
      : data_(records.data()), size_(records.size()) {}

  const Record* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const Record* begin() const { return data_; }
  const Record* end() const { return data_ + size_; }

  const Record& operator[](std::size_t i) const { return data_[i]; }
  const Record& front() const { return data_[0]; }
  const Record& back() const { return data_[size_ - 1]; }

  RecordSpan subspan(std::size_t offset, std::size_t count) const {
    return RecordSpan(data_ + offset, count);
  }

 private:
  const Record* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace topkmon

#endif  // TOPKMON_COMMON_RECORD_H_
