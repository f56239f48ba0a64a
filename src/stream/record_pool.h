// Slab-allocated record storage for the update-stream model.
//
// Section 7 of the paper extends the framework to streams with explicit
// deletions, where records no longer expire in FIFO order; the contiguous
// deque of SlidingWindow does not apply. RecordPool stores live records in
// a slab with a free list and resolves record ids through a hash map,
// giving O(1) expected insert / erase / lookup. A record's slot is the
// handle the grid's cells keep for it (PointStore).

#ifndef TOPKMON_STREAM_RECORD_POOL_H_
#define TOPKMON_STREAM_RECORD_POOL_H_

#include <cassert>
#include <cstddef>
#include <unordered_map>
#include <vector>

#include "common/record.h"
#include "common/status.h"

namespace topkmon {

/// Live-record store keyed by RecordId, with slab reuse of freed slots.
class RecordPool final : public PointStore {
 public:
  RecordPool() = default;

  /// Inserts a record and returns its slot. AlreadyExists if its id is
  /// live, ResourceExhausted if all 2^32 slots are live.
  Result<PointHandle> Insert(const Record& record);

  /// Removes the record with this id. Returns NotFound if absent.
  Status Erase(RecordId id);

  /// True iff the id is live.
  bool Contains(RecordId id) const { return index_.count(id) > 0; }

  /// The slot of a live record; NotFound if absent.
  Result<PointHandle> Find(RecordId id) const;

  /// The record in a live slot.
  const Record& At(PointHandle slot) const {
    assert(slot < slots_.size());
    return slots_[slot];
  }

  std::size_t size() const { return index_.size(); }
  bool empty() const { return index_.empty(); }

  /// Invokes `fn(const Record&)` on every live record (arbitrary order).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [id, slot] : index_) fn(slots_[slot]);
  }

  /// Handles are slots.
  void Gather(const PointHandle* handles, std::size_t n, RecordId* ids,
              double* const* lanes) const override;

  /// Approximate heap footprint (slab + index).
  std::size_t MemoryBytes() const {
    return slots_.capacity() * sizeof(Record) +
           index_.size() * (sizeof(RecordId) + sizeof(PointHandle) +
                            2 * sizeof(void*));
  }

 private:
  std::vector<Record> slots_;
  std::vector<PointHandle> free_slots_;
  std::unordered_map<RecordId, PointHandle> index_;
};

}  // namespace topkmon

#endif  // TOPKMON_STREAM_RECORD_POOL_H_
