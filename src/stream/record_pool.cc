#include "stream/record_pool.h"

#include <limits>

namespace topkmon {

Result<PointHandle> RecordPool::Insert(const Record& record) {
  if (record.id == kInvalidRecordId) {
    return Status::InvalidArgument("record has invalid id");
  }
  if (index_.count(record.id) > 0) {
    return Status::AlreadyExists("record id " + std::to_string(record.id) +
                                 " already live");
  }
  PointHandle slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = record;
  } else {
    if (slots_.size() > std::numeric_limits<PointHandle>::max()) {
      return Status::ResourceExhausted("record pool has no free slot");
    }
    slot = static_cast<PointHandle>(slots_.size());
    slots_.push_back(record);
  }
  index_.emplace(record.id, slot);
  return slot;
}

Status RecordPool::Erase(RecordId id) {
  auto it = index_.find(id);
  if (it == index_.end()) {
    return Status::NotFound("record id " + std::to_string(id) + " not live");
  }
  free_slots_.push_back(it->second);
  index_.erase(it);
  return Status::Ok();
}

Result<PointHandle> RecordPool::Find(RecordId id) const {
  auto it = index_.find(id);
  if (it == index_.end()) {
    return Status::NotFound("record id " + std::to_string(id) + " not live");
  }
  return it->second;
}

void RecordPool::Gather(const PointHandle* handles, std::size_t n,
                        RecordId* ids, double* const* lanes) const {
  for (std::size_t i = 0; i < n; ++i) {
    const Record& r = slots_[handles[i]];
    ids[i] = r.id;
    for (int d = 0; d < r.position.dim(); ++d) lanes[d][i] = r.position[d];
  }
}

}  // namespace topkmon
