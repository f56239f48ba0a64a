#include "stream/sliding_window.h"

#include <string>

namespace topkmon {

WindowRules::WindowRules(const WindowSpec& spec) : spec_(spec) {
  assert(spec.kind == WindowKind::kCountBased
             ? spec.capacity > 0 && spec.capacity <= kMaxRecords
             : spec.span > 0);
}

Status WindowRules::Admit(RecordId id, Timestamp arrival) {
  if (id == kInvalidRecordId) {
    return Status::InvalidArgument("record has invalid id");
  }
  if (size_ > 0 && id != next_id_) {
    return Status::FailedPrecondition(
        "record ids must be contiguous and increasing: expected " +
        std::to_string(next_id_) + ", got " + std::to_string(id));
  }
  if (arrival < last_arrival_) {
    return Status::FailedPrecondition(
        "arrival timestamps must be non-decreasing");
  }
  if (size_ == kMaxRecords) {
    return Status::ResourceExhausted(
        "window holds " + std::to_string(kMaxRecords) + " records");
  }
  if (size_ == 0) front_id_ = id;
  ++size_;
  next_id_ = id + 1;
  last_arrival_ = arrival;
  return Status::Ok();
}

std::vector<Record> SlidingWindow::EvictExpired(Timestamp now) {
  std::vector<Record> expired;
  PopExpired(now, [&expired](RecordId, const Record& r) {
    expired.push_back(r);
  });
  return expired;
}

}  // namespace topkmon
