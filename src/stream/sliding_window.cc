#include "stream/sliding_window.h"

#include <string>

namespace topkmon {

WindowRules::WindowRules(const WindowSpec& spec) : spec_(spec) {
  assert(spec.kind == WindowKind::kCountBased ? spec.capacity > 0
                                              : spec.span > 0);
}

Status WindowRules::Admit(RecordId id, Timestamp arrival, bool empty) {
  if (id == kInvalidRecordId) {
    return Status::InvalidArgument("record has invalid id");
  }
  if (!empty && id != next_id_) {
    return Status::FailedPrecondition(
        "record ids must be contiguous and increasing: expected " +
        std::to_string(next_id_) + ", got " + std::to_string(id));
  }
  if (arrival < last_arrival_) {
    return Status::FailedPrecondition(
        "arrival timestamps must be non-decreasing");
  }
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
