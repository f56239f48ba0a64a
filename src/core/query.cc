#include "core/query.h"

#include <algorithm>

namespace topkmon {

Status ReservedQueryIdError(QueryId id) {
  return Status::InvalidArgument(
      "query id " + std::to_string(id) +
      " is in the range reserved for engine-internal sub-queries");
}

Status DuplicateQueryIdError(QueryId id) {
  return Status::AlreadyExists("query id " + std::to_string(id) +
                               " already registered");
}

Status UnknownQueryIdError(QueryId id) {
  return Status::NotFound("query id " + std::to_string(id) +
                          " not registered");
}

Status QuerySpec::Validate(int dim) const {
  if (k < 1) {
    return Status::InvalidArgument("query k must be >= 1, got " +
                                   std::to_string(k));
  }
  if (function == nullptr) {
    return Status::InvalidArgument("query has no scoring function");
  }
  if (function->dim() != dim) {
    return Status::InvalidArgument(
        "scoring function dimensionality " +
        std::to_string(function->dim()) + " != engine dimensionality " +
        std::to_string(dim));
  }
  if (constraint.has_value()) {
    if (constraint->dim() != dim) {
      return Status::InvalidArgument("constraint dimensionality mismatch");
    }
    for (int i = 0; i < dim; ++i) {
      if (constraint->lo()[i] < 0.0 || constraint->hi()[i] > 1.0) {
        return Status::OutOfRange("constraint region outside unit space");
      }
    }
  }
  return Status::Ok();
}

bool TopKList::Consider(RecordId id, double score) {
  const ResultEntry candidate{id, score};
  if (full() && !ResultOrder(candidate, entries_.back())) return false;
  auto pos =
      std::lower_bound(entries_.begin(), entries_.end(), candidate,
                       ResultOrder);
  entries_.insert(pos, candidate);
  if (static_cast<int>(entries_.size()) > k_) entries_.pop_back();
  return true;
}

bool TopKList::Remove(RecordId id) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->id == id) {
      entries_.erase(it);
      return true;
    }
  }
  return false;
}

bool TopKList::Contains(RecordId id) const {
  for (const ResultEntry& e : entries_) {
    if (e.id == id) return true;
  }
  return false;
}

}  // namespace topkmon
