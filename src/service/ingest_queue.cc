#include "service/ingest_queue.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "util/clock.h"

namespace topkmon {

IngestQueue::IngestQueue(const IngestOptions& options, int dim)
    : options_(options),
      dim_(dim),
      buf_(options.capacity),
      lane_(options.capacity * static_cast<std::size_t>(dim)),
      free_(options.capacity) {
  assert(options_.capacity > 0);
  assert(options_.capacity <= std::numeric_limits<std::uint32_t>::max());
  assert(options_.max_batch > 0);
  assert(options_.slack >= 0);
  assert(dim_ >= 1 && dim_ <= kMaxDims);
  // Stacked so the first pushes take slots 0, 1, 2, ...
  for (std::size_t i = 0; i < free_.size(); ++i) {
    free_[i] = static_cast<std::uint32_t>(free_.size() - 1 - i);
  }
}

void IngestQueue::PushLocked(const double* coords, Timestamp arrival,
                             std::chrono::steady_clock::time_point now) {
  if (is_sorted_ && size_ > 0 &&
      arrival < buf_[SlotLocked(size_ - 1)].arrival) {
    is_sorted_ = false;
  }
  const std::uint32_t slot = free_[options_.capacity - 1 - size_];
  std::copy_n(coords, dim_, &lane_[slot * static_cast<std::size_t>(dim_)]);
  buf_[SlotLocked(size_)] = Pending{arrival, now, slot, 0};
  ++size_;
  max_seen_ = std::max(max_seen_, arrival);
  min_arrival_ = std::min(min_arrival_, arrival);
  ++stats_.pushed;
  stats_.max_depth = std::max(stats_.max_depth, SizeLocked());
}

Status IngestQueue::Push(const Point& position, Timestamp arrival) {
  assert(position.dim() == dim_);
  std::unique_lock<std::mutex> lock(mu_);
  not_full_cv_.wait(lock, [this] {
    return closed_ || SizeLocked() < options_.capacity;
  });
  if (closed_) {
    return Status::FailedPrecondition("ingest queue is closed");
  }
  PushLocked(position.data(), arrival, Clock::RealNow());
  drain_cv_.notify_one();
  return Status::Ok();
}

bool IngestQueue::TryPush(const Point& position, Timestamp arrival) {
  assert(position.dim() == dim_);
  const auto now = Clock::RealNow();
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_ || SizeLocked() >= options_.capacity) {
    if (!closed_) ++stats_.shed;
    return false;
  }
  PushLocked(position.data(), arrival, now);
  drain_cv_.notify_one();
  return true;
}

std::size_t IngestQueue::PushBatch(RecordSpan records) {
  if (records.empty()) return 0;
  const auto now = Clock::RealNow();
  std::size_t accepted = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (closed_) return 0;
    accepted = std::min(records.size(), options_.capacity - SizeLocked());
    for (std::size_t i = 0; i < accepted; ++i) {
      assert(records[i].position.dim() == dim_);
      PushLocked(records[i].position.data(), records[i].arrival, now);
    }
    stats_.shed += records.size() - accepted;
  }
  if (accepted > 0) drain_cv_.notify_one();
  return accepted;
}

bool IngestQueue::ReleasableLocked() const {
  if (SizeLocked() == 0) return false;
  // min_arrival_ tracks the earliest buffered arrival without a scan.
  return min_arrival_ + options_.slack <= max_seen_;
}

void IngestQueue::SortLocked() {
  if (is_sorted_) return;
  if (head_ + size_ > buf_.size()) {
    // The run wraps: rotate it to the front so it is one range.
    std::rotate(buf_.begin(),
                buf_.begin() + static_cast<std::ptrdiff_t>(head_), buf_.end());
    head_ = 0;
  }
  const auto first = buf_.begin() + static_cast<std::ptrdiff_t>(head_);
  const auto last = first + static_cast<std::ptrdiff_t>(size_);
  std::uint32_t rank = 0;
  for (auto it = first; it != last; ++it) it->rank = rank++;
  // Ranking the keys makes ties explicit, so the sort runs in place
  // (std::stable_sort would take a heap buffer while producers wait).
  std::sort(first, last, [](const Pending& a, const Pending& b) {
    if (a.arrival != b.arrival) return a.arrival < b.arrival;
    return a.rank < b.rank;
  });
  is_sorted_ = true;
  ++stats_.sorts;
}

std::size_t IngestQueue::DrainBatch(
    std::vector<Record>* out, Timestamp* cycle_ts,
    std::chrono::milliseconds max_wait, bool flush_all,
    std::chrono::steady_clock::time_point* oldest_push) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!flush_all && !closed_ && !ReleasableLocked()) {
    drain_cv_.wait_for(lock, max_wait,
                       [this] { return closed_ || ReleasableLocked(); });
  }
  if (SizeLocked() == 0) return 0;
  // A timeout with data buffered opens the slack gate: bounded staleness
  // beats holding the last records of a quiet stream forever.
  const bool open_gate = flush_all || closed_ || !ReleasableLocked();
  SortLocked();
  std::size_t released = 0;
  while (released < options_.max_batch && size_ > 0) {
    Pending& p = buf_[head_];
    if (!open_gate && p.arrival + options_.slack > max_seen_) break;
    Timestamp arrival = p.arrival;
    if (arrival < frontier_) {
      // Straggler beyond the slack: advance it to the frontier so the
      // batch stays time-ordered for the window.
      arrival = frontier_;
      ++stats_.coerced;
    }
    frontier_ = arrival;
    if (oldest_push != nullptr &&
        (released == 0 || p.pushed_at < *oldest_push)) {
      *oldest_push = p.pushed_at;
    }
    Record& rec = out->emplace_back(next_id_++, Point(dim_), arrival);
    const double* coords = &lane_[p.slot * static_cast<std::size_t>(dim_)];
    for (int d = 0; d < dim_; ++d) rec.position[d] = coords[d];
    // Slots come back in drain order, which after a sort is not the
    // order they were taken in; the stack needs no other bookkeeping.
    free_[options_.capacity - size_] = p.slot;
    head_ = SlotLocked(1);
    --size_;
    ++released;
  }
  if (size_ == 0) head_ = 0;
  min_arrival_ = size_ > 0 ? buf_[head_].arrival
                           : std::numeric_limits<Timestamp>::max();
  if (released > 0) {
    ++stats_.batches;
    *cycle_ts = frontier_;
    not_full_cv_.notify_all();
  }
  return released;
}

void IngestQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_full_cv_.notify_all();
  drain_cv_.notify_all();
}

bool IngestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

std::size_t IngestQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SizeLocked();
}

std::uint8_t IngestQueue::Pressure() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t depth = SizeLocked();
  if (options_.capacity == 0 || depth * 2 < options_.capacity) return 0;
  const std::size_t scaled = (depth * 255) / options_.capacity;
  return static_cast<std::uint8_t>(
      std::min<std::size_t>(255, std::max<std::size_t>(1, scaled)));
}

IngestStats IngestQueue::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::uint64_t IngestQueue::PushedSoFar() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.pushed;
}

RecordId IngestQueue::NextRecordId() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_;
}

Status IngestQueue::ResumeSequences(RecordId next_record_id,
                                    Timestamp min_timestamp) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return Status::FailedPrecondition("ingest queue is closed");
  if (SizeLocked() != 0) {
    return Status::FailedPrecondition(
        "cannot re-seed sequences with records buffered");
  }
  next_id_ = next_record_id;
  frontier_ = std::max(frontier_, min_timestamp);
  max_seen_ = std::max(max_seen_, min_timestamp);
  return Status::Ok();
}

std::size_t IngestQueue::MemoryBytes() const {
  // Sized at construction and never resized, so no lock is needed.
  return buf_.capacity() * sizeof(Pending) +
         lane_.capacity() * sizeof(double) +
         free_.capacity() * sizeof(std::uint32_t);
}

}  // namespace topkmon
