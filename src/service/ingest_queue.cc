#include "service/ingest_queue.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace topkmon {

IngestQueue::IngestQueue(const IngestOptions& options)
    : options_(options), buf_(options.capacity) {
  assert(options_.capacity > 0);
  assert(options_.max_batch > 0);
  assert(options_.slack >= 0);
  // The arena holds the queued records and the open chunk's tail.
  arena_.Reserve(options_.capacity + RecordArenaOptions{}.chunk_records);
  next_id_ = options_.first_record_id;
  frontier_ = options_.min_timestamp;
  max_seen_ = options_.min_timestamp;
}

void IngestQueue::PushLocked(const Record* rec, Timestamp arrival) {
  if (is_sorted_ && size_ > 0 &&
      arrival < buf_[SlotLocked(size_ - 1)].arrival) {
    is_sorted_ = false;
  }
  buf_[SlotLocked(size_)] =
      Pending{arrival, push_seq_++, rec, std::chrono::steady_clock::now()};
  ++size_;
  max_seen_ = std::max(max_seen_, arrival);
  min_arrival_ = std::min(min_arrival_, arrival);
  ++stats_.pushed;
  stats_.max_depth = std::max(stats_.max_depth, SizeLocked());
}

Status IngestQueue::Push(Point position, Timestamp arrival) {
  std::unique_lock<std::mutex> lock(mu_);
  not_full_cv_.wait(lock, [this] {
    return closed_ || SizeLocked() < options_.capacity;
  });
  if (closed_) {
    return Status::FailedPrecondition("ingest queue is closed");
  }
  Record* rec = arena_.Allocate(1);
  rec->id = kInvalidRecordId;
  rec->position = std::move(position);
  rec->arrival = arrival;
  PushLocked(rec, arrival);
  drain_cv_.notify_one();
  return Status::Ok();
}

bool IngestQueue::TryPush(Point position, Timestamp arrival) {
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_ || SizeLocked() >= options_.capacity) {
    if (!closed_) ++stats_.shed;
    return false;
  }
  Record* rec = arena_.Allocate(1);
  rec->id = kInvalidRecordId;
  rec->position = std::move(position);
  rec->arrival = arrival;
  PushLocked(rec, arrival);
  drain_cv_.notify_one();
  return true;
}

std::size_t IngestQueue::PushBatch(const Record* records, std::size_t n) {
  if (n == 0) return 0;
  std::size_t accepted = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (closed_) return 0;
    const std::size_t space = options_.capacity - SizeLocked();
    accepted = std::min(n, space);
    for (std::size_t i = 0; i < accepted; ++i) {
      PushLocked(&records[i], records[i].arrival);
    }
    stats_.shed += n - accepted;
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
  std::sort(first, first + static_cast<std::ptrdiff_t>(size_),
            [](const Pending& a, const Pending& b) {
              if (a.arrival != b.arrival) return a.arrival < b.arrival;
              return a.seq < b.seq;
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
  // The drained records' arena storage goes back as they are copied
  // out, coalesced into runs that are contiguous in the arena (a frame
  // drained in order releases as one call).
  const Record* run = nullptr;
  std::size_t run_len = 0;
  while (released < options_.max_batch && size_ > 0) {
    Pending& p = buf_[head_];
    if (!open_gate && p.arrival + options_.slack > max_seen_) break;
    Timestamp arrival = p.arrival;
    if (arrival < frontier_) {
      // Straggler beyond the slack: advance it to the frontier so the
      // batch stays time-ordered for the window. The arena copy keeps
      // its original timestamp — only the drained copy is coerced.
      arrival = frontier_;
      ++stats_.coerced;
    }
    frontier_ = arrival;
    if (oldest_push != nullptr &&
        (released == 0 || p.pushed_at < *oldest_push)) {
      *oldest_push = p.pushed_at;
    }
    out->emplace_back(next_id_++, p.rec->position, arrival);
    if (p.rec != run + run_len) {
      arena_.Release(run, run_len);
      run = p.rec;
      run_len = 0;
    }
    ++run_len;
    head_ = SlotLocked(1);
    --size_;
    ++released;
  }
  arena_.Release(run, run_len);
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
  std::lock_guard<std::mutex> lock(mu_);
  return buf_.capacity() * sizeof(Pending) + arena_.ResidentBytes();
}

}  // namespace topkmon
