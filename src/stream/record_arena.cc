#include "stream/record_arena.h"

#include <algorithm>
#include <cassert>

namespace topkmon {

RecordArena::RecordArena(const RecordArenaOptions& options)
    : options_(options) {
  assert(options_.chunk_records > 0);
}

RecordArena::~RecordArena() {
  for (Chunk& c : chunks_) delete[] c.slab;
  for (Chunk& c : free_chunks_) delete[] c.slab;
}

Record* RecordArena::Allocate(std::size_t n) {
  if (n == 0) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  if (chunks_.empty() || chunks_.back().sealed ||
      chunks_.back().capacity - chunks_.back().used < n) {
    if (!chunks_.empty() && !chunks_.back().sealed) {
      chunks_.back().sealed = true;
      if (chunks_.back().released == chunks_.back().used) {
        RecycleLocked(chunks_.size() - 1);
      }
    }
    // Prefer a recycled slab big enough for the span; a span larger
    // than every free slab gets a fresh (possibly oversized) chunk.
    auto fit = std::find_if(
        free_chunks_.begin(), free_chunks_.end(),
        [n](const Chunk& c) { return c.capacity >= n; });
    if (fit != free_chunks_.end()) {
      chunks_.push_back(*fit);
      free_chunks_.erase(fit);
      ++stats_.chunks_recycled;
    } else {
      chunks_.push_back(
          FreshChunkLocked(std::max(options_.chunk_records, n)));
    }
  }
  Chunk& open = chunks_.back();
  Record* span = open.slab + open.used;
  open.used += n;
  if (open.used == open.capacity) open.sealed = true;
  stats_.allocated_records += n;
  return span;
}

void RecordArena::Release(const Record* p, std::size_t n) {
  if (n == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    Chunk& c = chunks_[i];
    if (p < c.slab || p >= c.slab + c.capacity) continue;
    assert(p + n <= c.slab + c.used);
    stats_.released_records += n;
    if (i + 1 == chunks_.size() && !c.sealed && p + n == c.slab + c.used) {
      // The newest span of the open chunk (a refused frame's suffix, or
      // the records a drain just took): nothing was allocated after it,
      // so its space goes straight back to the chunk.
      c.used -= n;
      return;
    }
    c.released += n;
    assert(c.released <= c.used);
    if (c.sealed && c.released == c.used) RecycleLocked(i);
    return;
  }
  assert(false && "Release of a span this arena never allocated");
}

void RecordArena::Reserve(std::size_t records) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t want =
      (records + options_.chunk_records - 1) / options_.chunk_records;
  for (std::size_t held = chunks_.size() + free_chunks_.size(); held < want;
       ++held) {
    free_chunks_.push_back(FreshChunkLocked(options_.chunk_records));
  }
  reserved_chunks_ = std::max(reserved_chunks_, want);
}

RecordArena::Chunk RecordArena::FreshChunkLocked(std::size_t capacity) {
  Chunk fresh;
  fresh.capacity = capacity;
  fresh.slab = new Record[capacity];
  ++stats_.chunks_created;
  stats_.resident_bytes += capacity * sizeof(Record);
  stats_.peak_resident_bytes =
      std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
  return fresh;
}

std::size_t RecordArena::ResidentBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.resident_bytes;
}

RecordArenaStats RecordArena::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void RecordArena::RecycleLocked(std::size_t i) {
  Chunk chunk = chunks_[i];
  // Free past the cap, but never below the reservation.
  const bool keep = free_chunks_.size() < options_.max_free_chunks ||
                    chunks_.size() + free_chunks_.size() <= reserved_chunks_;
  chunks_.erase(chunks_.begin() + static_cast<std::ptrdiff_t>(i));
  if (keep) {
    chunk.used = 0;
    chunk.released = 0;
    chunk.sealed = false;
    free_chunks_.push_back(chunk);
  } else {
    stats_.resident_bytes -= chunk.capacity * sizeof(Record);
    delete[] chunk.slab;
    ++stats_.chunks_freed;
  }
}

}  // namespace topkmon
