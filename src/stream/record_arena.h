// Recyclable region allocator for the zero-copy ingest hot path.
//
// RecordArena grows the slab idea of RecordPool into a region allocator
// for *in-flight* records: a producer (a TCP poll loop decoding an
// ingest frame, or the ingest queue admitting an in-process tuple)
// allocates a contiguous span of Records, fills it in place, and hands
// out RecordSpan views instead of copies. Consumers release the span
// when they are done (the ingest queue does so as it drains a record
// into the cycle batch); storage is reclaimed chunk-at-a-time and
// recycled through a bounded free list, so a warmed-up arena allocates
// no new memory at steady state.
//
// A chunk keeps taking spans until it is full or the next span does not
// fit; it is then sealed, and recycled as soon as every record
// allocated from it has been released. So the resident bytes follow the
// number of records in flight, not how long they stay there.
//
// Thread safety: all member functions are thread-safe (one internal
// mutex). Allocation is amortized per *span*, not per record, so the
// lock is not on the per-record path. Record contents are published to
// other threads by whatever queue hands the span over (the ingest
// queue's mutex), not by the arena.

#ifndef TOPKMON_STREAM_RECORD_ARENA_H_
#define TOPKMON_STREAM_RECORD_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/record.h"

namespace topkmon {

struct RecordArenaOptions {
  /// Records per chunk; a span larger than this gets a dedicated chunk.
  std::size_t chunk_records = 4096;
  /// Fully reclaimed chunks kept for reuse; beyond this they are freed
  /// outright, so a hostile burst cannot ratchet resident memory up
  /// forever.
  std::size_t max_free_chunks = 4;
};

/// Observable arena counters (all monotone except the byte gauges).
struct RecordArenaStats {
  std::uint64_t allocated_records = 0;  ///< records ever handed out
  std::uint64_t released_records = 0;   ///< records handed back
  std::uint64_t chunks_created = 0;     ///< fresh slab allocations
  std::uint64_t chunks_recycled = 0;    ///< reclaimed via the free list
  std::uint64_t chunks_freed = 0;       ///< reclaimed past the free cap
  std::size_t resident_bytes = 0;       ///< live + free slab bytes
  std::size_t peak_resident_bytes = 0;  ///< high-water mark
};

/// Chunked region allocator of Record spans.
class RecordArena {
 public:
  explicit RecordArena(const RecordArenaOptions& options = {});
  ~RecordArena();

  RecordArena(const RecordArena&) = delete;
  RecordArena& operator=(const RecordArena&) = delete;

  /// A contiguous, uninitialized span of `n` records. Never returns
  /// nullptr for n > 0; n == 0 returns nullptr. Each record stays valid
  /// until it is Released.
  Record* Allocate(std::size_t n);

  /// Hands back `n` records starting at `p` (an Allocate result or any
  /// contiguous run of one — releases may be split, e.g. a rejected
  /// suffix now and the admitted prefix as the queue drains it). A
  /// sealed chunk whose records are all released is recycled here.
  /// Releasing the newest span of the open chunk (nothing allocated
  /// after it) returns the space to that chunk at once, so a refused
  /// frame costs no storage.
  void Release(const Record* p, std::size_t n);

  /// Allocates chunks for `records` records up front and keeps at least
  /// that many for good (free or in use), so until more than `records`
  /// are in flight the arena allocates nothing and its resident bytes do
  /// not depend on how deep a backlog has run.
  void Reserve(std::size_t records);

  /// Slab bytes currently held (live chunks + free list) — the
  /// topkmon_arena_bytes gauge. Zero growth of this at steady state is
  /// what the soak tier asserts.
  std::size_t ResidentBytes() const;

  RecordArenaStats stats() const;

 private:
  struct Chunk {
    Record* slab = nullptr;
    std::size_t capacity = 0;
    std::size_t used = 0;      ///< records handed out of this chunk
    std::size_t released = 0;  ///< records handed back
    bool sealed = false;       ///< no further allocations
  };

  /// Moves the sealed, fully released chunks_[i] to the free list, or
  /// frees it past the cap. Caller holds mu_.
  void RecycleLocked(std::size_t i);
  /// A new slab of `capacity` records, counted as created.
  Chunk FreshChunkLocked(std::size_t capacity);

  const RecordArenaOptions options_;

  mutable std::mutex mu_;
  std::vector<Chunk> chunks_;        ///< live chunks, oldest first
  std::vector<Chunk> free_chunks_;   ///< fully reclaimed, reusable slabs
  std::size_t reserved_chunks_ = 0;  ///< never freed (see Reserve)
  RecordArenaStats stats_;
};

}  // namespace topkmon

#endif  // TOPKMON_STREAM_RECORD_ARENA_H_
