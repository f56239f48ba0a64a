// RecordArena lifetime and recycling, plus the zero-copy decode path's
// arena discipline under hostile bytes.
//
// The arena's contract: a chunk takes spans until it is full or the
// next span does not fit, then seals, and a sealed chunk recycles once
// every record allocated from it has been released — in whatever
// order and however split the releases come (a refused frame suffix
// now, the admitted prefix when the ingest queue drains it). Releasing
// the open chunk's newest span hands its space straight back. The free
// list is capped, but never below what Reserve took.
//
// Suite names (RecordArena*, ZeroCopy*) are pinned by CI's TSan job
// (.github/workflows/ci.yml), which runs them under the race detector.

#include "stream/record_arena.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/record.h"
#include "net/protocol.h"

namespace topkmon {
namespace {

Record* FillSpan(RecordArena& arena, std::size_t n, RecordId first_id) {
  Record* span = arena.Allocate(n);
  for (std::size_t i = 0; i < n; ++i) {
    span[i].id = first_id + i;
    span[i].position = Point(2);
    span[i].position[0] = 0.25;
    span[i].position[1] = 0.75;
    span[i].arrival = static_cast<Timestamp>(first_id + i);
  }
  return span;
}

TEST(RecordArenaTest, AllocateZeroReturnsNull) {
  RecordArena arena;
  EXPECT_EQ(arena.Allocate(0), nullptr);
}

TEST(RecordArenaTest, ReleasedAndRetiredChunksRecycle) {
  RecordArenaOptions opt;
  opt.chunk_records = 8;
  opt.max_free_chunks = 2;
  RecordArena arena(opt);

  Record* a = FillSpan(arena, 8, 0);
  arena.Release(a, 8);
  const std::size_t resident = arena.ResidentBytes();

  // The next same-size span must come from the free list, not malloc.
  Record* b = FillSpan(arena, 8, 8);
  EXPECT_EQ(arena.ResidentBytes(), resident);
  arena.Release(b, 8);

  const RecordArenaStats s = arena.stats();
  EXPECT_EQ(s.allocated_records, 16u);
  EXPECT_EQ(s.released_records, 16u);
  EXPECT_GE(s.chunks_recycled, 1u);
}

TEST(RecordArenaTest, SplitReleaseReclaimsWholeChunk) {
  RecordArenaOptions opt;
  opt.chunk_records = 8;
  RecordArena arena(opt);

  // The server's shape: rejected suffix released immediately, admitted
  // prefix when the queue drains it — split, out of order.
  Record* span = FillSpan(arena, 8, 0);
  arena.Release(span + 5, 3);  // rejected suffix first
  EXPECT_EQ(arena.stats().chunks_recycled, 0u);
  arena.Release(span, 5);  // admitted prefix at drain
  Record* next = FillSpan(arena, 8, 8);
  EXPECT_GE(arena.stats().chunks_recycled, 1u);
  arena.Release(next, 8);
}

TEST(RecordArenaTest, ShortEpochsShareAChunk) {
  RecordArenaOptions opt;
  opt.chunk_records = 8;
  RecordArena arena(opt);

  // One small span per cycle, none released yet: the resident bytes
  // follow the records in flight, not the number of cycles they span.
  std::vector<Record*> spans;
  for (int cycle = 0; cycle < 4; ++cycle) {
    spans.push_back(FillSpan(arena, 2, static_cast<RecordId>(cycle) * 2));
  }
  EXPECT_EQ(arena.stats().chunks_created, 1u);
  EXPECT_EQ(arena.ResidentBytes(), opt.chunk_records * sizeof(Record));
  for (Record* span : spans) arena.Release(span, 2);
  EXPECT_EQ(arena.stats().released_records, 8u);
}

TEST(RecordArenaTest, OpenChunkRecyclesWhenTheNextSpanSealsIt) {
  RecordArenaOptions opt;
  opt.chunk_records = 8;
  RecordArena arena(opt);

  Record* a = FillSpan(arena, 2, 0);
  Record* b = FillSpan(arena, 2, 2);
  arena.Release(a, 2);
  arena.Release(b, 2);
  // Fully released but still open: the span that does not fit seals
  // the chunk, which recycles it, and the span reuses its slab.
  Record* c = FillSpan(arena, 8, 4);
  const RecordArenaStats s = arena.stats();
  EXPECT_EQ(s.chunks_created, 1u);
  EXPECT_EQ(s.chunks_recycled, 1u);
  EXPECT_EQ(arena.ResidentBytes(), opt.chunk_records * sizeof(Record));
  arena.Release(c, 8);
}

TEST(RecordArenaTest, ReservedChunksAreKeptPastTheFreeListCap) {
  RecordArenaOptions opt;
  opt.chunk_records = 4;
  opt.max_free_chunks = 1;
  RecordArena arena(opt);
  arena.Reserve(16);
  const std::size_t reserved = 16 * sizeof(Record);
  EXPECT_EQ(arena.ResidentBytes(), reserved);

  for (int round = 0; round < 3; ++round) {
    std::vector<Record*> spans;
    for (int i = 0; i < 4; ++i) {
      spans.push_back(
          FillSpan(arena, 4, static_cast<RecordId>(round * 16 + i * 4)));
    }
    for (Record* span : spans) arena.Release(span, 4);
    EXPECT_EQ(arena.ResidentBytes(), reserved) << "round " << round;
  }
  const RecordArenaStats s = arena.stats();
  EXPECT_EQ(s.chunks_created, 4u);
  EXPECT_EQ(s.chunks_freed, 0u);
}

TEST(RecordArenaTest, OversizedSpanGetsDedicatedChunk) {
  RecordArenaOptions opt;
  opt.chunk_records = 4;
  opt.max_free_chunks = 1;
  RecordArena arena(opt);

  Record* big = FillSpan(arena, 64, 0);
  for (std::size_t i = 0; i < 64; ++i) {
    ASSERT_EQ(big[i].id, i);
  }
  arena.Release(big, 64);
  // One big free chunk is kept; a second oversized round must reuse it.
  const std::size_t resident = arena.ResidentBytes();
  Record* again = FillSpan(arena, 64, 64);
  EXPECT_LE(arena.ResidentBytes(), resident + 64 * sizeof(Record));
  arena.Release(again, 64);
}

TEST(RecordArenaTest, FreeListCapBoundsResidency) {
  RecordArenaOptions opt;
  opt.chunk_records = 8;
  opt.max_free_chunks = 2;
  RecordArena arena(opt);

  // Recycle-under-pressure: many rounds, each fully released.
  // Residency must flatline at the free-list cap, not ratchet.
  std::size_t high_water = 0;
  for (int round = 0; round < 200; ++round) {
    Record* a = FillSpan(arena, 8, static_cast<RecordId>(round) * 24);
    Record* b = FillSpan(arena, 8, static_cast<RecordId>(round) * 24 + 8);
    Record* c = FillSpan(arena, 8, static_cast<RecordId>(round) * 24 + 16);
    arena.Release(b, 8);
    arena.Release(a, 8);
    arena.Release(c, 8);
    high_water = std::max(high_water, arena.ResidentBytes());
  }
  // 3 in-flight chunks + the free list; anything past that is a leak.
  EXPECT_LE(high_water,
            (3 + opt.max_free_chunks) * opt.chunk_records * sizeof(Record));
  const RecordArenaStats s = arena.stats();
  EXPECT_EQ(s.allocated_records, s.released_records);
  EXPECT_GE(s.chunks_recycled + s.chunks_freed, 100u);
}

TEST(RecordArenaTest, ConcurrentProducersAndRecycler) {
  RecordArenaOptions opt;
  opt.chunk_records = 32;
  RecordArena arena(opt);

  // The service's real shape under TSan: several poll loops decode into
  // the arena and hand the spans over a mutex-guarded queue to one
  // consumer (the driver's drain), which releases them from its thread.
  constexpr int kProducers = 4;
  constexpr int kRounds = 100;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Record*> handed_over;
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        Record* span =
            FillSpan(arena, 8, static_cast<RecordId>(t) * 100000 +
                                   static_cast<RecordId>(round) * 8);
        {
          std::lock_guard<std::mutex> lock(mu);
          handed_over.push_back(span);
        }
        cv.notify_one();
      }
    });
  }
  std::thread consumer([&] {
    for (int taken = 0; taken < kProducers * kRounds; ++taken) {
      Record* span = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !handed_over.empty(); });
        span = handed_over.front();
        handed_over.pop_front();
      }
      for (std::size_t i = 0; i < 8; ++i) {
        ASSERT_EQ(span[i].position[0], 0.25);
        ASSERT_EQ(span[i].id, span[0].id + i);
      }
      arena.Release(span, 8);
    }
  });
  for (std::thread& p : producers) p.join();
  consumer.join();
  const RecordArenaStats s = arena.stats();
  EXPECT_EQ(s.allocated_records, s.released_records);
  EXPECT_EQ(s.allocated_records, 4u * 100u * 8u);
}

// ---- zero-copy decode: hostile bytes must leave the arena consistent --

std::string EncodeIngestBody(const std::vector<Record>& records) {
  std::string body;
  EncodeIngest(records, &body);
  return body;
}

std::vector<Record> SampleRecords(std::size_t n) {
  std::vector<Record> records;
  for (std::size_t i = 0; i < n; ++i) {
    Point p(2);
    p[0] = 0.1 + 0.001 * static_cast<double>(i);
    p[1] = 0.9 - 0.001 * static_cast<double>(i);
    records.emplace_back(static_cast<RecordId>(i), p,
                         static_cast<Timestamp>(100 + i));
  }
  return records;
}

TEST(ZeroCopyDecodeTest, ValidFrameDecodesBitwise) {
  RecordArena arena;
  const std::vector<Record> records = SampleRecords(17);
  const std::string body = EncodeIngestBody(records);
  IngestFrameView view;
  ASSERT_TRUE(
      DecodeIngestBodyToArena(body.data(), body.size(), 2, arena, &view)
          .ok());
  ASSERT_EQ(view.count, records.size());
  EXPECT_TRUE(view.invalid.empty());
  for (std::size_t i = 0; i < view.count; ++i) {
    EXPECT_EQ(view.records[i].id, records[i].id);
    EXPECT_EQ(view.records[i].arrival, records[i].arrival);
    for (int d = 0; d < 2; ++d) {
      const double a = view.records[i].position[d];
      const double b = records[i].position[d];
      EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0);
    }
  }
  arena.Release(view.records, view.count);
  const RecordArenaStats s = arena.stats();
  EXPECT_EQ(s.allocated_records, s.released_records);
}

TEST(ZeroCopyDecodeTest, TruncatedFrameReleasesItsAllocation) {
  RecordArena arena;
  const std::string body = EncodeIngestBody(SampleRecords(9));
  // Chop the body mid-span: the count prefix survives, the records do
  // not — decode must fail AND hand back everything it allocated.
  for (std::size_t cut = 6; cut < body.size(); cut += 7) {
    IngestFrameView view;
    const Status st =
        DecodeIngestBodyToArena(body.data(), cut, 2, arena, &view);
    EXPECT_FALSE(st.ok()) << "cut=" << cut;
    EXPECT_EQ(view.count, 0u);
  }
  const RecordArenaStats s = arena.stats();
  EXPECT_EQ(s.allocated_records, s.released_records);
  // A fresh decode into the now-consistent arena still works.
  IngestFrameView view;
  const std::string good = EncodeIngestBody(SampleRecords(4));
  ASSERT_TRUE(
      DecodeIngestBodyToArena(good.data(), good.size(), 2, arena, &view)
          .ok());
  EXPECT_EQ(view.count, 4u);
  arena.Release(view.records, view.count);
}

TEST(ZeroCopyDecodeTest, HostileCountRefusedBeforeAllocation) {
  RecordArena arena;
  std::string body = EncodeIngestBody(SampleRecords(3));
  // Rewrite the u32 count (bytes 1..4, after the type tag) to promise
  // ~16M records backed by a handful of bytes.
  const std::uint32_t hostile = 0x00FFFFFFu;
  std::memcpy(&body[1], &hostile, sizeof(hostile));
  IngestFrameView view;
  const Status st =
      DecodeIngestBodyToArena(body.data(), body.size(), 2, arena, &view);
  EXPECT_FALSE(st.ok());
  // Refused before sizing an allocation: the arena never grew.
  EXPECT_EQ(arena.stats().allocated_records, 0u);
  EXPECT_EQ(arena.ResidentBytes(), 0u);
}

TEST(ZeroCopyDecodeTest, TrailingGarbageRefusedAndReleased) {
  RecordArena arena;
  std::string body = EncodeIngestBody(SampleRecords(5));
  body.append("garbage");
  IngestFrameView view;
  EXPECT_FALSE(
      DecodeIngestBodyToArena(body.data(), body.size(), 2, arena, &view)
          .ok());
  const RecordArenaStats s = arena.stats();
  EXPECT_EQ(s.allocated_records, s.released_records);
}

TEST(ZeroCopyDecodeTest, OutOfSpacePointsFlaggedNotRefused) {
  RecordArena arena;
  std::vector<Record> records = SampleRecords(6);
  records[2].position[0] = 1.5;   // outside the unit space
  records[4].position[1] = -0.5;  // ditto
  const std::string body = EncodeIngestBody(records);
  IngestFrameView view;
  // Unit-space violations are PER-RECORD refusals, not frame failures:
  // the frame decodes, the offenders land in `invalid`, and the caller
  // interleaves their rejections between the valid runs.
  ASSERT_TRUE(
      DecodeIngestBodyToArena(body.data(), body.size(), 2, arena, &view)
          .ok());
  ASSERT_EQ(view.count, 6u);
  ASSERT_EQ(view.invalid.size(), 2u);
  EXPECT_EQ(view.invalid[0], 2u);
  EXPECT_EQ(view.invalid[1], 4u);
  EXPECT_FALSE(view.first_invalid.ok());
  arena.Release(view.records, view.count);
}

TEST(ZeroCopyDecodeTest, DimensionMismatchFlagsEveryRecord) {
  RecordArena arena;
  const std::string body = EncodeIngestBody(SampleRecords(4));
  IngestFrameView view;
  ASSERT_TRUE(
      DecodeIngestBodyToArena(body.data(), body.size(), /*dim=*/3, arena,
                              &view)
          .ok());
  ASSERT_EQ(view.count, 4u);
  EXPECT_EQ(view.invalid.size(), 4u);
  EXPECT_FALSE(view.first_invalid.ok());
  arena.Release(view.records, view.count);
}

}  // namespace
}  // namespace topkmon
