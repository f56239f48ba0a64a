#include "service/ingest_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "tests/test_util.h"

namespace topkmon {
namespace {

Point P(double x, double y) { return Point{x, y}; }

/// Drains everything currently buffered (flush gate open).
std::vector<Record> DrainAll(IngestQueue& queue) {
  std::vector<Record> out;
  Timestamp ts = 0;
  while (queue.DrainBatch(&out, &ts, std::chrono::milliseconds(0),
                          /*flush_all=*/true) > 0) {
  }
  return out;
}

TEST(IngestQueueTest, ReordersWithinSlackAndAssignsIncreasingIds) {
  IngestOptions opt;
  opt.slack = 5;
  IngestQueue queue(opt);
  // Push out of timestamp order, all within the slack.
  for (Timestamp ts : {3, 1, 4, 2, 5}) {
    TOPKMON_ASSERT_OK(queue.Push(P(0.1, 0.2), ts));
  }
  const std::vector<Record> out = DrainAll(queue);
  ASSERT_EQ(out.size(), 5u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].arrival, static_cast<Timestamp>(i + 1));
    EXPECT_EQ(out[i].id, static_cast<RecordId>(i));
  }
  EXPECT_EQ(queue.stats().coerced, 0u);
}

TEST(IngestQueueTest, SlackGateHoldsRecentRecordsBack) {
  IngestOptions opt;
  opt.slack = 3;
  IngestQueue queue(opt);
  for (Timestamp ts : {1, 2, 3, 4, 5}) {
    TOPKMON_ASSERT_OK(queue.Push(P(0.5, 0.5), ts));
  }
  std::vector<Record> out;
  Timestamp cycle = 0;
  // Only ts 1 and 2 clear the gate (max_seen=5, slack=3).
  const std::size_t n =
      queue.DrainBatch(&out, &cycle, std::chrono::milliseconds(0));
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(cycle, 2);
  EXPECT_EQ(queue.depth(), 3u);
}

TEST(IngestQueueTest, LateStragglerIsCoercedToTheFrontier) {
  IngestOptions opt;
  opt.slack = 1;
  IngestQueue queue(opt);
  for (Timestamp ts : {5, 6, 7}) {
    TOPKMON_ASSERT_OK(queue.Push(P(0.5, 0.5), ts));
  }
  std::vector<Record> out = DrainAll(queue);
  ASSERT_EQ(out.size(), 3u);
  // Far too late: arrives after the frontier reached 7.
  TOPKMON_ASSERT_OK(queue.Push(P(0.5, 0.5), 2));
  out = DrainAll(queue);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].arrival, 7);  // coerced forward, not time-traveling
  EXPECT_EQ(queue.stats().coerced, 1u);
}

TEST(IngestQueueTest, ConcurrentProducersKeepBatchesOrdered) {
  IngestOptions opt;
  opt.slack = 8;
  opt.capacity = 1 << 12;
  IngestQueue queue(opt);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 1000;
  std::atomic<Timestamp> clock{1};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, &clock] {
      for (int i = 0; i < kPerProducer; ++i) {
        const Timestamp ts = clock.fetch_add(1);
        ASSERT_TRUE(queue.Push(P(0.3, 0.7), ts).ok());
      }
    });
  }
  std::vector<Record> all;
  Timestamp cycle = 0;
  while (all.size() < kProducers * kPerProducer) {
    queue.DrainBatch(&all, &cycle, std::chrono::milliseconds(5));
    if (queue.depth() == 0 && all.size() < kProducers * kPerProducer) {
      std::this_thread::yield();
    }
  }
  for (std::thread& t : producers) t.join();
  all = [&] {
    std::vector<Record> rest = DrainAll(queue);
    all.insert(all.end(), rest.begin(), rest.end());
    return all;
  }();
  ASSERT_EQ(all.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].id, static_cast<RecordId>(i));  // strictly increasing
    if (i > 0) {
      EXPECT_GE(all[i].arrival, all[i - 1].arrival);  // non-decreasing
    }
  }
  EXPECT_EQ(queue.stats().pushed,
            static_cast<std::uint64_t>(kProducers * kPerProducer));
}

TEST(IngestQueueTest, BackpressureBoundsTheBufferAndReleasesProducers) {
  IngestOptions opt;
  opt.capacity = 8;
  opt.slack = 0;
  IngestQueue queue(opt);
  constexpr int kTotal = 64;
  std::thread producer([&queue] {
    for (Timestamp ts = 1; ts <= kTotal; ++ts) {
      ASSERT_TRUE(queue.Push(P(0.2, 0.2), ts).ok());  // blocks when full
    }
  });
  std::vector<Record> all;
  Timestamp cycle = 0;
  while (all.size() < kTotal) {
    queue.DrainBatch(&all, &cycle, std::chrono::milliseconds(5));
  }
  producer.join();
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kTotal));
  EXPECT_LE(queue.stats().max_depth, 8u);  // capacity was never exceeded
}

TEST(IngestQueueTest, TryPushShedsOnFullBuffer) {
  IngestOptions opt;
  opt.capacity = 2;
  IngestQueue queue(opt);
  EXPECT_TRUE(queue.TryPush(P(0.1, 0.1), 1));
  EXPECT_TRUE(queue.TryPush(P(0.1, 0.1), 2));
  EXPECT_FALSE(queue.TryPush(P(0.1, 0.1), 3));
  EXPECT_EQ(queue.stats().shed, 1u);
  EXPECT_EQ(queue.stats().pushed, 2u);
}

TEST(IngestQueueTest, CloseWakesBlockedProducersAndDrainsRemainder) {
  IngestOptions opt;
  opt.capacity = 2;
  IngestQueue queue(opt);
  TOPKMON_ASSERT_OK(queue.Push(P(0.1, 0.1), 1));
  TOPKMON_ASSERT_OK(queue.Push(P(0.1, 0.1), 2));
  std::thread blocked([&queue] {
    const Status st = queue.Push(P(0.1, 0.1), 3);  // full: blocks
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Close();
  blocked.join();
  EXPECT_EQ(queue.Push(P(0.1, 0.1), 4).code(),
            StatusCode::kFailedPrecondition);
  std::vector<Record> out;
  Timestamp cycle = 0;
  EXPECT_EQ(queue.DrainBatch(&out, &cycle, std::chrono::milliseconds(0)),
            2u);
  EXPECT_EQ(queue.DrainBatch(&out, &cycle, std::chrono::milliseconds(0)),
            0u);
  EXPECT_TRUE(queue.closed());
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(IngestQueueTest, MaxBatchSplitsLargeBacklogs) {
  IngestOptions opt;
  opt.max_batch = 10;
  IngestQueue queue(opt);
  for (Timestamp ts = 1; ts <= 25; ++ts) {
    TOPKMON_ASSERT_OK(queue.Push(P(0.4, 0.4), ts));
  }
  std::vector<Record> out;
  Timestamp cycle = 0;
  EXPECT_EQ(queue.DrainBatch(&out, &cycle, std::chrono::milliseconds(0),
                             true),
            10u);
  EXPECT_EQ(cycle, 10);
  EXPECT_EQ(queue.DrainBatch(&out, &cycle, std::chrono::milliseconds(0),
                             true),
            10u);
  EXPECT_EQ(queue.DrainBatch(&out, &cycle, std::chrono::milliseconds(0),
                             true),
            5u);
  EXPECT_EQ(cycle, 25);
}

TEST(IngestQueueTest, ReordersARunThatWrapsTheRing) {
  IngestOptions opt;
  opt.capacity = 8;
  opt.max_batch = 5;
  opt.slack = 100;
  IngestQueue queue(opt);
  for (Timestamp ts = 1; ts <= 6; ++ts) {
    TOPKMON_ASSERT_OK(queue.Push(P(0.3, 0.3), ts));
  }
  std::vector<Record> out;
  Timestamp cycle = 0;
  EXPECT_EQ(queue.DrainBatch(&out, &cycle, std::chrono::milliseconds(0),
                             /*flush_all=*/true),
            5u);
  // The live run starts at slot 5; these fill the ring past its end.
  for (Timestamp ts : {12, 8, 11, 7, 10, 9, 13}) {
    TOPKMON_ASSERT_OK(queue.Push(P(0.3, 0.3), ts));
  }
  EXPECT_EQ(queue.depth(), 8u);
  const std::vector<Record> rest = DrainAll(queue);
  ASSERT_EQ(rest.size(), 8u);
  for (std::size_t i = 0; i < rest.size(); ++i) {
    EXPECT_EQ(rest[i].arrival, static_cast<Timestamp>(6 + i));
    EXPECT_EQ(rest[i].id, static_cast<RecordId>(5 + i));
  }
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(IngestQueueTest, DrainHandsArenaStorageBack) {
  IngestOptions opt;
  opt.slack = 0;
  IngestQueue queue(opt);
  // Two decoded frames with interleaved arrivals: the drain's (arrival,
  // seq) order alternates between them, so each span comes back split
  // into several runs rather than as one.
  RecordArena& arena = queue.arena();
  Record* first = arena.Allocate(4);
  Record* second = arena.Allocate(4);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto ts = static_cast<Timestamp>(2 * i);
    first[i] = Record(kInvalidRecordId, P(0.1, 0.1), ts + 1);
    second[i] = Record(kInvalidRecordId, P(0.2, 0.2), ts + 2);
  }
  ASSERT_EQ(queue.PushBatch(first, 4), 4u);
  ASSERT_EQ(queue.PushBatch(second, 4), 4u);
  TOPKMON_ASSERT_OK(queue.Push(P(0.3, 0.3), 9));

  const std::vector<Record> out = DrainAll(queue);
  ASSERT_EQ(out.size(), 9u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].arrival, static_cast<Timestamp>(i + 1));
    EXPECT_EQ(out[i].position[0], i == 8 ? 0.3 : (i % 2 == 0 ? 0.1 : 0.2));
  }
  // Nothing after the drain: the storage is already back.
  const RecordArenaStats s = queue.ArenaStats();
  EXPECT_EQ(s.allocated_records, 9u);
  EXPECT_EQ(s.released_records, s.allocated_records);
}

TEST(IngestQueueTest, RefusedSuffixReturnsToTheOpenChunkAtOnce) {
  IngestOptions opt;
  opt.capacity = 4;
  IngestQueue queue(opt);
  RecordArena& arena = queue.arena();
  Record* frame = arena.Allocate(6);
  for (std::size_t i = 0; i < 6; ++i) {
    frame[i] = Record(kInvalidRecordId, P(0.5, 0.5),
                      static_cast<Timestamp>(i + 1));
  }
  ASSERT_EQ(queue.PushBatch(frame, 6), 4u);
  EXPECT_EQ(queue.stats().shed, 2u);
  // The caller releases the refused suffix; it was the open chunk's
  // newest span, so the next allocation takes the same slots.
  arena.Release(frame + 4, 2);
  EXPECT_EQ(queue.ArenaStats().released_records, 2u);
  Record* next = arena.Allocate(2);
  EXPECT_EQ(next, frame + 4);
  arena.Release(next, 2);

  EXPECT_EQ(DrainAll(queue).size(), 4u);
  const RecordArenaStats s = queue.ArenaStats();
  EXPECT_EQ(s.allocated_records, 8u);
  EXPECT_EQ(s.released_records, s.allocated_records);
}

}  // namespace
}  // namespace topkmon
