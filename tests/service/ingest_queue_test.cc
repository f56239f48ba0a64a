#include "service/ingest_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <atomic>
#include <chrono>
#include <thread>
#include <tuple>
#include <vector>

#include "tests/test_util.h"

namespace topkmon {
namespace {

constexpr int kDim = 2;

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
  IngestQueue queue(opt, kDim);
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
  IngestQueue queue(opt, kDim);
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
  IngestQueue queue(opt, kDim);
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
  IngestQueue queue(opt, kDim);
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
  IngestQueue queue(opt, kDim);
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
  IngestQueue queue(opt, kDim);
  EXPECT_TRUE(queue.TryPush(P(0.1, 0.1), 1));
  EXPECT_TRUE(queue.TryPush(P(0.1, 0.1), 2));
  EXPECT_FALSE(queue.TryPush(P(0.1, 0.1), 3));
  EXPECT_EQ(queue.stats().shed, 1u);
  EXPECT_EQ(queue.stats().pushed, 2u);
}

TEST(IngestQueueTest, CloseWakesBlockedProducersAndDrainsRemainder) {
  IngestOptions opt;
  opt.capacity = 2;
  IngestQueue queue(opt, kDim);
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
  IngestQueue queue(opt, kDim);
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
  IngestQueue queue(opt, kDim);
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

TEST(IngestQueueTest, EqualArrivalsKeepPushOrderAcrossASort) {
  // Each record's x coordinate is its push number, and many records
  // share each arrival. Two sorts run, over runs long enough that an
  // unstable sort reorders ties: the second over a run that holds what
  // the first sort left and later pushes tied with it, and that wraps
  // the ring. Ties leave in push order both times.
  IngestOptions opt;
  opt.slack = 2;
  opt.capacity = 64;
  IngestQueue queue(opt, kDim);
  using Keys = std::vector<std::pair<Timestamp, int>>;
  Keys pushed;
  const auto push = [&](Timestamp ts) {
    const int n = static_cast<int>(pushed.size()) + 1;
    pushed.emplace_back(ts, n);
    TOPKMON_ASSERT_OK(queue.Push(P(n / 1000.0, 0.5), ts));
  };
  /// Drains what the slack gate releases, as (arrival, push number).
  const auto drain = [&queue] {
    std::vector<Record> out;
    Timestamp cycle = 0;
    queue.DrainBatch(&out, &cycle, std::chrono::milliseconds(0));
    Keys got;
    for (const Record& r : out) {
      got.emplace_back(r.arrival,
                       static_cast<int>(std::lround(r.position[0] * 1000)));
    }
    return got;
  };
  /// pushed[from, to) in arrival order, ties in push order.
  const auto stable = [&pushed](std::size_t from, std::size_t to) {
    Keys want(pushed.begin() + static_cast<std::ptrdiff_t>(from),
              pushed.begin() + static_cast<std::ptrdiff_t>(to));
    std::stable_sort(want.begin(), want.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    return want;
  };

  for (int i = 0; i < 40; ++i) push(10 + (i * 3) % 4);
  push(20);  // releases arrivals up to 18: the 40 above
  EXPECT_EQ(drain(), stable(0, 40));
  for (int i = 0; i < 30; ++i) push(19 + i % 3);
  push(30);  // releases up to 28: the leftover 20 and the 30 above
  EXPECT_EQ(drain(), stable(40, 71));
  EXPECT_EQ(queue.stats().sorts, 2u);
  EXPECT_EQ(queue.depth(), 1u);
}

TEST(IngestQueueTest, StorageIsFixedAtCapacityTimesSlotBytes) {
  // A slot costs a 24-byte key, a 4-byte free-stack entry and d
  // coordinates, all taken at construction: a full queue and a drained
  // one hold exactly what a fresh one does.
  for (const int dim : {1, 2, 8}) {
    SCOPED_TRACE(dim);
    IngestOptions opt;
    opt.capacity = 64;
    opt.slack = 0;
    IngestQueue queue(opt, dim);
    const std::size_t want =
        opt.capacity * (28 + 8 * static_cast<std::size_t>(dim));
    EXPECT_EQ(queue.MemoryBytes(), want);
    const Point p(dim);
    Timestamp ts = 0;
    while (queue.TryPush(p, ++ts)) {
    }
    EXPECT_EQ(queue.depth(), opt.capacity);
    EXPECT_EQ(queue.MemoryBytes(), want);
    EXPECT_EQ(DrainAll(queue).size(), opt.capacity);
    EXPECT_EQ(queue.MemoryBytes(), want);
  }
}

TEST(IngestQueueTest, DrainHandsArenaStorageBack) {
  IngestOptions opt;
  opt.capacity = 9;
  opt.slack = 0;
  IngestQueue queue(opt, kDim);
  const std::size_t bytes = queue.MemoryBytes();
  // Two decoded frames with interleaved arrivals: the drain's (arrival,
  // seq) order alternates between them, so the sort hands the lane
  // slots back out of push order.
  std::vector<Record> first;
  std::vector<Record> second;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto ts = static_cast<Timestamp>(2 * i);
    first.emplace_back(kInvalidRecordId, P(0.1, 0.1), ts + 1);
    second.emplace_back(kInvalidRecordId, P(0.2, 0.2), ts + 2);
  }
  ASSERT_EQ(queue.PushBatch(first), 4u);
  ASSERT_EQ(queue.PushBatch(second), 4u);
  TOPKMON_ASSERT_OK(queue.Push(P(0.3, 0.3), 9));
  EXPECT_FALSE(queue.TryPush(P(0.4, 0.4), 10));

  const std::vector<Record> out = DrainAll(queue);
  ASSERT_EQ(out.size(), 9u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].arrival, static_cast<Timestamp>(i + 1));
    EXPECT_EQ(out[i].position[0], i == 8 ? 0.3 : (i % 2 == 0 ? 0.1 : 0.2));
  }
  // Nothing after the drain: every slot is already back, so a full
  // capacity fits again in the same storage, each with its own point.
  EXPECT_EQ(queue.depth(), 0u);
  for (std::size_t i = 0; i < opt.capacity; ++i) {
    EXPECT_TRUE(queue.TryPush(P(0.01 * static_cast<double>(i), 0.5),
                              static_cast<Timestamp>(20 + i)));
  }
  EXPECT_EQ(queue.MemoryBytes(), bytes);
  const std::vector<Record> again = DrainAll(queue);
  ASSERT_EQ(again.size(), opt.capacity);
  for (std::size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again[i].position[0], 0.01 * static_cast<double>(i));
  }
}

TEST(IngestQueueTest, RefusedSuffixReturnsToTheOpenChunkAtOnce) {
  IngestOptions opt;
  opt.capacity = 4;
  IngestQueue queue(opt, kDim);
  const std::size_t bytes = queue.MemoryBytes();
  std::vector<Record> frame;
  for (std::size_t i = 0; i < 6; ++i) {
    frame.emplace_back(kInvalidRecordId, P(0.5, 0.5),
                       static_cast<Timestamp>(i + 1));
  }
  ASSERT_EQ(queue.PushBatch(frame), 4u);
  EXPECT_EQ(queue.stats().shed, 2u);
  EXPECT_EQ(queue.stats().pushed, 4u);
  EXPECT_EQ(queue.depth(), 4u);
  // The refused suffix was never copied in: it holds no slot, and the
  // caller may offer it again as soon as a drain frees room.
  EXPECT_EQ(queue.MemoryBytes(), bytes);
  EXPECT_EQ(DrainAll(queue).size(), 4u);
  ASSERT_EQ(queue.PushBatch(RecordSpan(frame.data() + 4, 2)), 2u);
  const std::vector<Record> rest = DrainAll(queue);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].arrival, 5);
  EXPECT_EQ(rest[1].arrival, 6);
  EXPECT_EQ(queue.stats().shed, 2u);
  EXPECT_EQ(queue.MemoryBytes(), bytes);
}

TEST(IngestQueueTest, OldestPushIsTheEarliestBatchInstant) {
  IngestOptions opt;
  opt.slack = 0;
  IngestQueue queue(opt, kDim);
  // Each PushBatch call stamps its records with one instant; the drain
  // reports the earliest among what it released. The later batch holds
  // the earlier arrivals, so drain order and push order disagree.
  std::vector<Record> late(3, Record(kInvalidRecordId, P(0.1, 0.1), 10));
  std::vector<Record> early(3, Record(kInvalidRecordId, P(0.2, 0.2), 5));
  const auto before_first = std::chrono::steady_clock::now();
  ASSERT_EQ(queue.PushBatch(late), 3u);
  const auto after_first = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const auto before_second = std::chrono::steady_clock::now();
  ASSERT_EQ(queue.PushBatch(early), 3u);

  std::vector<Record> out;
  Timestamp cycle = 0;
  std::chrono::steady_clock::time_point oldest;
  ASSERT_EQ(queue.DrainBatch(&out, &cycle, std::chrono::milliseconds(0),
                             /*flush_all=*/true, &oldest),
            6u);
  EXPECT_EQ(out.front().arrival, 5);
  EXPECT_GE(oldest, before_first);
  EXPECT_LE(oldest, after_first);
  EXPECT_LT(oldest, before_second);
}

TEST(IngestQueueTest, OutOfOrderProducersKeepCoordinatesWithTheirArrival) {
  // Each record's coordinates name its producer, its sequence number and
  // the arrival it was pushed with. Arrivals run out of order inside and
  // beyond the slack, so drains sort the keys and hand slots back out of
  // order; a small capacity makes every slot get reused many times.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 1500;
  constexpr int kChunk = 10;
  constexpr int kCoords = 3;
  IngestOptions opt;
  opt.capacity = 48;
  opt.max_batch = 16;
  opt.slack = 4;
  IngestQueue queue(opt, kCoords);
  const auto make = [](int producer, int seq) {
    Timestamp arrival = seq;
    if (seq % 7 == 3) arrival -= 3;    // late, within the slack
    if (seq % 11 == 5) arrival -= 12;  // late, beyond it
    arrival = std::max<Timestamp>(arrival, 0);
    Point p(kCoords);
    p[0] = producer;
    p[1] = seq;
    p[2] = static_cast<double>(arrival);
    return Record(kInvalidRecordId, p, arrival);
  };
  std::vector<std::thread> producers;
  for (int producer = 0; producer < kProducers; ++producer) {
    producers.emplace_back([&queue, &make, producer] {
      for (int first = 0; first < kPerProducer; first += kChunk) {
        std::vector<Record> chunk;
        for (int seq = first; seq < first + kChunk; ++seq) {
          chunk.push_back(make(producer, seq));
        }
        if ((first / kChunk) % 2 == 0) {
          // PushBatch never blocks: offer the refused suffix again.
          const RecordSpan span(chunk);
          std::size_t done = 0;
          while (done < span.size()) {
            done += queue.PushBatch(span.subspan(done, span.size() - done));
            if (done < span.size()) std::this_thread::yield();
          }
        } else {
          for (const Record& r : chunk) {
            ASSERT_TRUE(queue.Push(r.position, r.arrival).ok());
          }
        }
      }
    });
  }
  std::vector<Record> all;
  Timestamp cycle = 0;
  while (all.size() < kProducers * kPerProducer) {
    queue.DrainBatch(&all, &cycle, std::chrono::milliseconds(1));
  }
  for (std::thread& t : producers) t.join();
  ASSERT_EQ(all.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));

  std::vector<std::tuple<int, int>> seen;
  std::uint64_t coerced = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Record& r = all[i];
    const int producer = static_cast<int>(r.position[0]);
    const int seq = static_cast<int>(r.position[1]);
    ASSERT_EQ(r.position.dim(), kCoords);
    // The coordinates are exactly the ones pushed with this record...
    const Record want = make(producer, seq);
    ASSERT_EQ(r.position, want.position) << "record " << i;
    // ...and so is its arrival, unless the drain coerced a straggler.
    if (r.arrival != want.arrival) {
      EXPECT_GT(r.arrival, want.arrival) << "record " << i;
      ++coerced;
    }
    EXPECT_EQ(r.id, static_cast<RecordId>(i));
    if (i > 0) {
      EXPECT_GE(r.arrival, all[i - 1].arrival);
    }
    seen.emplace_back(producer, seq);
  }
  EXPECT_EQ(coerced, queue.stats().coerced);
  EXPECT_GT(queue.stats().sorts, 0u);
  // The drained multiset is exactly what was pushed.
  std::sort(seen.begin(), seen.end());
  std::vector<std::tuple<int, int>> pushed;
  for (int producer = 0; producer < kProducers; ++producer) {
    for (int seq = 0; seq < kPerProducer; ++seq) {
      pushed.emplace_back(producer, seq);
    }
  }
  EXPECT_EQ(seen, pushed);
}

}  // namespace
}  // namespace topkmon
