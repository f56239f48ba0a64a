#include "core/sharded_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "core/brute_force_engine.h"
#include "core/sma_engine.h"
#include "core/tma_engine.h"
#include "tests/test_util.h"

namespace topkmon {
namespace {

using ::topkmon::testing::MakeRandomQueries;

EngineFactory SmaFactory(int dim, std::size_t window) {
  return [dim, window] {
    GridEngineOptions opt;
    opt.dim = dim;
    opt.window = WindowSpec::Count(window);
    opt.cell_budget = 256;
    return std::unique_ptr<MonitorEngine>(new SmaEngine(opt));
  };
}

TEST(ShardedEngineTest, NameMentionsShardsAndInnerEngine) {
  ShardedEngine engine(3, SmaFactory(2, 100));
  EXPECT_EQ(engine.name(), "SHARDED[3xSMA]");
  EXPECT_EQ(engine.num_shards(), 3);
  EXPECT_EQ(engine.dim(), 2);
}

TEST(ShardedEngineTest, MatchesBruteForceAcrossShardCounts) {
  const int dim = 2;
  for (int shards : {1, 2, 4}) {
    ShardedEngine sharded(shards, SmaFactory(dim, 400));
    BruteForceEngine brute(dim, WindowSpec::Count(400));
    const auto queries = MakeRandomQueries(dim, 9, 5, 42);
    testing::RunLockstepAgreement({&brute, &sharded}, queries,
                                  Distribution::kIndependent, dim, 40, 10,
                                  20, 7);
  }
}

TEST(ShardedEngineTest, QueriesAreSpreadRoundRobin) {
  ShardedEngine engine(4, SmaFactory(2, 100));
  const auto queries = MakeRandomQueries(2, 8, 3, 5);
  for (const QuerySpec& q : queries) {
    TOPKMON_ASSERT_OK(engine.RegisterQuery(q));
  }
  // All queries answer; per-shard distribution is not directly observable
  // through the interface, but unregistering all of them must succeed.
  for (const QuerySpec& q : queries) {
    ASSERT_TRUE(engine.CurrentResult(q.id).ok());
    TOPKMON_ASSERT_OK(engine.UnregisterQuery(q.id));
  }
}

TEST(ShardedEngineTest, DuplicateAndUnknownQueryErrors) {
  ShardedEngine engine(2, SmaFactory(2, 100));
  const auto queries = MakeRandomQueries(2, 1, 3, 5);
  TOPKMON_ASSERT_OK(engine.RegisterQuery(queries[0]));
  EXPECT_EQ(engine.RegisterQuery(queries[0]).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(engine.UnregisterQuery(99).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.CurrentResult(99).status().code(), StatusCode::kNotFound);
}

TEST(ShardedEngineTest, PropagatesCycleErrors) {
  ShardedEngine engine(2, SmaFactory(2, 100));
  const std::vector<Record> bad = {Record(0, Point{2.0, 0.5}, 1)};
  const Status st = engine.ProcessCycle(1, bad);
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
}

TEST(ShardedEngineTest, StatsReportLogicalStreamCounters) {
  ShardedEngine engine(3, SmaFactory(2, 50));
  RecordSource source(MakeGenerator(Distribution::kIndependent, 2, 3));
  TOPKMON_ASSERT_OK(engine.ProcessCycle(1, source.NextBatch(80, 1)));
  // Stream counters must not be multiplied by the shard count.
  EXPECT_EQ(engine.stats().arrivals, 80u);
  EXPECT_EQ(engine.stats().expirations, 30u);
  EXPECT_EQ(engine.stats().cycles, 1u);
  EXPECT_EQ(engine.WindowSize(), 50u);
}

TEST(ShardedEngineTest, MemoryGrowsWithShardCount) {
  auto fill = [](ShardedEngine& e) {
    RecordSource source(MakeGenerator(Distribution::kIndependent, 2, 3));
    TOPKMON_ASSERT_OK(e.ProcessCycle(1, source.NextBatch(100, 1)));
  };
  ShardedEngine one(1, SmaFactory(2, 100));
  ShardedEngine four(4, SmaFactory(2, 100));
  fill(one);
  fill(four);
  EXPECT_GT(four.Memory().TotalBytes(), 3 * one.Memory().TotalBytes());
}

TEST(ShardedEngineTest, DeltaCallbacksAreSerializedAndComplete) {
  ShardedEngine engine(4, SmaFactory(2, 200));
  std::set<QueryId> reported;
  std::atomic<int> concurrent{0};
  bool overlapped = false;
  engine.SetDeltaCallback([&](const ResultDelta& d) {
    if (concurrent.fetch_add(1) != 0) overlapped = true;
    reported.insert(d.query);
    concurrent.fetch_sub(1);
  });
  const auto queries = MakeRandomQueries(2, 8, 3, 11);
  for (const QuerySpec& q : queries) {
    TOPKMON_ASSERT_OK(engine.RegisterQuery(q));
  }
  RecordSource source(MakeGenerator(Distribution::kIndependent, 2, 13));
  for (Timestamp now = 1; now <= 10; ++now) {
    TOPKMON_ASSERT_OK(engine.ProcessCycle(now, source.NextBatch(50, now)));
  }
  EXPECT_FALSE(overlapped) << "delta callbacks ran concurrently";
  EXPECT_EQ(reported.size(), queries.size());
}

TEST(ShardedEngineTest, ShutdownKeepsIdentityAndReadsValid) {
  ShardedEngine engine(3, SmaFactory(2, 100));
  RecordSource source(MakeGenerator(Distribution::kIndependent, 2, 3));
  const auto queries = MakeRandomQueries(2, 2, 3, 5);
  for (const QuerySpec& q : queries) {
    TOPKMON_ASSERT_OK(engine.RegisterQuery(q));
  }
  TOPKMON_ASSERT_OK(engine.ProcessCycle(1, source.NextBatch(50, 1)));
  engine.Shutdown();
  engine.Shutdown();  // idempotent
  // Identity and the read side survive shutdown...
  EXPECT_EQ(engine.name(), "SHARDED[3xSMA]");
  EXPECT_EQ(engine.dim(), 2);
  EXPECT_EQ(engine.num_shards(), 3);
  EXPECT_TRUE(engine.CurrentResult(queries[0].id).ok());
  EXPECT_EQ(engine.stats().cycles, 1u);
  // ...but cycles need the worker pool.
  EXPECT_EQ(engine.ProcessCycle(2, source.NextBatch(10, 2)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ShardedEngineTest, InitialResultDeltaIsRoutedOnRegistration) {
  ShardedEngine engine(3, SmaFactory(2, 200));
  RecordSource source(MakeGenerator(Distribution::kIndependent, 2, 3));
  TOPKMON_ASSERT_OK(engine.ProcessCycle(1, source.NextBatch(100, 1)));
  std::vector<ResultDelta> deltas;
  engine.SetDeltaCallback(
      [&deltas](const ResultDelta& d) { deltas.push_back(d); });
  // Registering mid-stream must report the initial result as one delta.
  const auto queries = MakeRandomQueries(2, 1, 4, 5);
  TOPKMON_ASSERT_OK(engine.RegisterQuery(queries[0]));
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].query, queries[0].id);
  EXPECT_EQ(deltas[0].added.size(), 4u);
  EXPECT_TRUE(deltas[0].removed.empty());
}

TEST(ShardedEngineTest, MidStreamChurnStaysExact) {
  const int dim = 2;
  ShardedEngine sharded(3, SmaFactory(dim, 300));
  BruteForceEngine brute(dim, WindowSpec::Count(300));
  RecordSource source(MakeGenerator(Distribution::kIndependent, dim, 17));
  const auto queries = MakeRandomQueries(dim, 6, 4, 23);
  Timestamp now = 0;
  auto cycle = [&](std::size_t n) {
    ++now;
    const auto batch = source.NextBatch(n, now);
    TOPKMON_ASSERT_OK(sharded.ProcessCycle(now, batch));
    TOPKMON_ASSERT_OK(brute.ProcessCycle(now, batch));
  };
  for (int c = 0; c < 8; ++c) cycle(40);
  for (const QuerySpec& q : queries) {
    TOPKMON_ASSERT_OK(sharded.RegisterQuery(q));
    TOPKMON_ASSERT_OK(brute.RegisterQuery(q));
  }
  for (int c = 0; c < 10; ++c) {
    cycle(40);
    for (const QuerySpec& q : queries) {
      const auto want = brute.CurrentResult(q.id);
      const auto got = sharded.CurrentResult(q.id);
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(testing::Scores(*got), testing::Scores(*want));
    }
  }
  TOPKMON_ASSERT_OK(sharded.UnregisterQuery(queries[0].id));
  TOPKMON_ASSERT_OK(brute.UnregisterQuery(queries[0].id));
  for (int c = 0; c < 5; ++c) cycle(40);
  EXPECT_EQ(sharded.CurrentResult(queries[0].id).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace topkmon
