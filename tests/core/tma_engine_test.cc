#include "core/tma_engine.h"

#include <gtest/gtest.h>

#include "core/brute_force_engine.h"
#include "tests/test_util.h"

namespace topkmon {
namespace {

using ::topkmon::testing::MakeRandomQueries;
using ::topkmon::testing::Scores;

GridEngineOptions SmallOptions(int dim, std::size_t n) {
  GridEngineOptions opt;
  opt.dim = dim;
  opt.window = WindowSpec::Count(n);
  opt.cell_budget = 256;
  return opt;
}

QuerySpec LinearQuery(QueryId id, int k, std::vector<double> w) {
  QuerySpec spec;
  spec.id = id;
  spec.k = k;
  spec.function = std::make_shared<LinearFunction>(std::move(w));
  return spec;
}

TEST(TmaEngineTest, NameAndDim) {
  TmaEngine engine(SmallOptions(3, 100));
  EXPECT_EQ(engine.name(), "TMA");
  EXPECT_EQ(engine.dim(), 3);
}

TEST(TmaEngineTest, RegisterDuplicateFails) {
  TmaEngine engine(SmallOptions(2, 100));
  TOPKMON_ASSERT_OK(engine.RegisterQuery(LinearQuery(1, 2, {1.0, 1.0})));
  EXPECT_EQ(engine.RegisterQuery(LinearQuery(1, 2, {1.0, 1.0})).code(),
            StatusCode::kAlreadyExists);
}

TEST(TmaEngineTest, UnregisterUnknownFails) {
  TmaEngine engine(SmallOptions(2, 100));
  EXPECT_EQ(engine.UnregisterQuery(9).code(), StatusCode::kNotFound);
}

TEST(TmaEngineTest, CurrentResultUnknownQueryFails) {
  TmaEngine engine(SmallOptions(2, 100));
  EXPECT_EQ(engine.CurrentResult(5).status().code(), StatusCode::kNotFound);
}

TEST(TmaEngineTest, EmptyWindowYieldsEmptyResult) {
  TmaEngine engine(SmallOptions(2, 100));
  TOPKMON_ASSERT_OK(engine.RegisterQuery(LinearQuery(1, 3, {1.0, 2.0})));
  const auto result = engine.CurrentResult(1);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(TmaEngineTest, HandCraftedScenarioFollowsFigure8) {
  // Reproduces the dynamics of Figures 5/8: f = x1 + 2*x2, k = 1, window
  // of 2 records.
  GridEngineOptions opt = SmallOptions(2, 2);
  opt.cells_per_axis = 7;
  opt.cell_budget = 0;
  TmaEngine engine(opt);
  // p1 near the top (winner), p2 weaker.
  const std::vector<Record> p1_p2 = {Record(0, Point{0.65, 0.85}, 1),
                                     Record(1, Point{0.15, 0.90}, 1)};
  TOPKMON_ASSERT_OK(engine.ProcessCycle(1, p1_p2));
  TOPKMON_ASSERT_OK(engine.RegisterQuery(LinearQuery(1, 1, {1.0, 2.0})));
  auto result = engine.CurrentResult(1);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].id, 0u);  // p1 wins: 0.65 + 1.7 = 2.35 vs 1.95

  // Figure 8(a): p3, p4 arrive; p1, p2 expire (count window of 2). p3
  // scores above the old top record, so the insertion pre-empts the
  // expiration of p1 and no recomputation happens.
  const std::vector<Record> p3_p4 = {Record(2, Point{0.75, 0.85}, 2),
                                     Record(3, Point{0.60, 0.60}, 2)};
  TOPKMON_ASSERT_OK(engine.ProcessCycle(2, p3_p4));
  result = engine.CurrentResult(1);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].id, 2u);  // p3: 0.75 + 1.7 = 2.45
  // No recomputation was needed: the insertion of p3 preceded p1's expiry.
  EXPECT_EQ(engine.stats().recomputations, 0u);

  // Figure 8(b): p5 arrives (weak), p3 expires => recomputation, p4 wins.
  const std::vector<Record> p5 = {Record(4, Point{0.10, 0.10}, 3)};
  TOPKMON_ASSERT_OK(engine.ProcessCycle(3, p5));
  result = engine.CurrentResult(1);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].id, 3u);  // p4
  EXPECT_EQ(engine.stats().recomputations, 1u);
}

TEST(TmaEngineTest, MatchesBruteForceOnRandomStream) {
  const int dim = 2;
  GridEngineOptions opt = SmallOptions(dim, 500);
  TmaEngine tma(opt);
  BruteForceEngine brute(dim, opt.window);
  const auto queries = MakeRandomQueries(dim, 8, 5, 42);
  testing::RunLockstepAgreement({&brute, &tma}, queries,
                                Distribution::kIndependent, dim,
                                /*arrivals_per_cycle=*/50,
                                /*warmup_cycles=*/12, /*measured_cycles=*/30,
                                /*seed=*/7);
}

TEST(TmaEngineTest, ConstrainedQueryMatchesBruteForce) {
  const int dim = 2;
  GridEngineOptions opt = SmallOptions(dim, 400);
  TmaEngine tma(opt);
  BruteForceEngine brute(dim, opt.window);
  QuerySpec q = LinearQuery(1, 4, {1.0, 2.0});
  q.constraint = Rect(Point{0.2, 0.1}, Point{0.7, 0.8});
  testing::RunLockstepAgreement({&brute, &tma}, {q},
                                Distribution::kIndependent, dim, 40, 12, 25,
                                11);
}

TEST(TmaEngineTest, UnregisterClearsAllInfluenceEntries) {
  GridEngineOptions opt = SmallOptions(2, 300);
  TmaEngine engine(opt);
  RecordSource source(MakeGenerator(Distribution::kIndependent, 2, 3));
  TOPKMON_ASSERT_OK(engine.ProcessCycle(1, source.NextBatch(300, 1)));
  TOPKMON_ASSERT_OK(engine.RegisterQuery(LinearQuery(1, 5, {1.0, 0.5})));
  TOPKMON_ASSERT_OK(engine.RegisterQuery(LinearQuery(2, 5, {0.3, 0.9})));
  EXPECT_GT(engine.grid().TotalInfluenceEntries(), 0u);
  TOPKMON_ASSERT_OK(engine.UnregisterQuery(1));
  TOPKMON_ASSERT_OK(engine.UnregisterQuery(2));
  EXPECT_EQ(engine.grid().TotalInfluenceEntries(), 0u);
}

TEST(TmaEngineTest, RejectsOutOfRangeArrival) {
  TmaEngine engine(SmallOptions(2, 10));
  const std::vector<Record> bad = {Record(0, Point{1.5, 0.5}, 1)};
  const Status s = engine.ProcessCycle(1, bad);
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
}

TEST(TmaEngineTest, KLargerThanWindowTracksEverything) {
  GridEngineOptions opt = SmallOptions(2, 5);
  TmaEngine engine(opt);
  BruteForceEngine brute(2, opt.window);
  const auto queries = MakeRandomQueries(2, 3, 20, 5);
  testing::RunLockstepAgreement({&brute, &engine}, queries,
                                Distribution::kIndependent, 2, 3, 2, 20, 9);
}

TEST(TmaEngineTest, MemoryBreakdownHasComponents) {
  GridEngineOptions opt = SmallOptions(2, 100);
  TmaEngine engine(opt);
  RecordSource source(MakeGenerator(Distribution::kIndependent, 2, 3));
  TOPKMON_ASSERT_OK(engine.ProcessCycle(1, source.NextBatch(100, 1)));
  TOPKMON_ASSERT_OK(engine.RegisterQuery(LinearQuery(1, 5, {1.0, 0.5})));
  const MemoryBreakdown mb = engine.Memory();
  EXPECT_GT(mb.Bytes("window"), 0u);
  EXPECT_GT(mb.Bytes("point_lists"), 0u);
  EXPECT_GT(mb.Bytes("query_table"), 0u);
  EXPECT_GT(mb.TotalBytes(), 0u);
}

TEST(TmaEngineTest, StatsCountArrivalsAndExpirations) {
  GridEngineOptions opt = SmallOptions(2, 50);
  TmaEngine engine(opt);
  RecordSource source(MakeGenerator(Distribution::kIndependent, 2, 3));
  TOPKMON_ASSERT_OK(engine.ProcessCycle(1, source.NextBatch(80, 1)));
  EXPECT_EQ(engine.stats().arrivals, 80u);
  EXPECT_EQ(engine.stats().expirations, 30u);
  EXPECT_EQ(engine.WindowSize(), 50u);
  EXPECT_EQ(engine.stats().cycles, 1u);
}

TEST(TmaEngineTest, ExpirationsFirstOrderAgreesWithBruteForce) {
  // The ordering ablation handles Pdel before Pins. Batches larger than
  // the window make some arrivals expire in their own cycle, before they
  // were ever inserted into the grid.
  GridEngineOptions opt = SmallOptions(2, 50);
  opt.arrivals_before_expirations = false;
  TmaEngine engine(opt);
  BruteForceEngine brute(2, opt.window);
  for (const QuerySpec& q : MakeRandomQueries(2, 6, 4, 11)) {
    TOPKMON_ASSERT_OK(engine.RegisterQuery(q));
    TOPKMON_ASSERT_OK(brute.RegisterQuery(q));
  }
  RecordSource source(MakeGenerator(Distribution::kIndependent, 2, 5));
  for (Timestamp now = 1; now <= 40; ++now) {
    const std::size_t n = now % 3 == 0 ? 70 : 15;
    const std::vector<Record> batch = source.NextBatch(n, now);
    TOPKMON_ASSERT_OK(engine.ProcessCycle(now, batch));
    TOPKMON_ASSERT_OK(brute.ProcessCycle(now, batch));
    ASSERT_EQ(engine.grid().num_points(), brute.WindowSize())
        << "cycle " << now;
    for (QueryId id = 1; id <= 6; ++id) {
      const auto got = engine.CurrentResult(id);
      const auto want = brute.CurrentResult(id);
      ASSERT_TRUE(got.ok() && want.ok());
      EXPECT_EQ(Scores(*got), Scores(*want))
          << "query " << id << " at cycle " << now;
    }
  }
  EXPECT_EQ(engine.stats().expirations, engine.stats().arrivals - 50);
}

}  // namespace
}  // namespace topkmon
