#include "core/brute_force_engine.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace topkmon {
namespace {

QuerySpec LinearQuery(QueryId id, int k, std::vector<double> w) {
  QuerySpec spec;
  spec.id = id;
  spec.k = k;
  spec.function = std::make_shared<LinearFunction>(std::move(w));
  return spec;
}

TEST(BruteForceEngineTest, ComputesTopKByFullScan) {
  BruteForceEngine engine(2, WindowSpec::Count(10));
  const std::vector<Record> batch = {Record(0, Point{0.1, 0.1}, 1),
                                     Record(1, Point{0.9, 0.9}, 1),
                                     Record(2, Point{0.5, 0.5}, 1)};
  TOPKMON_ASSERT_OK(engine.ProcessCycle(1, batch));
  TOPKMON_ASSERT_OK(engine.RegisterQuery(LinearQuery(1, 2, {1.0, 1.0})));
  const auto result = engine.CurrentResult(1);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  EXPECT_EQ((*result)[0].id, 1u);
  EXPECT_EQ((*result)[1].id, 2u);
  EXPECT_DOUBLE_EQ((*result)[0].score, 1.8);
}

TEST(BruteForceEngineTest, RespectsWindowEviction) {
  BruteForceEngine engine(2, WindowSpec::Count(2));
  TOPKMON_ASSERT_OK(engine.RegisterQuery(LinearQuery(1, 1, {1.0, 1.0})));
  const std::vector<Record> batch = {Record(0, Point{0.9, 0.9}, 1),
                                     Record(1, Point{0.2, 0.2}, 1),
                                     Record(2, Point{0.3, 0.3}, 1)};
  TOPKMON_ASSERT_OK(engine.ProcessCycle(1, batch));
  // Record 0 (the best) fell out of the 2-record window.
  const auto result = engine.CurrentResult(1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)[0].id, 2u);
}

TEST(BruteForceEngineTest, ConstraintFiltersRecords) {
  BruteForceEngine engine(2, WindowSpec::Count(10));
  QuerySpec q = LinearQuery(1, 1, {1.0, 1.0});
  q.constraint = Rect(Point{0.0, 0.0}, Point{0.5, 0.5});
  TOPKMON_ASSERT_OK(engine.RegisterQuery(q));
  const std::vector<Record> batch = {Record(0, Point{0.9, 0.9}, 1),
                                     Record(1, Point{0.4, 0.4}, 1)};
  TOPKMON_ASSERT_OK(engine.ProcessCycle(1, batch));
  const auto result = engine.CurrentResult(1);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].id, 1u);
}

TEST(BruteForceEngineTest, ErrorPaths) {
  BruteForceEngine engine(2, WindowSpec::Count(10));
  EXPECT_EQ(engine.CurrentResult(1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.UnregisterQuery(1).code(), StatusCode::kNotFound);
  TOPKMON_ASSERT_OK(engine.RegisterQuery(LinearQuery(1, 1, {1.0, 1.0})));
  EXPECT_EQ(engine.RegisterQuery(LinearQuery(1, 1, {1.0, 1.0})).code(),
            StatusCode::kAlreadyExists);
  TOPKMON_ASSERT_OK(engine.UnregisterQuery(1));
}

}  // namespace
}  // namespace topkmon
