// Failure injection: malformed input must surface as Status errors (never
// crashes), and engines must remain usable afterwards.

#include <gtest/gtest.h>

#include "core/sma_engine.h"
#include "core/tma_engine.h"
#include "core/update_stream_engine.h"
#include "tests/test_util.h"
#include "tsl/tsl_engine.h"

namespace topkmon {
namespace {

QuerySpec LinearQuery(QueryId id, int k, std::vector<double> w) {
  QuerySpec spec;
  spec.id = id;
  spec.k = k;
  spec.function = std::make_shared<LinearFunction>(std::move(w));
  return spec;
}

GridEngineOptions Options2d() {
  GridEngineOptions opt;
  opt.dim = 2;
  opt.window = WindowSpec::Count(100);
  opt.cell_budget = 64;
  return opt;
}

TEST(FailureInjectionTest, OutOfRangeCoordinatesRejectedByAllEngines) {
  TmaEngine tma(Options2d());
  SmaEngine sma(Options2d());
  TslOptions tsl_opt;
  tsl_opt.dim = 2;
  tsl_opt.window = WindowSpec::Count(100);
  TslEngine tsl(tsl_opt);
  const std::vector<Record> bad = {Record(0, Point{0.5, 1.5}, 1)};
  EXPECT_EQ(tma.ProcessCycle(1, bad).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(sma.ProcessCycle(1, bad).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(tsl.ProcessCycle(1, bad).code(), StatusCode::kOutOfRange);
}

TEST(FailureInjectionTest, WrongDimensionalityRejected) {
  TmaEngine tma(Options2d());
  const std::vector<Record> bad = {Record(0, Point{0.5, 0.5, 0.5}, 1)};
  EXPECT_EQ(tma.ProcessCycle(1, bad).code(), StatusCode::kInvalidArgument);
}

TEST(FailureInjectionTest, NonFiniteCoordinateRejected) {
  TmaEngine tma(Options2d());
  const std::vector<Record> bad = {
      Record(0, Point{std::nan(""), 0.5}, 1)};
  EXPECT_EQ(tma.ProcessCycle(1, bad).code(), StatusCode::kOutOfRange);
}

TEST(FailureInjectionTest, NonContiguousIdsRejected) {
  TmaEngine tma(Options2d());
  const std::vector<Record> first = {Record(0, Point{0.5, 0.5}, 1)};
  const std::vector<Record> gap = {Record(5, Point{0.5, 0.5}, 2)};
  TOPKMON_ASSERT_OK(tma.ProcessCycle(1, first));
  EXPECT_EQ(tma.ProcessCycle(2, gap).code(),
            StatusCode::kFailedPrecondition);
}

TEST(FailureInjectionTest, EngineUsableAfterRejectedInput) {
  TmaEngine tma(Options2d());
  TOPKMON_ASSERT_OK(tma.RegisterQuery(LinearQuery(1, 2, {1.0, 1.0})));
  const std::vector<Record> bad = {Record(0, Point{2.0, 0.5}, 1)};
  const std::vector<Record> good = {Record(0, Point{0.9, 0.9}, 2)};
  EXPECT_FALSE(tma.ProcessCycle(1, bad).ok());
  // The bad record was rejected before indexing; a good cycle still works.
  TOPKMON_ASSERT_OK(tma.ProcessCycle(2, good));
  const auto result = tma.CurrentResult(1);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].id, 0u);
}

TEST(FailureInjectionTest, MalformedQuerySpecsRejectedEverywhere) {
  TmaEngine tma(Options2d());
  SmaEngine sma(Options2d());
  QuerySpec no_function;
  no_function.id = 1;
  no_function.k = 1;
  EXPECT_EQ(tma.RegisterQuery(no_function).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sma.RegisterQuery(no_function).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(tma.RegisterQuery(LinearQuery(1, 0, {1.0, 1.0})).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(tma.RegisterQuery(LinearQuery(1, 1, {1.0, 1.0, 1.0})).code(),
            StatusCode::kInvalidArgument);
}

TEST(FailureInjectionTest, UpdateStreamDoubleDeleteFails) {
  UpdateStreamTmaEngine engine(Options2d());
  UpdateOp ins;
  ins.kind = UpdateOp::Kind::kInsert;
  ins.record = Record(0, Point{0.5, 0.5}, 0);
  TOPKMON_ASSERT_OK(engine.ProcessBatch({ins}));
  UpdateOp del;
  del.kind = UpdateOp::Kind::kDelete;
  del.record.id = 0;
  TOPKMON_ASSERT_OK(engine.ProcessBatch({del}));
  EXPECT_EQ(engine.ProcessBatch({del}).code(), StatusCode::kNotFound);
}

TEST(FailureInjectionTest, ResultQueriesAfterErrorsStayConsistent) {
  SmaEngine sma(Options2d());
  TOPKMON_ASSERT_OK(sma.RegisterQuery(LinearQuery(1, 1, {1.0, 1.0})));
  const std::vector<Record> bad = {Record(0, Point{-0.1, 0.5}, 1)};
  const std::vector<Record> good = {Record(0, Point{0.4, 0.4}, 2)};
  EXPECT_FALSE(sma.ProcessCycle(1, bad).ok());
  TOPKMON_ASSERT_OK(sma.ProcessCycle(2, good));
  const auto result = sma.CurrentResult(1);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
}

TEST(FailureInjectionTest, ZeroArrivalCyclesAreFine) {
  TmaEngine tma(Options2d());
  TOPKMON_ASSERT_OK(tma.RegisterQuery(LinearQuery(1, 2, {1.0, 1.0})));
  for (Timestamp t = 1; t <= 5; ++t) {
    TOPKMON_ASSERT_OK(tma.ProcessCycle(t, {}));
  }
  EXPECT_EQ(tma.stats().cycles, 5u);
}

}  // namespace
}  // namespace topkmon
