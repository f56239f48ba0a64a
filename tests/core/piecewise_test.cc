#include "core/piecewise.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/sma_engine.h"
#include "core/tma_engine.h"
#include "stream/generators.h"
#include "tests/test_util.h"

namespace topkmon {
namespace {

/// The running example: f(p) = x2 - |x1 - 0.5|, non-monotone in x1 with a
/// single ridge at x1 = 0.5, split into two monotone pieces.
std::vector<MonotonePiece> RidgePieces() {
  std::vector<MonotonePiece> pieces;
  // x1 in [0, 0.5]: f = -0.5 + x1 + x2 (increasing on both axes).
  pieces.push_back(MonotonePiece{
      Rect(Point{0.0, 0.0}, Point{0.5, 1.0}),
      std::make_shared<LinearFunction>(std::vector<double>{1.0, 1.0},
                                       -0.5)});
  // x1 in [0.5, 1]: f = 0.5 - x1 + x2 (decreasing on x1).
  pieces.push_back(MonotonePiece{
      Rect(Point{0.5, 0.0}, Point{1.0, 1.0}),
      std::make_shared<LinearFunction>(std::vector<double>{-1.0, 1.0},
                                       0.5)});
  return pieces;
}

double RidgeScore(const Point& p) {
  return p[1] - std::abs(p[0] - 0.5);
}

GridEngineOptions Options2d(std::size_t window) {
  GridEngineOptions opt;
  opt.dim = 2;
  opt.window = WindowSpec::Count(window);
  opt.cell_budget = 256;
  return opt;
}

TEST(LinearFunctionBiasTest, BiasShiftsScoresUniformly) {
  LinearFunction plain({1.0, 1.0});
  LinearFunction biased({1.0, 1.0}, -0.5);
  const Point p{0.3, 0.4};
  EXPECT_DOUBLE_EQ(biased.Score(p), plain.Score(p) - 0.5);
  EXPECT_EQ(biased.direction(0), Monotonicity::kIncreasing);
  auto clone = biased.Clone();
  EXPECT_DOUBLE_EQ(clone->Score(p), biased.Score(p));
  EXPECT_NE(biased.ToString().find("-0.500 + "), std::string::npos);
}

TEST(PiecewiseTest, RegistrationValidatesInput) {
  SmaEngine engine(Options2d(100));
  EXPECT_FALSE(
      PiecewiseTopKQuery::Register(nullptr, 1, 3, RidgePieces()).ok());
  EXPECT_FALSE(PiecewiseTopKQuery::Register(&engine, 1, 3, {}).ok());
  // Dimensionality mismatch inside a piece is caught by the engine and
  // already-registered pieces are rolled back.
  std::vector<MonotonePiece> bad = RidgePieces();
  bad[1].function = std::make_shared<LinearFunction>(
      std::vector<double>{1.0, 1.0, 1.0});
  EXPECT_FALSE(PiecewiseTopKQuery::Register(&engine, 1, 3, bad).ok());
  // The rollback freed the base id: a clean registration succeeds.
  auto query = PiecewiseTopKQuery::Register(&engine, 1, 3, RidgePieces());
  ASSERT_TRUE(query.ok());
  TOPKMON_EXPECT_OK(query->Unregister());
}

TEST(PiecewiseTest, MatchesNonMonotoneBruteForceOverStream) {
  for (int engine_kind = 0; engine_kind < 2; ++engine_kind) {
    std::unique_ptr<MonitorEngine> engine;
    if (engine_kind == 0) {
      engine = std::make_unique<TmaEngine>(Options2d(300));
    } else {
      engine = std::make_unique<SmaEngine>(Options2d(300));
    }
    const int k = 5;
    auto query =
        PiecewiseTopKQuery::Register(engine.get(), 10, k, RidgePieces());
    ASSERT_TRUE(query.ok());
    EXPECT_EQ(query->num_pieces(), 2u);

    RecordSource source(MakeGenerator(Distribution::kIndependent, 2, 91));
    SlidingWindow shadow = SlidingWindow::CountBased(300);
    for (Timestamp now = 1; now <= 30; ++now) {
      const std::vector<Record> batch = source.NextBatch(30, now);
      TOPKMON_ASSERT_OK(engine->ProcessCycle(now, batch));
      for (const Record& r : batch) ASSERT_TRUE(shadow.Append(r).ok());
      shadow.EvictExpired(now);
      // Oracle: brute-force top-k under the true non-monotone function.
      TopKList want(k);
      for (const Record& r : shadow) {
        want.Consider(r.id, RidgeScore(r.position));
      }
      const auto got = query->CurrentResult();
      ASSERT_TRUE(got.ok());
      const std::vector<double> got_scores = testing::Scores(*got);
      const std::vector<double> want_scores =
          testing::Scores(want.entries());
      ASSERT_EQ(got_scores.size(), want_scores.size())
          << "engine " << engine->name() << " t=" << now;
      for (std::size_t i = 0; i < got_scores.size(); ++i) {
        EXPECT_NEAR(got_scores[i], want_scores[i], 1e-12)
            << "engine " << engine->name() << " t=" << now << " rank " << i;
      }
    }
    TOPKMON_EXPECT_OK(query->Unregister());
    EXPECT_EQ(engine->CurrentResult(10).status().code(),
              StatusCode::kNotFound);
    EXPECT_EQ(engine->CurrentResult(11).status().code(),
              StatusCode::kNotFound);
  }
}

TEST(PiecewiseTest, BoundaryRecordsAreNotDuplicated) {
  SmaEngine engine(Options2d(100));
  const int k = 4;
  auto query =
      PiecewiseTopKQuery::Register(&engine, 1, k, RidgePieces());
  ASSERT_TRUE(query.ok());
  // Records exactly on the ridge x1 = 0.5 belong to both pieces.
  const std::vector<Record> batch = {Record(0, Point{0.5, 0.9}, 1),
                                     Record(1, Point{0.5, 0.8}, 1),
                                     Record(2, Point{0.2, 0.9}, 1)};
  TOPKMON_ASSERT_OK(engine.ProcessCycle(1, batch));
  const auto result = query->CurrentResult();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 3u);  // no id twice
  EXPECT_EQ((*result)[0].id, 0u);  // 0.9 on the ridge
  EXPECT_EQ((*result)[1].id, 1u);  // 0.8 on the ridge
  EXPECT_EQ((*result)[2].id, 2u);  // 0.9 - 0.3
  EXPECT_DOUBLE_EQ((*result)[0].score, 0.9);
  EXPECT_DOUBLE_EQ((*result)[2].score, 0.6);
  TOPKMON_EXPECT_OK(query->Unregister());
}

TEST(PiecewiseTest, FourPieceSaddleFunction) {
  // f(p) = -|x1 - 0.5| - |x2 - 0.5| (peak at the center): four monotone
  // quadrant pieces.
  std::vector<MonotonePiece> pieces;
  const double c = 0.5;
  pieces.push_back(MonotonePiece{
      Rect(Point{0.0, 0.0}, Point{c, c}),
      std::make_shared<LinearFunction>(std::vector<double>{1.0, 1.0},
                                       -1.0)});
  pieces.push_back(MonotonePiece{
      Rect(Point{c, 0.0}, Point{1.0, c}),
      std::make_shared<LinearFunction>(std::vector<double>{-1.0, 1.0},
                                       0.0)});
  pieces.push_back(MonotonePiece{
      Rect(Point{0.0, c}, Point{c, 1.0}),
      std::make_shared<LinearFunction>(std::vector<double>{1.0, -1.0},
                                       0.0)});
  pieces.push_back(MonotonePiece{
      Rect(Point{c, c}, Point{1.0, 1.0}),
      std::make_shared<LinearFunction>(std::vector<double>{-1.0, -1.0},
                                       1.0)});
  SmaEngine engine(Options2d(400));
  auto query = PiecewiseTopKQuery::Register(&engine, 100, 6, pieces);
  ASSERT_TRUE(query.ok());
  RecordSource source(MakeGenerator(Distribution::kIndependent, 2, 7));
  SlidingWindow shadow = SlidingWindow::CountBased(400);
  for (Timestamp now = 1; now <= 25; ++now) {
    const std::vector<Record> batch = source.NextBatch(40, now);
    TOPKMON_ASSERT_OK(engine.ProcessCycle(now, batch));
    for (const Record& r : batch) ASSERT_TRUE(shadow.Append(r).ok());
    shadow.EvictExpired(now);
    TopKList want(6);
    for (const Record& r : shadow) {
      want.Consider(r.id, -std::abs(r.position[0] - c) -
                              std::abs(r.position[1] - c));
    }
    const auto got = query->CurrentResult();
    ASSERT_TRUE(got.ok());
    const std::vector<double> got_scores = testing::Scores(*got);
    const std::vector<double> want_scores = testing::Scores(want.entries());
    ASSERT_EQ(got_scores.size(), want_scores.size()) << "t=" << now;
    for (std::size_t i = 0; i < got_scores.size(); ++i) {
      EXPECT_NEAR(got_scores[i], want_scores[i], 1e-12) << "t=" << now;
    }
  }
  TOPKMON_EXPECT_OK(query->Unregister());
}

}  // namespace
}  // namespace topkmon
