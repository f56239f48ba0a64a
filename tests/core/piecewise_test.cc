// PiecewiseFunction's construction checks and piecewise-monotone queries
// registered on the engines (Section 9), checked against brute-force
// oracles under the true non-monotone functions.

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

/// A spec registering the piecewise function built from `pieces`.
QuerySpec PiecewiseSpec(QueryId id, int k, std::vector<MonotonePiece> pieces) {
  auto fn = PiecewiseFunction::Create(std::move(pieces));
  EXPECT_TRUE(fn.ok()) << fn.status();
  QuerySpec spec;
  spec.id = id;
  spec.k = k;
  if (fn.ok()) spec.function = *fn;
  return spec;
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
  EXPECT_NE(biased.ToString().find("-0.500 + "), std::string::npos);
}

std::shared_ptr<const ScoringFunction> Linear(std::vector<double> weights) {
  return std::make_shared<LinearFunction>(std::move(weights));
}

/// Expects Create to refuse `pieces` with InvalidArgument and a message
/// containing `why`.
void ExpectCreateRefuses(std::vector<MonotonePiece> pieces,
                         const std::string& why) {
  const auto fn = PiecewiseFunction::Create(std::move(pieces));
  ASSERT_FALSE(fn.ok());
  EXPECT_EQ(fn.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(fn.status().message().find(why), std::string::npos)
      << fn.status();
}

TEST(PiecewiseFunctionTest, CreateRefusesMalformedPieces) {
  ExpectCreateRefuses({}, "at least one monotone piece");

  const MonotonePiece unit{Rect::UnitSpace(2), Linear({1.0, 1.0})};
  ExpectCreateRefuses(std::vector<MonotonePiece>(256, unit),
                      "limited to 255 pieces, got 256");
  EXPECT_TRUE(
      PiecewiseFunction::Create(std::vector<MonotonePiece>(255, unit)).ok());

  ExpectCreateRefuses({unit, MonotonePiece{Rect::UnitSpace(2), nullptr}},
                      "piece 1 has no scoring function");

  const auto ridge = PiecewiseFunction::Create(RidgePieces());
  ASSERT_TRUE(ridge.ok());
  ExpectCreateRefuses({unit, MonotonePiece{Rect::UnitSpace(2), *ridge}},
                      "piece 1 is itself piecewise");

  ExpectCreateRefuses(
      {unit, MonotonePiece{Rect::UnitSpace(2), Linear({1.0, 1.0, 1.0})}},
      "piece 1 has dimensionality 3, expected 2");

  ExpectCreateRefuses({MonotonePiece{Rect::UnitSpace(3), Linear({1.0, 1.0})}},
                      "piece 0 has a domain of mismatched dimensionality");
}

TEST(PiecewiseFunctionTest, ToStringListsEveryPiece) {
  const std::vector<MonotonePiece> pieces = RidgePieces();
  const auto fn = PiecewiseFunction::Create(pieces);
  ASSERT_TRUE(fn.ok());
  EXPECT_EQ((*fn)->ToString(), "piecewise[" + pieces[0].function->ToString() +
                                   "; " + pieces[1].function->ToString() +
                                   "]");
}

TEST(PiecewiseTest, RegistrationValidatesInput) {
  SmaEngine engine(Options2d(100));
  // A well-formed piecewise function of the wrong dimensionality for the
  // engine is refused, and the refusal leaves the id free.
  std::vector<MonotonePiece> wide = RidgePieces();
  for (MonotonePiece& piece : wide) {
    piece.domain = Rect::UnitSpace(3);
    piece.function = Linear({1.0, 1.0, 1.0});
  }
  EXPECT_EQ(engine.RegisterQuery(PiecewiseSpec(1, 3, wide)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.CurrentResult(1).status().code(), StatusCode::kNotFound);
  TOPKMON_ASSERT_OK(engine.RegisterQuery(PiecewiseSpec(1, 3, RidgePieces())));
  TOPKMON_EXPECT_OK(engine.UnregisterQuery(1));
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
    TOPKMON_ASSERT_OK(
        engine->RegisterQuery(PiecewiseSpec(10, k, RidgePieces())));

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
      const auto got = engine->CurrentResult(10);
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
    TOPKMON_EXPECT_OK(engine->UnregisterQuery(10));
    EXPECT_EQ(engine->CurrentResult(10).status().code(),
              StatusCode::kNotFound);
    // The per-piece sub-queries stay invisible to callers.
    EXPECT_EQ(engine->UnregisterQuery(kInternalQueryIdBase).code(),
              StatusCode::kNotFound);
    EXPECT_EQ(engine->UnregisterQuery(kInternalQueryIdBase + 1).code(),
              StatusCode::kNotFound);
  }
}

TEST(PiecewiseTest, BoundaryRecordsAreNotDuplicated) {
  SmaEngine engine(Options2d(100));
  const int k = 4;
  TOPKMON_ASSERT_OK(engine.RegisterQuery(PiecewiseSpec(1, k, RidgePieces())));
  // Records exactly on the ridge x1 = 0.5 belong to both pieces.
  const std::vector<Record> batch = {Record(0, Point{0.5, 0.9}, 1),
                                     Record(1, Point{0.5, 0.8}, 1),
                                     Record(2, Point{0.2, 0.9}, 1)};
  TOPKMON_ASSERT_OK(engine.ProcessCycle(1, batch));
  const auto result = engine.CurrentResult(1);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 3u);  // no id twice
  EXPECT_EQ((*result)[0].id, 0u);  // 0.9 on the ridge
  EXPECT_EQ((*result)[1].id, 1u);  // 0.8 on the ridge
  EXPECT_EQ((*result)[2].id, 2u);  // 0.9 - 0.3
  EXPECT_DOUBLE_EQ((*result)[0].score, 0.9);
  EXPECT_DOUBLE_EQ((*result)[2].score, 0.6);
  TOPKMON_EXPECT_OK(engine.UnregisterQuery(1));
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
  TOPKMON_ASSERT_OK(engine.RegisterQuery(PiecewiseSpec(100, 6, pieces)));
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
    const auto got = engine.CurrentResult(100);
    ASSERT_TRUE(got.ok());
    const std::vector<double> got_scores = testing::Scores(*got);
    const std::vector<double> want_scores = testing::Scores(want.entries());
    ASSERT_EQ(got_scores.size(), want_scores.size()) << "t=" << now;
    for (std::size_t i = 0; i < got_scores.size(); ++i) {
      EXPECT_NEAR(got_scores[i], want_scores[i], 1e-12) << "t=" << now;
    }
  }
  TOPKMON_EXPECT_OK(engine.UnregisterQuery(100));
}

}  // namespace
}  // namespace topkmon
