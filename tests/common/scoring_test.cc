#include "common/scoring.h"

#include <gtest/gtest.h>

#include <tuple>

#include "util/rng.h"

namespace topkmon {
namespace {

TEST(LinearFunctionTest, ScoresWeightedSum) {
  LinearFunction f({1.0, 2.0});
  EXPECT_DOUBLE_EQ(f.Score(Point{0.5, 0.25}), 1.0);
  EXPECT_EQ(f.dim(), 2);
}

TEST(LinearFunctionTest, NegativeWeightIsDecreasing) {
  // Figure 7a: f = x1 - x2.
  LinearFunction f({1.0, -1.0});
  EXPECT_EQ(f.direction(0), Monotonicity::kIncreasing);
  EXPECT_EQ(f.direction(1), Monotonicity::kDecreasing);
  EXPECT_DOUBLE_EQ(f.Score(Point{1.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(f.Score(Point{0.0, 1.0}), -1.0);
}

TEST(LinearFunctionTest, BestCornerFollowsDirections) {
  LinearFunction f({1.0, -1.0});
  const Rect r = Rect::UnitSpace(2);
  const Point best = f.BestCorner(r);
  EXPECT_EQ(best, (Point{1.0, 0.0}));
  const Point worst = f.WorstCorner(r);
  EXPECT_EQ(worst, (Point{0.0, 1.0}));
}

TEST(ProductFunctionTest, ScoresShiftedProduct) {
  ProductFunction f({0.0, 1.0});
  EXPECT_DOUBLE_EQ(f.Score(Point{0.5, 0.5}), 0.75);
  EXPECT_EQ(f.direction(0), Monotonicity::kIncreasing);
}

TEST(SumOfSquaresFunctionTest, ScoresQuadratic) {
  SumOfSquaresFunction f({2.0, 1.0});
  EXPECT_DOUBLE_EQ(f.Score(Point{0.5, 1.0}), 1.5);
}

TEST(ScoringFunctionTest, ToStringMentionsEveryTerm) {
  EXPECT_EQ(LinearFunction({0.5, 0.25}).ToString(),
            "0.500*x1 + 0.250*x2");
  EXPECT_EQ(ProductFunction({0.5}).ToString(), "(0.500+x1)");
  EXPECT_EQ(SumOfSquaresFunction({0.5}).ToString(), "0.500*x1^2");
}

TEST(ParseFunctionFamilyTest, KnownNames) {
  EXPECT_TRUE(ParseFunctionFamily("linear").ok());
  EXPECT_TRUE(ParseFunctionFamily("product").ok());
  EXPECT_TRUE(ParseFunctionFamily("squares").ok());
  EXPECT_TRUE(ParseFunctionFamily("sum_of_squares").ok());
  EXPECT_FALSE(ParseFunctionFamily("cubic").ok());
}

TEST(MakeRandomFunctionTest, ProducesRequestedFamilyAndDim) {
  Rng rng(7);
  auto uniform = [&rng]() { return rng.Uniform(); };
  auto lin = MakeRandomFunction(FunctionFamily::kLinear, 3, uniform);
  auto prod = MakeRandomFunction(FunctionFamily::kProduct, 4, uniform);
  auto sq = MakeRandomFunction(FunctionFamily::kSumOfSquares, 2, uniform);
  EXPECT_NE(dynamic_cast<LinearFunction*>(lin.get()), nullptr);
  EXPECT_NE(dynamic_cast<ProductFunction*>(prod.get()), nullptr);
  EXPECT_NE(dynamic_cast<SumOfSquaresFunction*>(sq.get()), nullptr);
  EXPECT_EQ(lin->dim(), 3);
  EXPECT_EQ(prod->dim(), 4);
  EXPECT_EQ(sq->dim(), 2);
}

// Property sweep: for every family and dimensionality, MaxScore of a random
// sub-rectangle upper-bounds (and MinScore lower-bounds) the score of every
// point sampled inside it — the geometric foundation of Section 3.1.
class MaxScoreBoundProperty
    : public ::testing::TestWithParam<std::tuple<FunctionFamily, int>> {};

TEST_P(MaxScoreBoundProperty, BoundsHoldForRandomRectsAndPoints) {
  const auto [family, dim] = GetParam();
  Rng rng(1234 + dim);
  auto uniform = [&rng]() { return rng.Uniform(); };
  for (int trial = 0; trial < 50; ++trial) {
    auto f = MakeRandomFunction(family, dim, uniform);
    // Random sub-rectangle.
    Point lo(dim);
    Point hi(dim);
    for (int i = 0; i < dim; ++i) {
      const double a = rng.Uniform();
      const double b = rng.Uniform();
      lo[i] = std::min(a, b);
      hi[i] = std::max(a, b);
    }
    const Rect r(lo, hi);
    const double max_score = f->MaxScore(r);
    const double min_score = f->MinScore(r);
    EXPECT_LE(min_score, max_score);
    for (int s = 0; s < 20; ++s) {
      Point p(dim);
      for (int i = 0; i < dim; ++i) p[i] = rng.Uniform(lo[i], hi[i]);
      const double score = f->Score(p);
      EXPECT_LE(score, max_score + 1e-12);
      EXPECT_GE(score, min_score - 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamiliesAndDims, MaxScoreBoundProperty,
    ::testing::Combine(::testing::Values(FunctionFamily::kLinear,
                                         FunctionFamily::kProduct,
                                         FunctionFamily::kSumOfSquares),
                       ::testing::Values(1, 2, 3, 4, 6)));

// Monotonicity property: perturbing a single coordinate in the direction
// reported by direction(i) never decreases the score.
class MonotonicityProperty
    : public ::testing::TestWithParam<std::tuple<FunctionFamily, int>> {};

TEST_P(MonotonicityProperty, DirectionsMatchBehavior) {
  const auto [family, dim] = GetParam();
  Rng rng(99 + dim);
  auto uniform = [&rng]() { return rng.Uniform(); };
  for (int trial = 0; trial < 50; ++trial) {
    auto f = MakeRandomFunction(family, dim, uniform);
    Point p(dim);
    for (int i = 0; i < dim; ++i) p[i] = rng.Uniform(0.1, 0.9);
    const double base = f->Score(p);
    for (int i = 0; i < dim; ++i) {
      Point up = p;
      up[i] = std::min(1.0, p[i] + 0.05);
      const double moved = f->Score(up);
      if (f->direction(i) == Monotonicity::kIncreasing) {
        EXPECT_GE(moved, base - 1e-12);
      } else {
        EXPECT_LE(moved, base + 1e-12);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamiliesAndDims, MonotonicityProperty,
    ::testing::Combine(::testing::Values(FunctionFamily::kLinear,
                                         FunctionFamily::kProduct,
                                         FunctionFamily::kSumOfSquares),
                       ::testing::Values(1, 2, 4, 6)));

// Mixed-monotonicity linear functions (random sign flips) must also keep
// the MaxScore bound — this exercises BestCorner's per-axis choices.
TEST(MixedMonotonicityTest, MaxScoreBoundWithNegativeWeights) {
  Rng rng(555);
  for (int trial = 0; trial < 100; ++trial) {
    const int dim = 2 + static_cast<int>(rng.UniformInt(4));
    std::vector<double> w(dim);
    for (double& x : w) x = rng.Uniform(-1.0, 1.0);
    LinearFunction f(w);
    Point lo(dim);
    Point hi(dim);
    for (int i = 0; i < dim; ++i) {
      const double a = rng.Uniform();
      const double b = rng.Uniform();
      lo[i] = std::min(a, b);
      hi[i] = std::max(a, b);
    }
    const Rect r(lo, hi);
    const double bound = f.MaxScore(r);
    for (int s = 0; s < 20; ++s) {
      Point p(dim);
      for (int i = 0; i < dim; ++i) p[i] = rng.Uniform(lo[i], hi[i]);
      EXPECT_LE(f.Score(p), bound + 1e-12);
    }
  }
}

}  // namespace
}  // namespace topkmon
