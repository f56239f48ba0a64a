#include "core/topk_compute.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "stream/generators.h"
#include "util/rng.h"

namespace topkmon {
namespace {

/// Small indexed dataset: records in a vector, ids are indices.
struct Dataset {
  std::vector<Record> records;
  Grid grid;

  Dataset(int dim, int cells_per_axis, std::size_t n, Distribution dist,
          std::uint64_t seed)
      : grid(dim, cells_per_axis) {
    RecordSource source(MakeGenerator(dist, dim, seed));
    for (std::size_t i = 0; i < n; ++i) {
      records.push_back(source.Next(0));
      grid.InsertPoint(grid.LocateCell(records.back().position),
                       records.back().id, records.back().position);
    }
  }

  std::vector<ResultEntry> BruteTopK(const ScoringFunction& f, int k,
                                     const Rect* constraint) const {
    TopKList top(k);
    for (const Record& r : records) {
      if (constraint != nullptr && !constraint->Contains(r.position)) {
        continue;
      }
      top.Consider(r.id, f.Score(r.position));
    }
    return top.entries();
  }
};

TEST(ComputeTopKTest, MatchesBruteForceOnSmallDataset) {
  Dataset data(2, 8, 500, Distribution::kIndependent, 1);
  LinearFunction f({1.0, 2.0});
  TraversalScratch scratch;
  const TopKComputation out =
      ComputeTopK(data.grid, f, 10, &scratch);
  EXPECT_EQ(out.result, data.BruteTopK(f, 10, nullptr));
}

TEST(ComputeTopKTest, EmptyGridReturnsNothing) {
  Dataset data(2, 8, 0, Distribution::kIndependent, 1);
  LinearFunction f({1.0, 1.0});
  TraversalScratch scratch;
  const TopKComputation out =
      ComputeTopK(data.grid, f, 5, &scratch);
  EXPECT_TRUE(out.result.empty());
  // All cells were processed looking for points.
  EXPECT_EQ(out.processed_cells.size(), data.grid.num_cells());
  EXPECT_TRUE(out.frontier_cells.empty());
}

TEST(ComputeTopKTest, KLargerThanDatasetReturnsEverything) {
  Dataset data(2, 4, 7, Distribution::kIndependent, 2);
  LinearFunction f({1.0, 1.0});
  TraversalScratch scratch;
  const TopKComputation out =
      ComputeTopK(data.grid, f, 50, &scratch);
  EXPECT_EQ(out.result.size(), 7u);
  EXPECT_EQ(out.KthScore(50), -std::numeric_limits<double>::infinity());
}

TEST(ComputeTopKTest, ProcessedCellsAreMinimal) {
  // Section 4.2 optimality: every processed cell except possibly the ones
  // examined while the list was still filling has maxscore > kth score.
  Dataset data(2, 10, 2000, Distribution::kIndependent, 3);
  LinearFunction f({0.7, 0.4});
  TraversalScratch scratch;
  const int k = 5;
  const TopKComputation out =
      ComputeTopK(data.grid, f, k, &scratch);
  const double kth = out.KthScore(k);
  for (CellIndex cell : out.processed_cells) {
    EXPECT_GE(f.MaxScore(data.grid.CellBounds(cell)), kth);
  }
  // And no unprocessed cell could contain a better record: its maxscore is
  // at most the kth score.
  std::vector<bool> processed(data.grid.num_cells(), false);
  for (CellIndex cell : out.processed_cells) processed[cell] = true;
  for (CellIndex cell = 0; cell < data.grid.num_cells(); ++cell) {
    if (!processed[cell]) {
      EXPECT_LE(f.MaxScore(data.grid.CellBounds(cell)), kth + 1e-12);
    }
  }
}

TEST(ComputeTopKTest, FrontierCellsHaveMaxScoreBelowKth) {
  Dataset data(2, 10, 2000, Distribution::kIndependent, 4);
  LinearFunction f({1.0, 2.0});
  TraversalScratch scratch;
  const TopKComputation out =
      ComputeTopK(data.grid, f, 5, &scratch);
  const double kth = out.KthScore(5);
  for (CellIndex cell : out.frontier_cells) {
    EXPECT_LE(f.MaxScore(data.grid.CellBounds(cell)), kth + 1e-12);
  }
}

TEST(ComputeTopKTest, ConstrainedQueryFiltersPoints) {
  Dataset data(2, 10, 2000, Distribution::kIndependent, 5);
  LinearFunction f({1.0, 2.0});
  const Rect constraint(Point{0.2, 0.3}, Point{0.6, 0.7});
  TraversalScratch scratch;
  const TopKComputation out = ComputeTopK(data.grid, f, 8, &scratch, &constraint);
  EXPECT_EQ(out.result, data.BruteTopK(f, 8, &constraint));
  for (const ResultEntry& e : out.result) {
    EXPECT_TRUE(constraint.Contains(
        data.records[static_cast<std::size_t>(e.id)].position));
  }
}

TEST(ComputeTopKTest, NaiveMatchesHeapTraversal) {
  Dataset data(3, 6, 1500, Distribution::kAntiCorrelated, 6);
  ProductFunction f({0.2, 0.5, 0.8});
  TraversalScratch scratch;
  const TopKComputation heap =
      ComputeTopK(data.grid, f, 12, &scratch);
  TraversalScratch naive_scratch;
  const TopKComputation naive =
      ComputeTopKNaive(data.grid, f, 12, &naive_scratch);
  EXPECT_EQ(heap.result, naive.result);
}

// Property sweep: heap computation equals brute force across
// dimensionalities, k values, distributions and function families.
class ComputeTopKProperty
    : public ::testing::TestWithParam<
          std::tuple<int, int, Distribution, FunctionFamily>> {};

TEST_P(ComputeTopKProperty, MatchesBruteForce) {
  const auto [dim, k, dist, family] = GetParam();
  Rng rng(900 + dim * 31 + k);
  auto uniform = [&rng]() { return rng.Uniform(); };
  Dataset data(dim, Grid::CellsPerAxisForBudget(dim, 4096), 800, dist,
               77 + static_cast<std::uint64_t>(dim) * 13);
  TraversalScratch scratch;
  for (int trial = 0; trial < 5; ++trial) {
    auto f = MakeRandomFunction(family, dim, uniform);
    const TopKComputation out =
        ComputeTopK(data.grid, *f, k, &scratch);
    EXPECT_EQ(out.result, data.BruteTopK(*f, k, nullptr));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ComputeTopKProperty,
    ::testing::Combine(
        ::testing::Values(1, 2, 3, 4),
        ::testing::Values(1, 5, 20),
        ::testing::Values(Distribution::kIndependent,
                          Distribution::kAntiCorrelated),
        ::testing::Values(FunctionFamily::kLinear,
                          FunctionFamily::kProduct)));

TEST(ComputeTopKTest, MixedMonotonicityFunctionsWork) {
  Dataset data(2, 8, 1000, Distribution::kIndependent, 8);
  // Figure 7a: f = x1 - x2.
  LinearFunction f({1.0, -1.0});
  TraversalScratch scratch;
  const TopKComputation out =
      ComputeTopK(data.grid, f, 4, &scratch);
  EXPECT_EQ(out.result, data.BruteTopK(f, 4, nullptr));
}

// Constrained property sweep: heap traversal equals brute force for random
// constraint rectangles, including rectangles whose corners lie exactly on
// grid lines (the floating-point seed-correction path).
class ConstrainedComputeProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ConstrainedComputeProperty, MatchesBruteForceUnderConstraints) {
  const auto [dim, k] = GetParam();
  const int cells_per_axis = Grid::CellsPerAxisForBudget(dim, 4096);
  Dataset data(dim, cells_per_axis, 700, Distribution::kIndependent,
               500 + static_cast<std::uint64_t>(dim));
  Rng rng(600 + static_cast<std::uint64_t>(dim) * 7 +
          static_cast<std::uint64_t>(k));
  TraversalScratch scratch;
  auto uniform = [&rng]() { return rng.Uniform(); };
  for (int trial = 0; trial < 12; ++trial) {
    auto f = MakeRandomFunction(FunctionFamily::kLinear, dim, uniform);
    Point lo(dim);
    Point hi(dim);
    for (int i = 0; i < dim; ++i) {
      // Half the corners snap to grid lines to exercise boundary cases.
      double a = rng.UniformInt(2) == 0
                     ? static_cast<double>(rng.UniformInt(
                           static_cast<std::uint64_t>(cells_per_axis) + 1)) /
                           cells_per_axis
                     : rng.Uniform();
      double b = rng.Uniform();
      lo[i] = std::min(a, b);
      hi[i] = std::max(a, b);
    }
    const Rect constraint(lo, hi);
    const TopKComputation heap = ComputeTopK(
        data.grid, *f, k, &scratch, &constraint);
    EXPECT_EQ(heap.result, data.BruteTopK(*f, k, &constraint))
        << "constraint " << constraint.ToString();
    TraversalScratch naive_scratch;
    const TopKComputation naive =
        ComputeTopKNaive(data.grid, *f, k, &naive_scratch, &constraint);
    EXPECT_EQ(heap.result, naive.result);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConstrainedComputeProperty,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4),
                                            ::testing::Values(1, 8)));

TEST(ComputeTopKTest, DuplicatePositionsTieCorrectly) {
  Grid grid(2, 4);
  std::vector<Record> records;
  for (RecordId i = 0; i < 6; ++i) {
    records.push_back(Record(i, Point{0.9, 0.9}, 0));
    grid.InsertPoint(grid.LocateCell(records.back().position), i,
                     records.back().position);
  }
  LinearFunction f({1.0, 1.0});
  TraversalScratch scratch;
  const TopKComputation out = ComputeTopK(grid, f, 3, &scratch);
  ASSERT_EQ(out.result.size(), 3u);
  // All scores equal; newest ids win under ResultOrder.
  EXPECT_EQ(out.result[0].id, 5u);
  EXPECT_EQ(out.result[1].id, 4u);
  EXPECT_EQ(out.result[2].id, 3u);
}

}  // namespace
}  // namespace topkmon
