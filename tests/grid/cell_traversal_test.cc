#include "grid/cell_traversal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/topk_compute.h"
#include "stream/generators.h"
#include "stream/record_pool.h"
#include "util/rng.h"

namespace topkmon {
namespace {

TEST(TraversalScratchTest, MarksResetPerEpoch) {
  TraversalScratch scratch;
  scratch.Reset(16);
  EXPECT_TRUE(scratch.Mark(3));
  EXPECT_FALSE(scratch.Mark(3));
  EXPECT_TRUE(scratch.IsMarked(3));
  EXPECT_FALSE(scratch.IsMarked(4));
  scratch.Reset(16);
  EXPECT_FALSE(scratch.IsMarked(3));
  EXPECT_TRUE(scratch.Mark(3));
}

TEST(TraversalScratchTest, GrowsWithGrid) {
  TraversalScratch scratch;
  scratch.Reset(4);
  EXPECT_TRUE(scratch.Mark(3));
  scratch.Reset(32);
  EXPECT_TRUE(scratch.Mark(31));
}

TEST(SeedCellTest, IncreasingFunctionsSeedAtTopCorner) {
  Grid g(2, 10);
  LinearFunction f({1.0, 1.0});
  const CellCoords coords = g.Decompose(SeedCell(g, f));
  EXPECT_EQ(coords[0], 9);
  EXPECT_EQ(coords[1], 9);
}

TEST(SeedCellTest, MixedMonotonicitySeedsAtMixedCorner) {
  // Figure 7a: f = x1 - x2 starts at the bottom-right corner.
  Grid g(2, 10);
  LinearFunction f({1.0, -1.0});
  const CellCoords coords = g.Decompose(SeedCell(g, f));
  EXPECT_EQ(coords[0], 9);
  EXPECT_EQ(coords[1], 0);
}

// The core Figure 5b property: the traversal must emit every grid cell in
// exact descending maxscore order, for any monotone function.
class DescendingOrderProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DescendingOrderProperty, EnumeratesAllCellsInMaxScoreOrder) {
  const auto [dim, cells_per_axis] = GetParam();
  Grid g(dim, cells_per_axis);
  Rng rng(100 + dim * 10 + cells_per_axis);
  for (int trial = 0; trial < 5; ++trial) {
    // Random mixed-sign linear function.
    std::vector<double> w(dim);
    for (double& x : w) x = rng.Uniform(-1.0, 1.0);
    LinearFunction f(w);

    TraversalScratch scratch;
    MaxScoreTraversal traversal(g, f, &scratch);
    std::vector<double> emitted;
    std::unordered_set<CellIndex> seen;
    while (traversal.HasNext()) {
      const auto entry = traversal.Next();
      emitted.push_back(entry.maxscore);
      EXPECT_TRUE(seen.insert(entry.cell).second)
          << "cell emitted twice: " << entry.cell;
      // The reported key must equal the true maxscore of the cell.
      EXPECT_DOUBLE_EQ(entry.maxscore, f.MaxScore(g.CellBounds(entry.cell)));
    }
    EXPECT_EQ(seen.size(), g.num_cells());
    EXPECT_TRUE(std::is_sorted(emitted.rbegin(), emitted.rend()))
        << "maxscores not descending";
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndResolutions, DescendingOrderProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(1, 2, 5, 8)));

std::uint64_t Bits(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

// f.MaxScore of the cell's bounds clipped to the constraint, computed
// through Rects as ComputeTopKNaive does: the reference every corner-table
// key must match bit for bit.
double ClippedMaxScore(const Grid& g, const ScoringFunction& f, CellIndex cell,
                       const Rect* constraint) {
  const Rect bounds = g.CellBounds(cell);
  if (constraint == nullptr) return f.MaxScore(bounds);
  Point lo(g.dim());
  Point hi(g.dim());
  for (int i = 0; i < g.dim(); ++i) {
    lo[i] = std::max(bounds.lo()[i], constraint->lo()[i]);
    hi[i] = std::min(bounds.hi()[i], constraint->hi()[i]);
  }
  return f.MaxScore(Rect(lo, hi));
}

// Every key the corner tables produce must equal the maxscore of the
// clipped cell bounds bit for bit, and the traversal must emit only cells
// that intersect the constraint. On grids of 7 and 12 cells per axis some
// multiples c * delta miss the grid line c / m by an ulp; on 49 cells per
// axis m * delta is not exactly 1.0 either. Constraint corners snap to
// grid lines in most trials.
class CornerTableKeyProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CornerTableKeyProperty, KeysMatchClippedMaxScoreBitwise) {
  const auto [dim, cells_per_axis] = GetParam();
  const Grid g(dim, cells_per_axis);
  Rng rng(7000 + dim * 100 + cells_per_axis);
  auto uniform = [&rng]() { return rng.Uniform(); };
  std::vector<std::unique_ptr<ScoringFunction>> functions;
  for (FunctionFamily family :
       {FunctionFamily::kLinear, FunctionFamily::kProduct,
        FunctionFamily::kSumOfSquares}) {
    functions.push_back(MakeRandomFunction(family, dim, uniform));
  }
  for (int trial = 0; trial < 2; ++trial) {
    std::vector<double> w(dim);
    for (double& x : w) x = rng.Uniform(-1.0, 1.0);
    functions.push_back(std::make_unique<LinearFunction>(w));
  }
  auto grid_line = [&rng, cells_per_axis]() {
    return static_cast<double>(rng.UniformInt(
               static_cast<std::uint64_t>(cells_per_axis) + 1)) /
           cells_per_axis;
  };
  TraversalScratch scratch;
  for (const auto& f : functions) {
    for (int trial = 0; trial < 9; ++trial) {
      // Trial 0 is unconstrained; the rest draw a constraint.
      std::unique_ptr<Rect> constraint;
      if (trial > 0) {
        Point lo(dim);
        Point hi(dim);
        for (int i = 0; i < dim; ++i) {
          const double a = trial % 2 == 0 ? grid_line() : rng.Uniform();
          const double b = trial > 4 ? grid_line() : rng.Uniform();
          lo[i] = std::min(a, b);
          hi[i] = std::max(a, b);
        }
        constraint = std::make_unique<Rect>(lo, hi);
      }
      MaxScoreTraversal traversal(g, *f, &scratch, constraint.get());
      std::unordered_set<CellIndex> emitted;
      while (traversal.HasNext()) {
        const CellKey entry = traversal.Next();
        EXPECT_TRUE(emitted.insert(entry.cell).second);
        EXPECT_EQ(Bits(entry.maxscore),
                  Bits(ClippedMaxScore(g, *f, entry.cell, constraint.get())))
            << f->ToString() << " cell " << entry.cell;
      }
      // Unconstrained, every cell is emitted. Constrained, only cells that
      // intersect the constraint are; a cell that merely touches it on a
      // face above the seed is not reached, and holds no point inside it.
      if (constraint == nullptr) {
        EXPECT_EQ(emitted.size(), g.num_cells());
        continue;
      }
      for (CellIndex cell : emitted) {
        EXPECT_TRUE(g.CellBounds(cell).Intersects(*constraint))
            << f->ToString() << " cell " << cell;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndResolutions, CornerTableKeyProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(3, 7, 12)));
INSTANTIATE_TEST_SUITE_P(
    InexactUnitSide, CornerTableKeyProperty,
    ::testing::Combine(::testing::Values(1, 2), ::testing::Values(49)));

// The paper's cost counters per computation, pinned for a fixed seed set:
// cells visited, frontier cells, points scored, and an FNV-1a hash of the
// processed order and of the result (ids and score bits). The expected
// values were recorded from the Rect-per-cell traversal that the corner
// tables replaced; a traversal change that alters any visit, any key or
// any tie order shows up here.
struct PinnedCase {
  int dim;
  int cells_per_axis;
  Distribution dist;
  std::size_t records;
  std::uint64_t cells_visited;
  std::uint64_t frontier_cells;
  std::uint64_t points_scored;
  std::uint64_t order_hash;
};

void Fnv(std::uint64_t* h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xff;
    *h *= 0x100000001b3ULL;
  }
}

TEST(ComputeTopKPinningTest, CountersAndOrderMatchRecordedValues) {
  const PinnedCase cases[] = {
      {2, 10, Distribution::kIndependent, 3000, 69, 62, 1456,
       4549130343657006760ULL},
      {3, 7, Distribution::kAntiCorrelated, 4000, 824, 527, 2226,
       7376269102966980172ULL},
      {4, 12, Distribution::kAntiCorrelated, 20000, 16119, 8342, 1654,
       9177548306349819399ULL},
      {4, 12, Distribution::kClustered, 20000, 96831, 21942, 9784,
       12830245186813861143ULL},
  };
  for (const PinnedCase& c : cases) {
    Grid g(c.dim, c.cells_per_axis);
    RecordPool pool;
    RecordSource source(MakeGenerator(c.dist, c.dim, 31 + c.dim));
    for (std::size_t i = 0; i < c.records; ++i) {
      const Record r = source.Next(0);
      g.InsertPoint(g.LocateCell(r.position), *pool.Insert(r));
    }
    Rng rng(5100 + c.dim * 10 + c.cells_per_axis);
    auto uniform = [&rng]() { return rng.Uniform(); };
    TraversalScratch scratch;
    std::uint64_t cells = 0;
    std::uint64_t frontier = 0;
    std::uint64_t points = 0;
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (int trial = 0; trial < 24; ++trial) {
      std::unique_ptr<ScoringFunction> f;
      switch (trial % 4) {
        case 0:
          f = MakeRandomFunction(FunctionFamily::kLinear, c.dim, uniform);
          break;
        case 1:
          f = MakeRandomFunction(FunctionFamily::kProduct, c.dim, uniform);
          break;
        case 2:
          f = MakeRandomFunction(FunctionFamily::kSumOfSquares, c.dim,
                                 uniform);
          break;
        default: {
          std::vector<double> w(c.dim);
          for (double& x : w) x = rng.Uniform(-1.0, 1.0);
          f = std::make_unique<LinearFunction>(w);
        }
      }
      std::unique_ptr<Rect> constraint;
      if (trial % 3 == 2) {
        Point lo(c.dim);
        Point hi(c.dim);
        for (int i = 0; i < c.dim; ++i) {
          const double a =
              static_cast<double>(rng.UniformInt(
                  static_cast<std::uint64_t>(c.cells_per_axis) + 1)) /
              c.cells_per_axis;
          const double b = rng.Uniform();
          lo[i] = std::min(a, b);
          hi[i] = std::max(a, b);
        }
        constraint = std::make_unique<Rect>(lo, hi);
      }
      const int k = trial % 2 == 0 ? 20 : 1 + trial;
      const TopKComputation out =
          ComputeTopK(g, pool, *f, k, &scratch, constraint.get());
      cells += out.processed_cells.size();
      frontier += out.frontier_cells.size();
      points += out.points_scored;
      for (CellIndex cell : out.processed_cells) Fnv(&hash, cell);
      for (const ResultEntry& e : out.result) {
        Fnv(&hash, e.id);
        Fnv(&hash, Bits(e.score));
      }
    }
    EXPECT_EQ(cells, c.cells_visited) << "d=" << c.dim;
    EXPECT_EQ(frontier, c.frontier_cells) << "d=" << c.dim;
    EXPECT_EQ(points, c.points_scored) << "d=" << c.dim;
    EXPECT_EQ(hash, c.order_hash) << "d=" << c.dim;
  }
}

TEST(MaxScoreTraversalTest, FrontierIsEnheapedButUnprocessed) {
  Grid g(2, 8);
  LinearFunction f({1.0, 2.0});
  TraversalScratch scratch;
  MaxScoreTraversal traversal(g, f, &scratch);
  // Process only 5 cells.
  std::unordered_set<CellIndex> processed;
  for (int i = 0; i < 5; ++i) processed.insert(traversal.Next().cell);
  const std::vector<CellIndex> frontier = traversal.RemainingFrontier();
  EXPECT_FALSE(frontier.empty());
  for (CellIndex c : frontier) {
    EXPECT_FALSE(processed.count(c))
        << "frontier cell was already processed";
    // Frontier cells have lower-or-equal maxscore than any processed cell's.
  }
  EXPECT_EQ(traversal.num_processed(), 5u);
}

TEST(MaxScoreTraversalTest, ConstrainedVisitsOnlyIntersectingCells) {
  Grid g(2, 10);
  LinearFunction f({1.0, 2.0});
  const Rect constraint(Point{0.32, 0.0}, Point{0.58, 0.45});
  TraversalScratch scratch;
  MaxScoreTraversal traversal(g, f, &scratch, &constraint);
  std::size_t count = 0;
  double last = std::numeric_limits<double>::infinity();
  while (traversal.HasNext()) {
    const auto entry = traversal.Next();
    ++count;
    EXPECT_TRUE(g.CellBounds(entry.cell).Intersects(constraint));
    EXPECT_LE(entry.maxscore, last + 1e-12);
    last = entry.maxscore;
    // Clipped maxscore never exceeds the constraint's own best score.
    EXPECT_LE(entry.maxscore, f.MaxScore(constraint) + 1e-12);
  }
  // The constraint spans x1 in cells 3..5 and x2 in cells 0..4 => 15 cells.
  EXPECT_EQ(count, 15u);
}

TEST(MaxScoreTraversalTest, ConstraintSeedIsBestCornerCell) {
  Grid g(2, 10);
  LinearFunction f({1.0, 2.0});
  const Rect constraint(Point{0.3, 0.0}, Point{0.6, 0.45});
  TraversalScratch scratch;
  MaxScoreTraversal traversal(g, f, &scratch, &constraint);
  // Figure 12: the first processed cell contains the best corner of R.
  // The corner (0.6, 0.45) lies exactly on the grid line x1 = 0.6, so the
  // corrected seed is the cell on the constraint's side: (5, 4).
  ASSERT_TRUE(traversal.HasNext());
  const auto first = traversal.Next();
  EXPECT_EQ(first.cell, ConstrainedSeedCell(g, f, constraint));
  const CellCoords coords = g.Decompose(first.cell);
  EXPECT_EQ(coords[0], 5);
  EXPECT_EQ(coords[1], 4);
}

TEST(ConstrainedSeedCellTest, CornerOnGridLineStaysInsideConstraint) {
  Grid g(2, 10);
  LinearFunction inc({1.0, 1.0});
  // hi corner exactly on a grid line for an increasing function.
  const Rect on_line(Point{0.0, 0.0}, Point{0.6, 0.6});
  const CellCoords c1 = g.Decompose(ConstrainedSeedCell(g, inc, on_line));
  EXPECT_EQ(c1[0], 5);
  EXPECT_EQ(c1[1], 5);
  // lo corner exactly on a grid line for a decreasing function: whichever
  // cell is chosen, it must intersect the constraint (the property the
  // traversal needs to start).
  LinearFunction dec({-1.0, -1.0});
  const Rect lo_line(Point{0.3, 0.3}, Point{0.9, 0.9});
  const CellIndex c2 = ConstrainedSeedCell(g, dec, lo_line);
  EXPECT_TRUE(g.CellBounds(c2).Intersects(lo_line));
  // And across many random constraints the seed always intersects.
  Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    Point lo(2);
    Point hi(2);
    for (int i = 0; i < 2; ++i) {
      double a = rng.UniformInt(11) / 10.0;  // grid-aligned corners
      double b = rng.Uniform();
      lo[i] = std::min(a, b);
      hi[i] = std::max(a, b);
    }
    const Rect r(lo, hi);
    for (const ScoringFunction* f2 :
         {static_cast<const ScoringFunction*>(&inc),
          static_cast<const ScoringFunction*>(&dec)}) {
      const CellIndex seed = ConstrainedSeedCell(g, *f2, r);
      EXPECT_TRUE(g.CellBounds(seed).Intersects(r))
          << "constraint " << r.ToString();
    }
  }
}

TEST(WalkDescendingTest, VisitsDownClosedRegion) {
  Grid g(2, 6);
  LinearFunction f({1.0, 1.0});
  TraversalScratch scratch;
  // Expand only through cells whose coordinate sum is >= 8; the walk from
  // the top corner should visit those plus their immediate down-neighbors.
  std::vector<CellIndex> visited;
  WalkDescending(g, f, {SeedCell(g, f)}, &scratch,
                 [&](CellIndex cell) {
                   visited.push_back(cell);
                   const CellCoords c = g.Decompose(cell);
                   return c[0] + c[1] >= 8;
                 });
  // Cells with sum >= 8: (4,4),(5,4),(4,5),(5,5),(3,5),(5,3) = 6 cells;
  // their down-neighbors with sum 7 are also *visited* (but not expanded):
  // (2,5),(3,4),(4,3),(5,2).
  std::unordered_set<CellIndex> set(visited.begin(), visited.end());
  EXPECT_EQ(set.size(), 10u);
  for (CellIndex cell : visited) {
    const CellCoords c = g.Decompose(cell);
    EXPECT_GE(c[0] + c[1], 7);
  }
}

TEST(WalkDescendingTest, EmptySeedsVisitsNothing) {
  Grid g(2, 4);
  LinearFunction f({1.0, 1.0});
  TraversalScratch scratch;
  int visits = 0;
  WalkDescending(g, f, {}, &scratch, [&](CellIndex) {
    ++visits;
    return true;
  });
  EXPECT_EQ(visits, 0);
}

TEST(WalkDescendingTest, DuplicateSeedsVisitOnce) {
  Grid g(2, 4);
  LinearFunction f({1.0, 1.0});
  TraversalScratch scratch;
  int visits = 0;
  const CellIndex seed = SeedCell(g, f);
  WalkDescending(g, f, {seed, seed, seed}, &scratch, [&](CellIndex) {
    ++visits;
    return false;
  });
  EXPECT_EQ(visits, 1);
}

}  // namespace
}  // namespace topkmon
