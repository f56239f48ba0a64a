#include "grid/grid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "util/rng.h"

namespace topkmon {
namespace {

TEST(GridTest, CellsPerAxisForBudgetMatchesPaperSizing) {
  // Section 8 tunes ~12^4 = 20736 total cells regardless of d.
  EXPECT_EQ(Grid::CellsPerAxisForBudget(4, 20736), 12);
  EXPECT_EQ(Grid::CellsPerAxisForBudget(2, 20736), 144);
  EXPECT_EQ(Grid::CellsPerAxisForBudget(3, 20736), 27);
  EXPECT_EQ(Grid::CellsPerAxisForBudget(5, 20736), 7);
  EXPECT_EQ(Grid::CellsPerAxisForBudget(6, 20736), 5);
  EXPECT_EQ(Grid::CellsPerAxisForBudget(1, 20736), 20736);
  EXPECT_EQ(Grid::CellsPerAxisForBudget(4, 1), 1);
}

TEST(GridTest, DimensionsAndDelta) {
  Grid g(2, 10);
  EXPECT_EQ(g.dim(), 2);
  EXPECT_EQ(g.cells_per_axis(), 10);
  EXPECT_EQ(g.num_cells(), 100u);
  EXPECT_DOUBLE_EQ(g.delta(), 0.1);
}

TEST(GridTest, LocateCellBasics) {
  Grid g(2, 10);
  // Section 4.1: cell c_{i,j} covers [i*delta,(i+1)*delta).
  const CellIndex c = g.LocateCell(Point{0.25, 0.77});
  const CellCoords coords = g.Decompose(c);
  EXPECT_EQ(coords[0], 2);
  EXPECT_EQ(coords[1], 7);
}

TEST(GridTest, LocateCellBoundaryOneMapsToLastCell) {
  Grid g(2, 10);
  const CellCoords coords = g.Decompose(g.LocateCell(Point{1.0, 1.0}));
  EXPECT_EQ(coords[0], 9);
  EXPECT_EQ(coords[1], 9);
}

TEST(GridTest, LocateCellOriginMapsToFirstCell) {
  Grid g(3, 7);
  EXPECT_EQ(g.LocateCell(Point{0.0, 0.0, 0.0}), 0u);
}

TEST(GridTest, ComposeDecomposeRoundTrip) {
  Grid g(4, 6);
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const CellIndex c =
        static_cast<CellIndex>(rng.UniformInt(g.num_cells()));
    EXPECT_EQ(g.Compose(g.Decompose(c)), c);
  }
}

TEST(GridTest, CellBoundsContainLocatedPoints) {
  Grid g(3, 9);
  Rng rng(6);
  for (int trial = 0; trial < 500; ++trial) {
    Point p(3);
    for (int i = 0; i < 3; ++i) p[i] = rng.Uniform();
    const CellIndex c = g.LocateCell(p);
    EXPECT_TRUE(g.CellBounds(c).Contains(p)) << p.ToString();
  }
}

TEST(GridTest, CellBoundsTileTheWorkspace) {
  Grid g(2, 4);
  double volume = 0.0;
  for (CellIndex c = 0; c < g.num_cells(); ++c) {
    volume += g.CellBounds(c).Volume();
  }
  EXPECT_NEAR(volume, 1.0, 1e-12);
}

TEST(GridTest, PointListFifo) {
  Grid g(2, 4);
  const CellIndex c = g.LocateCell(Point{0.1, 0.1});
  g.InsertPoint(c, 10, Point{0.1, 0.1});
  g.InsertPoint(c, 11, Point{0.12, 0.1});
  g.InsertPoint(c, 12, Point{0.14, 0.1});
  EXPECT_EQ(g.num_points(), 3u);
  EXPECT_EQ(g.PointsIn(c).size(), 3u);
  g.ErasePointFifo(c, 10);
  EXPECT_EQ(g.PointsIn(c).size(), 2u);
  EXPECT_EQ(*g.PointsIn(c).begin(), 11u);
  EXPECT_EQ(g.num_points(), 2u);
}

TEST(GridTest, PointListPositionalErase) {
  Grid g(2, 4);
  const CellIndex c = 0;
  g.InsertPoint(c, 1, Point{0.01, 0.01});
  g.InsertPoint(c, 2, Point{0.02, 0.02});
  g.InsertPoint(c, 3, Point{0.03, 0.03});
  ASSERT_TRUE(g.ErasePoint(c, 2).ok());
  EXPECT_EQ(g.PointsIn(c).size(), 2u);
  std::vector<RecordId> remaining(g.PointsIn(c).begin(),
                                  g.PointsIn(c).end());
  EXPECT_EQ(remaining, (std::vector<RecordId>{1, 3}));
  EXPECT_EQ(g.ErasePoint(c, 99).code(), StatusCode::kNotFound);
}

TEST(GridTest, PointListCompactionKeepsContents) {
  PointList list;
  for (RecordId i = 0; i < 1000; ++i) {
    list.PushBack(i, Point{static_cast<double>(i) / 1000.0, 0.5});
  }
  for (RecordId i = 0; i < 900; ++i) list.PopFront(i);
  EXPECT_EQ(list.size(), 100u);
  RecordId expect = 900;
  for (RecordId id : list) EXPECT_EQ(id, expect++);
  // The coordinate lanes compact in lockstep with the ids.
  const double* x = list.Lane(0);
  const double* y = list.Lane(1);
  for (std::size_t i = 0; i < list.size(); ++i) {
    EXPECT_DOUBLE_EQ(x[i], static_cast<double>(900 + i) / 1000.0);
    EXPECT_DOUBLE_EQ(y[i], 0.5);
  }
}

// A list whose live size holds steady at L must not grow with the number
// of records that pass through it: its footprint stays within a constant
// factor of max(L, initial lane stride) entries of 8 + 8d bytes.
TEST(GridTest, PointListFootprintBoundedByLive) {
  auto coord = [](RecordId id, int d) {
    return static_cast<double>((id * 7 + static_cast<RecordId>(d) * 13) %
                               1000) /
           1000.0;
  };
  for (int dim : {2, 4}) {
    for (std::size_t live : {0, 1, 2, 5, 50}) {
      SCOPED_TRACE("dim=" + std::to_string(dim) +
                   " live=" + std::to_string(live));
      const std::size_t entry_bytes = 8 + 8 * static_cast<std::size_t>(dim);
      const std::size_t bound =
          4 * entry_bytes * std::max<std::size_t>(live, 16);
      auto push = [&](PointList& list, RecordId id) {
        Point p(dim);
        for (int d = 0; d < dim; ++d) p[d] = coord(id, d);
        list.PushBack(id, p);
      };
      PointList list;
      RecordId next = 0;
      RecordId oldest = 0;
      for (; next < live; ++next) push(list, next);
      std::size_t compactions = 0;
      const std::size_t steps = 2000 * std::max<std::size_t>(live, 1);
      for (std::size_t step = 0; step < steps; ++step) {
        push(list, next++);
        ASSERT_LE(list.MemoryBytes(), bound) << "after push " << step;
        const RecordId* before = list.begin();
        list.PopFront(oldest++);
        ASSERT_LE(list.MemoryBytes(), bound) << "after pop " << step;
        ASSERT_EQ(list.size(), live);
        if (list.begin() == before + 1) continue;
        // Compacted: ids stay in FIFO order and every lane stays aligned.
        ++compactions;
        RecordId expect = oldest;
        for (const RecordId* it = list.begin(); it != list.end(); ++it) {
          ASSERT_EQ(*it, expect++);
        }
        for (int d = 0; d < dim; ++d) {
          const double* lane = list.Lane(d);
          for (std::size_t i = 0; i < list.size(); ++i) {
            ASSERT_EQ(lane[i], coord(oldest + i, d)) << "lane " << d;
          }
        }
      }
      EXPECT_GT(compactions, 0u);
    }
  }
}

TEST(GridTest, PointListLanesTrackErase) {
  PointList list;
  list.PushBack(1, Point{0.1, 0.9});
  list.PushBack(2, Point{0.2, 0.8});
  list.PushBack(3, Point{0.3, 0.7});
  ASSERT_TRUE(list.Erase(2));
  ASSERT_EQ(list.size(), 2u);
  EXPECT_DOUBLE_EQ(list.Lane(0)[0], 0.1);
  EXPECT_DOUBLE_EQ(list.Lane(0)[1], 0.3);
  EXPECT_DOUBLE_EQ(list.Lane(1)[0], 0.9);
  EXPECT_DOUBLE_EQ(list.Lane(1)[1], 0.7);
}

TEST(GridTest, InfluenceListAddRemove) {
  Grid g(2, 4);
  g.AddInfluence(3, 7);
  g.AddInfluence(3, 8);
  g.AddInfluence(3, 7);  // idempotent
  EXPECT_TRUE(g.HasInfluence(3, 7));
  EXPECT_TRUE(g.HasInfluence(3, 8));
  EXPECT_EQ(g.InfluenceList(3).size(), 2u);
  EXPECT_EQ(g.TotalInfluenceEntries(), 2u);
  EXPECT_TRUE(g.RemoveInfluence(3, 7));
  EXPECT_FALSE(g.RemoveInfluence(3, 7));
  EXPECT_FALSE(g.HasInfluence(3, 7));
  EXPECT_EQ(g.TotalInfluenceEntries(), 1u);
}

TEST(GridTest, MemoryBreakdownHasExpectedComponents) {
  Grid g(2, 8);
  g.InsertPoint(0, 1, Point{0.05, 0.05});
  g.AddInfluence(0, 1);
  const MemoryBreakdown mb = g.Memory();
  EXPECT_GT(mb.Bytes("grid_directory"), 0u);
  EXPECT_GT(mb.Bytes("point_lists"), 0u);
  EXPECT_GT(mb.Bytes("influence_lists"), 0u);
}

TEST(GridTest, SingleCellGrid) {
  Grid g(2, 1);
  EXPECT_EQ(g.num_cells(), 1u);
  EXPECT_EQ(g.LocateCell(Point{0.0, 0.0}), 0u);
  EXPECT_EQ(g.LocateCell(Point{1.0, 1.0}), 0u);
  const Rect bounds = g.CellBounds(0);
  EXPECT_DOUBLE_EQ(bounds.Volume(), 1.0);
}

TEST(GridTest, HighDimensionalGrid) {
  Grid g(6, 5);
  EXPECT_EQ(g.num_cells(), 15625u);
  Point p{0.99, 0.0, 0.5, 0.2, 0.8, 0.41};
  const CellCoords coords = g.Decompose(g.LocateCell(p));
  EXPECT_EQ(coords[0], 4);
  EXPECT_EQ(coords[1], 0);
  EXPECT_EQ(coords[2], 2);
  EXPECT_EQ(coords[3], 1);
  EXPECT_EQ(coords[4], 4);
  EXPECT_EQ(coords[5], 2);
}

}  // namespace
}  // namespace topkmon
