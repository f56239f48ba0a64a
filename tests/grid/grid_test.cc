#include "grid/grid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace topkmon {
namespace {

double Coord(RecordId id, int d) {
  return static_cast<double>((id * 7 + static_cast<RecordId>(d) * 13) %
                             1000) /
         1000.0;
}

Point PointFor(RecordId id, int dim) {
  Point p(dim);
  for (int d = 0; d < dim; ++d) p[d] = Coord(id, d);
  return p;
}

struct Entry {
  RecordId id;
  std::vector<double> coords;
};

/// The list's entries as ForEachRun presents them, oldest first.
std::vector<Entry> Entries(const PointList& list, int dim) {
  std::vector<Entry> out;
  list.ForEachRun(
      [&out, dim](const RecordId* ids, const double* const* lanes,
                  std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
          Entry e{ids[i], {}};
          for (int d = 0; d < dim; ++d) e.coords.push_back(lanes[d][i]);
          out.push_back(std::move(e));
        }
      });
  return out;
}

/// The lengths of the contiguous runs ForEachRun visits.
std::vector<std::size_t> Runs(const PointList& list) {
  std::vector<std::size_t> runs;
  list.ForEachRun([&runs](const RecordId*, const double* const*,
                          std::size_t n) { runs.push_back(n); });
  return runs;
}

/// Expects `list` to hold exactly `ids` oldest first, through both the
/// iterator and ForEachRun, with every coordinate lane aligned.
void ExpectHolds(const PointList& list, const std::vector<RecordId>& ids) {
  EXPECT_EQ(list.size(), ids.size());
  EXPECT_EQ(std::vector<RecordId>(list.begin(), list.end()), ids);
  const std::vector<Entry> entries = Entries(list, 3);
  ASSERT_EQ(entries.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(entries[i].id, ids[i]);
    for (int d = 0; d < 3; ++d) {
      EXPECT_EQ(entries[i].coords[d], Coord(ids[i], d)) << "lane " << d;
    }
  }
}

/// Fills an empty list to the initial capacity with 2, 3, 4, 5 (d=3) and
/// the ring wrapped: slots [4, 5, 2, 3], head at slot 2.
void FillWrapped(PointList* list) {
  for (RecordId id = 0; id < 4; ++id) list->PushBack(id, PointFor(id, 3));
  list->PopFront(0);
  list->PopFront(1);
  list->PushBack(4, PointFor(4, 3));
  list->PushBack(5, PointFor(5, 3));
}

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
  EXPECT_EQ(g.point_list_resizes(), 1u);  // the cell's first block
  g.ErasePointFifo(c, 10);
  EXPECT_EQ(g.PointsIn(c).size(), 2u);
  EXPECT_EQ(*g.PointsIn(c).begin(), 11u);
  EXPECT_EQ(g.num_points(), 2u);
  EXPECT_EQ(g.point_list_resizes(), 1u);
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

TEST(GridTest, PointListLongFifoRunKeepsContents) {
  PointList list;
  for (RecordId i = 0; i < 1000; ++i) {
    list.PushBack(i, Point{static_cast<double>(i) / 1000.0, 0.5});
  }
  for (RecordId i = 0; i < 900; ++i) list.PopFront(i);
  EXPECT_EQ(list.size(), 100u);
  // The block halved at 256 live entries (1024 -> 512) and at 128
  // (512 -> 256); 100 live entries fill more than a quarter of 256.
  EXPECT_EQ(list.capacity(), 256u);
  RecordId expect = 900;
  for (RecordId id : list) EXPECT_EQ(id, expect++);
  // The coordinate lanes stay aligned with the ids.
  const std::vector<Entry> entries = Entries(list, 2);
  ASSERT_EQ(entries.size(), 100u);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].id, 900 + i);
    EXPECT_DOUBLE_EQ(entries[i].coords[0],
                     static_cast<double>(900 + i) / 1000.0);
    EXPECT_DOUBLE_EQ(entries[i].coords[1], 0.5);
  }
}

// A list whose live size holds steady at L must not grow with the number
// of records that pass through it: its block holds the live peak L + 1
// rounded up to a power of two, at most 2 * max(L, 1) entries of 8 + 8d
// bytes (the initial capacity for the smallest lists).
TEST(GridTest, PointListFootprintBoundedByLive) {
  for (int dim : {2, 4}) {
    for (std::size_t live : {0, 1, 2, 5, 50}) {
      SCOPED_TRACE("dim=" + std::to_string(dim) +
                   " live=" + std::to_string(live));
      const std::size_t entry_bytes = 8 + 8 * static_cast<std::size_t>(dim);
      const std::size_t bound =
          entry_bytes * std::max<std::size_t>(PointList::kInitialCapacity,
                                              2 * std::max<std::size_t>(
                                                      live, 1));
      PointList list;
      RecordId next = 0;
      RecordId oldest = 0;
      for (; next < live; ++next) list.PushBack(next, PointFor(next, dim));
      std::size_t wrapped = 0;
      const std::size_t steps = 2000 * std::max<std::size_t>(live, 1);
      for (std::size_t step = 0; step < steps; ++step) {
        list.PushBack(next, PointFor(next, dim));
        ++next;
        ASSERT_LE(list.MemoryBytes(), bound) << "after push " << step;
        list.PopFront(oldest++);
        ASSERT_LE(list.MemoryBytes(), bound) << "after pop " << step;
        ASSERT_EQ(list.size(), live);
        if (Runs(list).size() == 2) ++wrapped;
        // Once per turnover: ids stay in FIFO order and every lane stays
        // aligned.
        if (step % (live + 1) != 0) continue;
        const std::vector<Entry> entries = Entries(list, dim);
        for (std::size_t i = 0; i < entries.size(); ++i) {
          ASSERT_EQ(entries[i].id, oldest + i);
          for (int d = 0; d < dim; ++d) {
            ASSERT_EQ(entries[i].coords[d], Coord(oldest + i, d))
                << "lane " << d;
          }
        }
      }
      if (live >= 2) {
        EXPECT_GT(wrapped, 0u);
      }
    }
  }
}

// Draining a list leaves a block that follows its current live size, not
// the peak it once held: at most max(kShrinkFloor, 4L) slots for L live
// entries. Every shrink keeps the FIFO order and the lanes aligned, also
// when the ring is wrapped at the time of the shrink.
TEST(GridTest, PointListFootprintFollowsLiveSize) {
  for (bool wrapped : {false, true}) {
    for (std::size_t live : {0, 1, 5, 50}) {
      SCOPED_TRACE(std::string(wrapped ? "wrapped" : "unwrapped") +
                   " live=" + std::to_string(live));
      PointList list;
      RecordId next = 0;
      RecordId oldest = 0;
      for (; next < 1000; ++next) list.PushBack(next, PointFor(next, 3));
      if (wrapped) {
        // Turn the ring over part of the way: 1000 entries in a
        // 1024-slot block, the head 100 slots in. The first shrink, at
        // 256 live entries, then finds the head at slot 844 and the
        // entries split across the end of the block.
        for (; oldest < 100; ++oldest) {
          list.PopFront(oldest);
          list.PushBack(next, PointFor(next, 3));
          ++next;
        }
        ASSERT_EQ(list.capacity(), 1024u);
        ASSERT_EQ(Runs(list).size(), 2u);
      }
      std::size_t capacity = list.capacity();
      bool shrank_wrapped = false;
      while (list.size() > live) {
        const bool was_wrapped = Runs(list).size() == 2;
        list.PopFront(oldest++);
        if (list.capacity() == capacity) continue;
        // A shrink halves the block and keeps the entries in order.
        EXPECT_EQ(list.capacity(), capacity / 2);
        capacity = list.capacity();
        shrank_wrapped |= was_wrapped;
        std::vector<RecordId> ids;
        for (RecordId id = oldest; id < next; ++id) ids.push_back(id);
        ExpectHolds(list, ids);
        EXPECT_EQ(Runs(list).size(), ids.empty() ? 0u : 1u);
      }
      EXPECT_EQ(shrank_wrapped, wrapped);
      EXPECT_LE(list.capacity(),
                std::max<std::size_t>(PointList::kShrinkFloor, 4 * live));
      // The shrunk list keeps working as a FIFO.
      list.PushBack(next, PointFor(next, 3));
      ++next;
      std::vector<RecordId> ids;
      for (RecordId id = oldest; id < next; ++id) ids.push_back(id);
      ExpectHolds(list, ids);
    }
  }
}

// Alternating one insertion and one removal at any live size resizes the
// block in the first step at most: a resize leaves the block half full,
// and the next one needs a quarter of the block in removals or half in
// insertions.
TEST(GridTest, PointListDoesNotThrashAtABoundary) {
  for (std::size_t boundary = 1; boundary <= 64; boundary *= 2) {
    for (std::size_t live : {boundary - 1, boundary, boundary + 1}) {
      for (bool pop_first : {false, true}) {
        SCOPED_TRACE("live=" + std::to_string(live) +
                     (pop_first ? " pop first" : " push first"));
        PointList list;
        RecordId next = 0;
        RecordId oldest = 0;
        // Reach `live` from above as well as from below: fill to 4x and
        // drain, so the block sits at the shrink edge.
        for (; next < 4 * live + 1; ++next) {
          list.PushBack(next, PointFor(next, 2));
        }
        while (list.size() > live) list.PopFront(oldest++);
        // Every operation is checked: a grow undone by the next removal
        // leaves the capacity unchanged across the step.
        std::size_t capacity = list.capacity();
        std::size_t resizes = 0;
        auto track = [&list, &capacity, &resizes] {
          resizes += list.capacity() != capacity;
          capacity = list.capacity();
        };
        for (int step = 0; step < 200; ++step) {
          if (pop_first && list.size() > 0) {
            list.PopFront(oldest++);
            track();
          }
          list.PushBack(next, PointFor(next, 2));
          ++next;
          track();
          if (!pop_first) {
            list.PopFront(oldest++);
            track();
          }
          if (step == 0) resizes = 0;
        }
        EXPECT_EQ(resizes, 0u);
      }
    }
  }
}

TEST(GridTest, PointListLanesTrackErase) {
  PointList list;
  list.PushBack(1, Point{0.1, 0.9});
  list.PushBack(2, Point{0.2, 0.8});
  list.PushBack(3, Point{0.3, 0.7});
  ASSERT_TRUE(list.Erase(2));
  const std::vector<Entry> entries = Entries(list, 2);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].id, 1u);
  EXPECT_DOUBLE_EQ(entries[0].coords[0], 0.1);
  EXPECT_DOUBLE_EQ(entries[0].coords[1], 0.9);
  EXPECT_EQ(entries[1].id, 3u);
  EXPECT_DOUBLE_EQ(entries[1].coords[0], 0.3);
  EXPECT_DOUBLE_EQ(entries[1].coords[1], 0.7);
}

TEST(GridTest, PointListWrapAroundKeepsFifoAndLanes) {
  PointList list;
  FillWrapped(&list);
  EXPECT_EQ(list.capacity(), PointList::kInitialCapacity);
  ExpectHolds(list, {2, 3, 4, 5});
  // Keep cycling through the same block: the head wraps past slot 0 too.
  for (RecordId id = 6; id < 40; ++id) {
    list.PopFront(id - 4);
    list.PushBack(id, PointFor(id, 3));
    ExpectHolds(list, {id - 3, id - 2, id - 1, id});
  }
  EXPECT_EQ(list.capacity(), PointList::kInitialCapacity);
}

TEST(GridTest, PointListGrowsWhileWrapped) {
  PointList list;
  FillWrapped(&list);
  list.PushBack(6, PointFor(6, 3));
  EXPECT_EQ(list.capacity(), 2 * PointList::kInitialCapacity);
  ExpectHolds(list, {2, 3, 4, 5, 6});
  // Growth unwraps the ring: the entries form one run again.
  EXPECT_EQ(Runs(list), (std::vector<std::size_t>{5}));
  list.PopFront(2);
  list.PushBack(7, PointFor(7, 3));
  ExpectHolds(list, {3, 4, 5, 6, 7});
}

TEST(GridTest, PointListEraseOnEitherSideOfTheWrap) {
  // Slots hold [4, 5 | 2, 3]: 2 and 3 sit before the wrap, 4 and 5 after.
  for (RecordId victim : {2, 3, 4, 5}) {
    SCOPED_TRACE("erase " + std::to_string(victim));
    PointList list;
    FillWrapped(&list);
    ASSERT_TRUE(list.Erase(victim));
    std::vector<RecordId> rest;
    for (RecordId id : {2, 3, 4, 5}) {
      if (id != victim) rest.push_back(id);
    }
    ExpectHolds(list, rest);
    EXPECT_FALSE(list.Erase(victim));
    // The ring keeps working as a FIFO after the erase.
    list.PushBack(6, PointFor(6, 3));
    list.PopFront(rest.front());
    rest.erase(rest.begin());
    rest.push_back(6);
    ExpectHolds(list, rest);
  }
}

TEST(GridTest, PointListForEachRunSplitsAtTheWrap) {
  PointList list;
  EXPECT_TRUE(Runs(list).empty());
  for (RecordId id = 0; id < 4; ++id) list.PushBack(id, PointFor(id, 3));
  list.PopFront(0);
  list.PopFront(1);
  EXPECT_EQ(Runs(list), (std::vector<std::size_t>{2}));
  list.PushBack(4, PointFor(4, 3));
  EXPECT_EQ(Runs(list), (std::vector<std::size_t>{2, 1}));
  list.PushBack(5, PointFor(5, 3));
  EXPECT_EQ(Runs(list), (std::vector<std::size_t>{2, 2}));
  // The runs come oldest first.
  ExpectHolds(list, {2, 3, 4, 5});
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

TEST(GridTest, InfluenceListSwapEraseKeepsTheOthers) {
  Grid g(2, 4);
  for (QueryId q = 1; q <= 5; ++q) g.AddInfluence(2, q);
  auto members = [&g] {
    std::vector<QueryId> m = g.InfluenceList(2);
    std::sort(m.begin(), m.end());
    return m;
  };
  // The first, a middle and the last entry: each swap-erase keeps the rest.
  EXPECT_TRUE(g.RemoveInfluence(2, 1));
  EXPECT_EQ(members(), (std::vector<QueryId>{2, 3, 4, 5}));
  EXPECT_TRUE(g.RemoveInfluence(2, 3));
  EXPECT_EQ(members(), (std::vector<QueryId>{2, 4, 5}));
  EXPECT_TRUE(g.RemoveInfluence(2, g.InfluenceList(2).back()));
  EXPECT_EQ(g.InfluenceList(2).size(), 2u);
  // Adding a present id after the swaps is still a no-op.
  for (QueryId q : std::vector<QueryId>(g.InfluenceList(2))) {
    g.AddInfluence(2, q);
  }
  EXPECT_EQ(g.InfluenceList(2).size(), 2u);
  // An absent id is refused without disturbing the members.
  EXPECT_FALSE(g.RemoveInfluence(2, 1));
  EXPECT_FALSE(g.RemoveInfluence(2, 99));
  EXPECT_FALSE(g.RemoveInfluence(0, 2));
  EXPECT_EQ(g.InfluenceList(2).size(), 2u);
  EXPECT_EQ(g.TotalInfluenceEntries(), 2u);
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
