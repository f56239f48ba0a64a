// Steady-state index space: after many window turnovers the grid's point
// lists must follow the live window (Section 4.1 keeps each valid record
// once in its cell's list), not grow with the number of records that ever
// passed through a cell, nor stay at each cell's all-time peak. A cell's
// block never holds more than max(8, 4L) slots for L live entries, so the
// test tracks every cell's live count (and live peak) alongside the
// engine and holds the lists to those bounds; an emptied cell keeps no
// block. The records themselves live once, in the window: the lists hold
// 4-byte handles into it, not a second copy of the coordinates.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/sma_engine.h"
#include "core/tma_engine.h"
#include "grid/grid.h"
#include "tests/test_util.h"

namespace topkmon {
namespace {

using ::topkmon::testing::MakeRandomQueries;

struct SpaceCase {
  bool sma;
  int dim;
};

// Without this gtest prints the raw bytes, padding included, and the
// test names ctest registers change from build to build.
void PrintTo(const SpaceCase& c, std::ostream* os) {
  *os << (c.sma ? "SMA" : "TMA") << " d=" << c.dim;
}

class SteadyStateSpace : public ::testing::TestWithParam<SpaceCase> {};

TEST_P(SteadyStateSpace, PointListsStayProportionalToWindow) {
  const SpaceCase& c = GetParam();
  const std::size_t n = 2000;
  const std::size_t per_cycle = 200;
  const int turnovers = 40;

  GridEngineOptions opt;
  opt.dim = c.dim;
  opt.window = WindowSpec::Count(n);
  opt.cells_per_axis = c.dim == 2 ? 16 : 4;
  std::unique_ptr<MonitorEngine> engine;
  const Grid* grid = nullptr;
  if (c.sma) {
    auto sma = std::make_unique<SmaEngine>(opt);
    grid = &sma->grid();
    engine = std::move(sma);
  } else {
    auto tma = std::make_unique<TmaEngine>(opt);
    grid = &tma->grid();
    engine = std::move(tma);
  }
  const std::size_t entry_bytes = sizeof(PointHandle);
  const std::size_t record_bytes = 12 + 8 * static_cast<std::size_t>(c.dim);
  // The engine's cells, with each one's live count and live peak. Both
  // engines insert a cycle's arrivals before they expire, so a peak may
  // count up to per_cycle records beyond the window.
  std::vector<std::size_t> live(grid->num_cells(), 0);
  std::vector<std::size_t> peak(grid->num_cells(), 0);
  std::deque<CellIndex> window;

  for (const QuerySpec& q : MakeRandomQueries(c.dim, 8, 10, 31)) {
    TOPKMON_ASSERT_OK(engine->RegisterQuery(q));
  }
  RecordSource source(
      MakeGenerator(Distribution::kIndependent, c.dim, /*seed=*/17));
  Timestamp now = 0;
  const std::size_t cycles_per_turnover = n / per_cycle;
  for (int t = 0; t < turnovers; ++t) {
    for (std::size_t i = 0; i < cycles_per_turnover; ++i) {
      ++now;
      const std::vector<Record> batch = source.NextBatch(per_cycle, now);
      TOPKMON_ASSERT_OK(engine->ProcessCycle(now, batch));
      for (const Record& r : batch) {
        const CellIndex cell = grid->LocateCell(r.position);
        window.push_back(cell);
        peak[cell] = std::max(peak[cell], ++live[cell]);
      }
      for (; window.size() > n; window.pop_front()) --live[window.front()];
    }
    ASSERT_EQ(engine->WindowSize(), n);
    // A cell that never held more than kInlineCapacity entries has no
    // block, and a block doubles only when full, so it holds fewer than
    // twice its cell's peak entries.
    std::size_t bound_entries = 0;
    for (std::size_t p : peak) {
      bound_entries += p <= PointList::kInlineCapacity ? 0 : 2 * p - 1;
    }
    ASSERT_LE(engine->Memory().Bytes("point_lists"),
              entry_bytes * bound_entries)
        << "after " << t + 1 << " window turnovers";
    // A removal that leaves a block a quarter full halves it, down to
    // kShrinkFloor slots, and one that empties it frees it, so the lists
    // follow the current live counts too.
    auto live_bound = [](std::size_t l) {
      return l == 0 ? 0
                    : std::max<std::size_t>(PointList::kShrinkFloor, 4 * l);
    };
    std::size_t live_bound_entries = 0;
    for (std::size_t l : live) live_bound_entries += live_bound(l);
    ASSERT_LE(engine->Memory().Bytes("point_lists"),
              entry_bytes * live_bound_entries)
        << "after " << t + 1 << " window turnovers";
    // The same bound per cell, where a cell that once peaked cannot hide
    // behind the slack of the others.
    for (CellIndex cell = 0; cell < grid->num_cells(); ++cell) {
      const PointList& points = grid->PointsIn(cell);
      ASSERT_EQ(points.size(), live[cell]) << "cell " << cell;
      ASSERT_LE(points.MemoryBytes(), entry_bytes * live_bound(live[cell]))
          << "cell " << cell << " (peak " << peak[cell] << ") after "
          << t + 1 << " window turnovers";
    }
    // The window keeps each record's arrival, cell and coordinates,
    // 12 + 8d bytes, in chunks with less than one chunk of slack at each
    // end. A whole-Record copy is 88 bytes.
    ASSERT_LE(engine->Memory().Bytes("window"),
              record_bytes * (n + 2 * GridWindow::kChunkRecords))
        << "after " << t + 1 << " window turnovers";
  }
}

// The grid and the window do not creep: over many turnovers of a window
// much smaller than the grid, records keep landing in cells that were
// empty before, and a cell that empties again must give its block back.
// After the last turnover the grid plus window bytes are within 2% of
// their value after the second.
TEST(NoCreep, GridPlusWindowBytesHoldAcrossTurnovers) {
  struct Case {
    bool sma;
    int dim;
    Distribution dist;
  };
  for (const Case& c : {Case{true, 4, Distribution::kAntiCorrelated},
                        Case{false, 2, Distribution::kIndependent}}) {
    SCOPED_TRACE(std::string(c.sma ? "SMA" : "TMA") +
                 " d=" + std::to_string(c.dim));
    // Whole chunks of the window, so each turnover ends with the same
    // chunk slack.
    const std::size_t n = 8 * GridWindow::kChunkRecords;
    const std::size_t per_cycle = GridWindow::kChunkRecords;
    const int turnovers = 60;
    GridEngineOptions opt;
    opt.dim = c.dim;
    opt.window = WindowSpec::Count(n);
    std::unique_ptr<MonitorEngine> engine;
    if (c.sma) {
      engine = std::make_unique<SmaEngine>(opt);
    } else {
      engine = std::make_unique<TmaEngine>(opt);
    }
    for (const QuerySpec& q : MakeRandomQueries(c.dim, 4, 10, 7)) {
      TOPKMON_ASSERT_OK(engine->RegisterQuery(q));
    }
    RecordSource source(MakeGenerator(c.dist, c.dim, /*seed=*/23));
    auto bytes = [&engine] {
      const MemoryBreakdown mb = engine->Memory();
      return mb.Bytes("grid_directory") + mb.Bytes("point_lists") +
             mb.Bytes("influence_lists") + mb.Bytes("window");
    };
    Timestamp now = 0;
    std::size_t after_second = 0;
    for (int t = 1; t <= turnovers; ++t) {
      for (std::size_t i = 0; i < n / per_cycle; ++i) {
        ++now;
        TOPKMON_ASSERT_OK(
            engine->ProcessCycle(now, source.NextBatch(per_cycle, now)));
      }
      if (t == 2) after_second = bytes();
    }
    const std::size_t after_last = bytes();
    EXPECT_LE(after_last, after_second + after_second / 50)
        << "after turnover 2: " << after_second << " bytes, after turnover "
        << turnovers << ": " << after_last;
    EXPECT_GE(after_last, after_second - after_second / 50);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, SteadyStateSpace,
    ::testing::Values(SpaceCase{false, 2}, SpaceCase{false, 4},
                      SpaceCase{true, 2}, SpaceCase{true, 4}),
    [](const ::testing::TestParamInfo<SpaceCase>& info) {
      return std::string(info.param.sma ? "Sma" : "Tma") + "D" +
             std::to_string(info.param.dim);
    });

}  // namespace
}  // namespace topkmon
