// Steady-state index space: after many window turnovers the grid's point
// lists must follow the live window (Section 4.1 keeps each valid record
// once in its cell's list), not grow with the number of records that ever
// passed through a cell, nor stay at each cell's all-time peak. A cell's
// block never holds more than max(8, 4L) slots for L live entries, so the
// test tracks every cell's live count (and live peak) alongside the
// engine and holds the lists to those bounds. The window must not keep a
// second copy of the records beside the grid.

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
  const std::size_t entry_bytes = 8 + 8 * static_cast<std::size_t>(c.dim);
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
    // A block doubles only when full, so it holds fewer than twice its
    // cell's peak entries, or the initial capacity.
    std::size_t bound_entries = 0;
    for (std::size_t p : peak) {
      bound_entries += std::max<std::size_t>(PointList::kInitialCapacity,
                                             2 * p - (p > 0 ? 1 : 0));
    }
    ASSERT_LE(engine->Memory().Bytes("point_lists"),
              entry_bytes * bound_entries)
        << "after " << t + 1 << " window turnovers";
    // A removal that leaves a block a quarter full halves it, down to
    // kShrinkFloor slots, so the lists follow the current live counts too.
    std::size_t live_bound_entries = 0;
    for (std::size_t l : live) {
      live_bound_entries +=
          std::max<std::size_t>(PointList::kShrinkFloor, 4 * l);
    }
    ASSERT_LE(engine->Memory().Bytes("point_lists"),
              entry_bytes * live_bound_entries)
        << "after " << t + 1 << " window turnovers";
    // The same bound per cell, where a cell that once peaked cannot hide
    // behind the slack of the others.
    for (CellIndex cell = 0; cell < grid->num_cells(); ++cell) {
      const PointList& points = grid->PointsIn(cell);
      ASSERT_EQ(points.size(), live[cell]) << "cell " << cell;
      ASSERT_LE(points.capacity(),
                std::max<std::size_t>(PointList::kShrinkFloor,
                                      4 * live[cell]))
          << "cell " << cell << " (peak " << peak[cell] << ") after "
          << t + 1 << " window turnovers";
    }
    // The point lists hold each record's id and coordinates; the window
    // keeps only a 16-byte (cell, arrival) entry per record, plus at most
    // one 512-byte deque block. A whole-Record copy is 88 bytes.
    ASSERT_LE(engine->Memory().Bytes("window"), 16 * n + 512)
        << "after " << t + 1 << " window turnovers";
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
