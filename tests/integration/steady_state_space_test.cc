// Steady-state index space: after many window turnovers the grid's point
// lists must stay proportional to the live window (Section 4.1 keeps each
// valid record once in its cell's list), not grow with the number of
// records that ever passed through a cell.

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>

#include "core/sma_engine.h"
#include "core/tma_engine.h"
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
  if (c.sma) {
    engine = std::make_unique<SmaEngine>(opt);
  } else {
    engine = std::make_unique<TmaEngine>(opt);
  }
  const std::size_t num_cells = c.dim == 2 ? 16 * 16 : 4 * 4 * 4 * 4;
  const std::size_t entry_bytes = 8 + 8 * static_cast<std::size_t>(c.dim);
  const std::size_t bound = entry_bytes * (4 * n + 32 * num_cells);

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
      TOPKMON_ASSERT_OK(
          engine->ProcessCycle(now, source.NextBatch(per_cycle, now)));
    }
    ASSERT_EQ(engine->WindowSize(), n);
    ASSERT_LE(engine->Memory().Bytes("point_lists"), bound)
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
