// TMA and SMA keep only each valid record's cell and arrival in their
// window; SnapshotState() rebuilds ids and coordinates from the grid's
// point lists. These tests pin that image, record for record and bit for
// bit, against BruteForceEngine's window of whole records, including cells
// whose ring has wrapped and cells that grew while wrapped, and check that
// a fresh engine restored from it answers exactly as the original does.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/brute_force_engine.h"
#include "core/sma_engine.h"
#include "core/tma_engine.h"
#include "tests/test_util.h"

namespace topkmon {
namespace {

using ::topkmon::testing::MakeRandomQueries;

struct SnapshotCase {
  bool sma;
  bool time_window;
  int dim;
};

void PrintTo(const SnapshotCase& c, std::ostream* os) {
  *os << (c.sma ? "SMA" : "TMA") << (c.time_window ? " time" : " count")
      << " d=" << c.dim;
}

constexpr std::size_t kCount = 600;  // count window: N
constexpr Timestamp kSpan = 12;      // time window: cycles

GridEngineOptions OptionsFor(const SnapshotCase& c) {
  GridEngineOptions opt;
  opt.dim = c.dim;
  opt.window = c.time_window ? WindowSpec::Time(kSpan)
                             : WindowSpec::Count(kCount);
  // Few cells, so each holds dozens of records and its ring wraps.
  opt.cells_per_axis = c.dim == 2 ? 4 : 2;
  return opt;
}

std::unique_ptr<MonitorEngine> MakeGridEngine(const SnapshotCase& c) {
  if (c.sma) return std::make_unique<SmaEngine>(OptionsFor(c));
  return std::make_unique<TmaEngine>(OptionsFor(c));
}

const Grid& GridOf(const MonitorEngine& engine) {
  if (const auto* sma = dynamic_cast<const SmaEngine*>(&engine)) {
    return sma->grid();
  }
  return dynamic_cast<const TmaEngine&>(engine).grid();
}

bool Wrapped(const PointList& points) {
  int runs = 0;
  points.ForEachRun([&runs](const RecordId*, const double* const*,
                            std::size_t) { ++runs; });
  return runs == 2;
}

void ExpectSameWindow(const MonitorEngine& engine,
                      const MonitorEngine& truth, const std::string& when) {
  const auto got = engine.SnapshotState();
  const auto want = truth.SnapshotState();
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(want.ok()) << want.status();
  EXPECT_EQ(got->last_cycle, want->last_cycle) << when;
  ASSERT_EQ(got->window.size(), want->window.size()) << when;
  for (std::size_t i = 0; i < got->window.size(); ++i) {
    const Record& g = got->window[i];
    const Record& w = want->window[i];
    ASSERT_EQ(g.id, w.id) << when << ", record " << i;
    ASSERT_EQ(g.arrival, w.arrival) << when << ", record " << i;
    ASSERT_EQ(g.position.dim(), w.position.dim()) << when << ", record " << i;
    ASSERT_EQ(std::memcmp(g.position.data(), w.position.data(),
                          sizeof(double) * kMaxDims),
              0)
        << when << ", record " << i << ": " << g.position.ToString()
        << " vs " << w.position.ToString();
  }
}

void ExpectSameResults(const MonitorEngine& engine,
                       const MonitorEngine& reference,
                       const std::vector<QuerySpec>& queries,
                       const std::string& when) {
  for (const QuerySpec& q : queries) {
    const auto got = engine.CurrentResult(q.id);
    const auto want = reference.CurrentResult(q.id);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(want.ok()) << want.status();
    EXPECT_EQ(*got, *want) << when << ", query " << q.id;
  }
}

class WindowSnapshot : public ::testing::TestWithParam<SnapshotCase> {};

TEST_P(WindowSnapshot, MatchesBruteForceAndRestoresExactly) {
  const SnapshotCase& c = GetParam();
  std::unique_ptr<MonitorEngine> engine = MakeGridEngine(c);
  BruteForceEngine truth(c.dim, OptionsFor(c).window);
  const std::vector<QuerySpec> queries =
      MakeRandomQueries(c.dim, 8, 5, /*seed=*/41);
  for (const QuerySpec& q : queries) {
    TOPKMON_ASSERT_OK(engine->RegisterQuery(q));
    TOPKMON_ASSERT_OK(truth.RegisterQuery(q));
  }

  // Three phases of 60 cycles: uniform, then every record in the corner
  // cell (which grows while its ring is wrapped), then uniform again
  // (which refills the cells the second phase emptied). Batch sizes vary
  // so the time window's population rises and falls too.
  auto gen = MakeGenerator(Distribution::kIndependent, c.dim, /*seed=*/7);
  const Grid& grid = GridOf(*engine);
  std::vector<std::size_t> capacity(grid.num_cells(), 0);
  std::vector<bool> wrapped(grid.num_cells(), false);
  int wrapped_cells_seen = 0;
  int grew_while_wrapped = 0;
  RecordId next_id = 0;
  Timestamp now = 0;
  for (int cycle = 0; cycle < 180; ++cycle) {
    ++now;
    const bool corner = cycle >= 60 && cycle < 120;
    std::vector<Record> batch;
    const std::size_t n = 20 + static_cast<std::size_t>((cycle * 37) % 61);
    for (std::size_t i = 0; i < n; ++i) {
      Point p = gen->NextPoint();
      if (corner) {
        for (int d = 0; d < c.dim; ++d) p[d] *= 0.2;
      }
      batch.emplace_back(next_id++, p, now);
    }
    TOPKMON_ASSERT_OK(engine->ProcessCycle(now, batch));
    TOPKMON_ASSERT_OK(truth.ProcessCycle(now, batch));
    // A ring wrapped at the start of a cycle stays wrapped through the
    // cycle's arrivals (both engines insert before they expire), so a
    // capacity rise in that cycle is growth while wrapped.
    for (CellIndex cell = 0; cell < grid.num_cells(); ++cell) {
      const PointList& points = grid.PointsIn(cell);
      if (wrapped[cell] && points.capacity() > capacity[cell]) {
        ++grew_while_wrapped;
      }
      capacity[cell] = points.capacity();
      wrapped[cell] = Wrapped(points);
      wrapped_cells_seen += wrapped[cell] ? 1 : 0;
    }
    ExpectSameWindow(*engine, truth, "cycle " + std::to_string(cycle));
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(wrapped_cells_seen, 0);
  EXPECT_GT(grew_while_wrapped, 0);
  ExpectSameResults(*engine, truth, queries, "before restore");

  // A fresh engine restored from the image answers as the original does,
  // and both keep agreeing with BruteForce as the stream goes on.
  const auto image = engine->SnapshotState();
  ASSERT_TRUE(image.ok()) << image.status();
  std::unique_ptr<MonitorEngine> restored = MakeGridEngine(c);
  TOPKMON_ASSERT_OK(restored->RestoreState(*image));
  for (const QuerySpec& q : queries) {
    TOPKMON_ASSERT_OK(restored->RegisterQuery(q));
  }
  ExpectSameWindow(*restored, truth, "after restore");
  ExpectSameResults(*restored, *engine, queries, "after restore");
  for (int cycle = 0; cycle < 30; ++cycle) {
    ++now;
    std::vector<Record> batch;
    for (std::size_t i = 0; i < 40; ++i) {
      batch.emplace_back(next_id++, gen->NextPoint(), now);
    }
    TOPKMON_ASSERT_OK(engine->ProcessCycle(now, batch));
    TOPKMON_ASSERT_OK(restored->ProcessCycle(now, batch));
    TOPKMON_ASSERT_OK(truth.ProcessCycle(now, batch));
    const std::string when = "cycle " + std::to_string(cycle) +
                             " after restore";
    ExpectSameWindow(*restored, truth, when);
    ExpectSameResults(*restored, *engine, queries, when);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, WindowSnapshot,
    ::testing::Values(SnapshotCase{false, false, 2},
                      SnapshotCase{false, false, 4},
                      SnapshotCase{false, false, 6},
                      SnapshotCase{false, true, 2},
                      SnapshotCase{false, true, 4},
                      SnapshotCase{false, true, 6},
                      SnapshotCase{true, false, 2},
                      SnapshotCase{true, false, 4},
                      SnapshotCase{true, false, 6},
                      SnapshotCase{true, true, 2},
                      SnapshotCase{true, true, 4},
                      SnapshotCase{true, true, 6}),
    [](const ::testing::TestParamInfo<SnapshotCase>& info) {
      return std::string(info.param.sma ? "Sma" : "Tma") +
             (info.param.time_window ? "Time" : "Count") + "D" +
             std::to_string(info.param.dim);
    });

}  // namespace
}  // namespace topkmon
