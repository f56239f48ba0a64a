// The TMA/SMA window is the one store of each valid record's arrival, cell
// and coordinates; the grid's cells refer to its records by the low 32
// bits of their ids. These tests check the store on its own (chunk
// boundaries, gathers by handle, growth and shrinkage by whole chunks) and
// through both engines against BruteForceEngine: results, and the
// VisitWindow walk record for record and bit for bit, also where the low
// 32 bits of the ids wrap inside the window.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/brute_force_engine.h"
#include "core/sma_engine.h"
#include "core/tma_engine.h"
#include "tests/test_util.h"

namespace topkmon {
namespace {

using ::topkmon::testing::MakeRandomQueries;

constexpr std::size_t kChunk = GridWindow::kChunkRecords;

Point PointOf(RecordId id, int dim) {
  Point p(dim);
  for (int d = 0; d < dim; ++d) {
    p[d] = static_cast<double>((id * 7919 + static_cast<RecordId>(d) * 104729) %
                               1000) /
           1000.0;
  }
  return p;
}

struct WalkedRecord {
  RecordId id;
  std::vector<double> coords;
  Timestamp arrival;

  bool operator==(const WalkedRecord& o) const {
    return id == o.id && arrival == o.arrival &&
           coords.size() == o.coords.size() &&
           std::memcmp(coords.data(), o.coords.data(),
                       coords.size() * sizeof(double)) == 0;
  }
};

class Collect final : public WindowVisitor {
 public:
  void Begin(Timestamp, std::size_t size) override {
    records.clear();
    expected = size;
  }
  void Visit(RecordId id, const Point& p, Timestamp arrival) override {
    records.push_back({id, std::vector<double>(p.data(), p.data() + p.dim()),
                       arrival});
  }
  std::vector<WalkedRecord> records;
  std::size_t expected = 0;
};

std::vector<WalkedRecord> Walk(const MonitorEngine& engine) {
  Collect c;
  EXPECT_TRUE(engine.VisitWindow(c).ok());
  EXPECT_EQ(c.records.size(), c.expected);
  return c.records;
}

TEST(GridWindowTest, CrossesChunkBoundaries) {
  const int dim = 3;
  GridWindow window(WindowSpec::Count(2 * kChunk + 5), dim);
  const RecordId first = 1000;
  const std::size_t total = 5 * kChunk + 17;
  const std::size_t chunk_bytes = kChunk * (12 + 8 * dim);
  for (RecordId id = first; id < first + total; ++id) {
    TOPKMON_ASSERT_OK(window.Push(id, static_cast<Timestamp>(id / 100),
                                  static_cast<CellIndex>(id % 97),
                                  PointOf(id, dim)));
    std::vector<RecordId> expired;
    window.PopExpired(static_cast<Timestamp>(id / 100),
                      [&expired](RecordId e, CellIndex cell) {
                        EXPECT_EQ(cell, e % 97);
                        expired.push_back(e);
                      });
    ASSERT_LE(expired.size(), 1u);
    ASSERT_EQ(window.size(), std::min<std::size_t>(id - first + 1,
                                                   2 * kChunk + 5));
    // Chunks hold the live records plus less than a chunk at each end.
    ASSERT_LE(window.MemoryBytes(),
              chunk_bytes * ((window.size() + 2 * kChunk - 2) / kChunk));
    ASSERT_EQ(window.MemoryBytes() % chunk_bytes, 0u);
  }
  const RecordId front = first + total - window.size();
  ASSERT_EQ(window.front_id(), front);
  EXPECT_FALSE(window.Contains(front - 1));
  EXPECT_TRUE(window.Contains(front));
  EXPECT_TRUE(window.Contains(first + total - 1));
  EXPECT_FALSE(window.Contains(first + total));

  // Every record, through ForEach and through a gather by handle, in an
  // order that jumps across chunks.
  RecordId next = front;
  window.ForEach([&](RecordId id, Timestamp arrival, const double* coords) {
    ASSERT_EQ(id, next++);
    EXPECT_EQ(arrival, static_cast<Timestamp>(id / 100));
    EXPECT_EQ(window.CellOf(id), id % 97);
    const Point p = PointOf(id, dim);
    for (int d = 0; d < dim; ++d) EXPECT_EQ(coords[d], p[d]);
  });
  EXPECT_EQ(next, first + total);
  std::vector<PointHandle> handles;
  for (RecordId id = first + total - 1; id >= front; id -= 37) {
    handles.push_back(WindowHandle(id));
  }
  std::vector<RecordId> ids(handles.size());
  std::vector<double> coords(dim * handles.size());
  double* lanes[kMaxDims];
  for (int d = 0; d < dim; ++d) lanes[d] = coords.data() + d * handles.size();
  window.Gather(handles.data(), handles.size(), ids.data(), lanes);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const RecordId id = first + total - 1 - 37 * i;
    EXPECT_EQ(ids[i], id);
    const Point p = PointOf(id, dim);
    for (int d = 0; d < dim; ++d) EXPECT_EQ(lanes[d][i], p[d]);
  }
}

TEST(GridWindowTest, HandlesResolveAcrossTheLow32BitWrap) {
  const int dim = 2;
  GridWindow window(WindowSpec::Count(300), dim);
  const RecordId first = (RecordId{1} << 32) - 50;
  for (RecordId id = first; id < first + 400; ++id) {
    TOPKMON_ASSERT_OK(window.Push(id, 0, 0, PointOf(id, dim)));
    window.PopExpired(0, [](RecordId, CellIndex) {});
  }
  // The window holds ids 2^32 + 50 .. 2^32 + 349; then one with the wrap
  // inside it.
  ASSERT_EQ(window.front_id(), first + 100);
  GridWindow wrapped(WindowSpec::Count(300), dim);
  for (RecordId id = first; id < first + 300; ++id) {
    TOPKMON_ASSERT_OK(wrapped.Push(id, 0, 0, PointOf(id, dim)));
  }
  for (const GridWindow* w : {&window, &wrapped}) {
    std::vector<PointHandle> handles;
    for (RecordId id = w->front_id(); id < w->front_id() + w->size(); ++id) {
      handles.push_back(WindowHandle(id));
      EXPECT_EQ(WindowRecordId(w->front_id(), WindowHandle(id)), id);
    }
    std::vector<RecordId> ids(handles.size());
    std::vector<double> coords(dim * handles.size());
    double* lanes[kMaxDims] = {coords.data(), coords.data() + handles.size()};
    w->Gather(handles.data(), handles.size(), ids.data(), lanes);
    for (std::size_t i = 0; i < handles.size(); ++i) {
      const RecordId id = w->front_id() + i;
      ASSERT_EQ(ids[i], id);
      EXPECT_EQ(lanes[0][i], PointOf(id, dim)[0]);
      EXPECT_EQ(lanes[1][i], PointOf(id, dim)[1]);
    }
  }
  EXPECT_LT(WindowHandle(first + 299), WindowHandle(first));
}

struct EngineCase {
  bool sma;
  int dim;
};

std::unique_ptr<MonitorEngine> MakeGridEngine(const EngineCase& c,
                                              const WindowSpec& window) {
  GridEngineOptions opt;
  opt.dim = c.dim;
  opt.window = window;
  opt.cells_per_axis = c.dim == 2 ? 6 : 3;
  if (c.sma) return std::make_unique<SmaEngine>(opt);
  return std::make_unique<TmaEngine>(opt);
}

/// Runs a grid engine and BruteForceEngine over the same cycles (per-cycle
/// arrival counts `sizes`, ids from `first_id`) and checks, after every
/// cycle, equal result scores and an identical VisitWindow walk. Calls
/// `after_cycle(engine)` too.
template <typename AfterCycle>
void RunAgainstBruteForce(const EngineCase& c, const WindowSpec& window,
                          RecordId first_id,
                          const std::vector<std::size_t>& sizes,
                          AfterCycle after_cycle) {
  std::unique_ptr<MonitorEngine> engine = MakeGridEngine(c, window);
  BruteForceEngine brute(c.dim, window);
  for (const QuerySpec& q : MakeRandomQueries(c.dim, 5, 8, 41)) {
    TOPKMON_ASSERT_OK(engine->RegisterQuery(q));
    TOPKMON_ASSERT_OK(brute.RegisterQuery(q));
  }
  RecordSource source(
      MakeGenerator(Distribution::kIndependent, c.dim, /*seed=*/9));
  RecordId next = first_id;
  Timestamp now = 0;
  for (std::size_t size : sizes) {
    ++now;
    std::vector<Record> batch = source.NextBatch(size, now);
    for (Record& r : batch) r.id = next++;
    TOPKMON_ASSERT_OK(engine->ProcessCycle(now, batch));
    TOPKMON_ASSERT_OK(brute.ProcessCycle(now, batch));
    for (QueryId q = 1; q <= 5; ++q) {
      const auto got = engine->CurrentResult(q);
      const auto want = brute.CurrentResult(q);
      ASSERT_TRUE(got.ok() && want.ok());
      ASSERT_EQ(testing::Scores(*got), testing::Scores(*want))
          << "query " << q << " at cycle " << now;
    }
    ASSERT_EQ(Walk(*engine), Walk(brute)) << "cycle " << now;
    after_cycle(*engine);
  }
}

class GridWindowEngines : public ::testing::TestWithParam<EngineCase> {};

TEST_P(GridWindowEngines, IdsWrappingTheLow32BitsInsideTheWindow) {
  const RecordId first = (RecordId{1} << 32) - 50;
  bool straddled = false;
  RunAgainstBruteForce(
      GetParam(), WindowSpec::Count(120), first,
      std::vector<std::size_t>(30, 13), [&](const MonitorEngine& engine) {
        const std::vector<WalkedRecord> walk = Walk(engine);
        straddled |= !walk.empty() && walk.front().id < (RecordId{1} << 32) &&
                     walk.back().id >= (RecordId{1} << 32);
      });
  EXPECT_TRUE(straddled);
}

TEST_P(GridWindowEngines, TimeWindowGrowsAndShrinksByChunks) {
  // Arrivals per cycle ramp up until the window holds several chunks,
  // then fall off: the window's chunks follow its live size both ways.
  std::vector<std::size_t> sizes;
  for (int i = 0; i < 12; ++i) sizes.push_back(kChunk / 2 + i * 64);
  for (int i = 0; i < 12; ++i) sizes.push_back(8);
  const Timestamp span = 8;
  const std::size_t record_bytes =
      12 + 8 * static_cast<std::size_t>(GetParam().dim);
  std::size_t peak_bytes = 0;
  std::size_t last_bytes = 0;
  RunAgainstBruteForce(
      GetParam(), WindowSpec::Time(span), 1, sizes,
      [&](const MonitorEngine& engine) {
        const std::size_t bytes = engine.Memory().Bytes("window");
        ASSERT_LE(bytes, record_bytes * (engine.WindowSize() + 2 * kChunk));
        peak_bytes = std::max(peak_bytes, bytes);
        last_bytes = bytes;
      });
  EXPECT_GE(peak_bytes, record_bytes * 5 * kChunk);
  EXPECT_LE(last_bytes, record_bytes * 2 * kChunk);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, GridWindowEngines,
    ::testing::Values(EngineCase{false, 2}, EngineCase{true, 2},
                      EngineCase{false, 4}, EngineCase{true, 4}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      return std::string(info.param.sma ? "Sma" : "Tma") + "D" +
             std::to_string(info.param.dim);
    });

}  // namespace
}  // namespace topkmon
