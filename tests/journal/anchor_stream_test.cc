// A journal snapshot anchor is encoded straight from the engine's window
// (MonitorEngine::VisitWindow into EncodeSnapshotBody(SnapshotAnchor)),
// never from a copy of it. These tests pin the streamed bytes against
// the vector path — EncodeSnapshotBody of the JournalSnapshot holding
// SnapshotState(), the engine's own and BruteForce's — byte for byte:
// for TMA, SMA, BruteForce, TSL and the sharded engine, count and time
// windows, d in {2, 4, 6}, at every cycle of a stream that wraps the
// grid engines' point-list rings. A decorator
// that overrides only SnapshotState() exercises the walk's fallback, and
// the segments the writer anchors on an engine hold exactly those bytes.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/brute_force_engine.h"
#include "core/sharded_engine.h"
#include "core/sma_engine.h"
#include "core/tma_engine.h"
#include "journal/format.h"
#include "journal/journal_writer.h"
#include "stream/generators.h"
#include "tests/journal/journal_test_util.h"
#include "tests/test_util.h"
#include "tsl/tsl_engine.h"

namespace topkmon {
namespace {

using ::topkmon::testing::MakeRandomQueries;
using ::topkmon::testing::ScopedTempDir;

enum class Kind { kTma, kSma, kBrute, kTsl, kSharded, kSnapshotOnly };

struct AnchorCase {
  Kind kind;
  bool time_window;
  int dim;
};

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kTma: return "TMA";
    case Kind::kSma: return "SMA";
    case Kind::kBrute: return "BRUTE";
    case Kind::kTsl: return "TSL";
    case Kind::kSharded: return "SHARDED";
    case Kind::kSnapshotOnly: return "SNAPSHOT-ONLY";
  }
  return "?";
}

void PrintTo(const AnchorCase& c, std::ostream* os) {
  *os << KindName(c.kind) << (c.time_window ? " time" : " count")
      << " d=" << c.dim;
}

/// A decorator that overrides SnapshotState() but not VisitWindow(), as
/// a bench-side tracing wrapper does: its anchors come from the default
/// walk over SnapshotState(). Counts how often that ran.
class SnapshotOnlyEngine final : public MonitorEngine {
 public:
  explicit SnapshotOnlyEngine(std::unique_ptr<MonitorEngine> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  int dim() const override { return inner_->dim(); }
  Status RegisterQuery(const QuerySpec& spec) override {
    return inner_->RegisterQuery(spec);
  }
  Status UnregisterQuery(QueryId id) override {
    return inner_->UnregisterQuery(id);
  }
  Status ProcessCycle(Timestamp now, RecordSpan arrivals) override {
    return inner_->ProcessCycle(now, arrivals);
  }
  Result<std::vector<ResultEntry>> CurrentResult(QueryId id) const override {
    return inner_->CurrentResult(id);
  }
  void SetDeltaCallback(DeltaCallback callback) override {
    inner_->SetDeltaCallback(std::move(callback));
  }
  std::size_t WindowSize() const override { return inner_->WindowSize(); }
  Result<EngineSnapshot> SnapshotState() const override {
    ++snapshots_taken;
    return inner_->SnapshotState();
  }
  const EngineStats& stats() const override { return inner_->stats(); }
  MemoryBreakdown Memory() const override { return inner_->Memory(); }

  mutable int snapshots_taken = 0;

 private:
  std::unique_ptr<MonitorEngine> inner_;
};

constexpr std::size_t kCount = 500;  // count window: N
constexpr Timestamp kSpan = 10;      // time window: cycles
constexpr std::uint64_t kNextQueryId = 77;

GridEngineOptions GridOptions(const AnchorCase& c) {
  GridEngineOptions opt;
  opt.dim = c.dim;
  opt.window = c.time_window ? WindowSpec::Time(kSpan)
                             : WindowSpec::Count(kCount);
  // Few cells, so each holds dozens of records and its ring wraps.
  opt.cells_per_axis = c.dim == 2 ? 4 : 2;
  return opt;
}

std::unique_ptr<MonitorEngine> MakeEngine(const AnchorCase& c) {
  const GridEngineOptions grid = GridOptions(c);
  switch (c.kind) {
    case Kind::kTma:
      return std::make_unique<TmaEngine>(grid);
    case Kind::kSma:
      return std::make_unique<SmaEngine>(grid);
    case Kind::kBrute:
      return std::make_unique<BruteForceEngine>(c.dim, grid.window);
    case Kind::kTsl: {
      TslOptions tsl;
      tsl.dim = c.dim;
      tsl.window = grid.window;
      return std::make_unique<TslEngine>(tsl);
    }
    case Kind::kSharded:
      return std::make_unique<ShardedEngine>(
          2, [grid] { return std::make_unique<TmaEngine>(grid); });
    case Kind::kSnapshotOnly:
      return std::make_unique<SnapshotOnlyEngine>(
          std::make_unique<TmaEngine>(grid));
  }
  return nullptr;
}

/// The grid of a TMA/SMA engine, or nullptr for every other kind.
const Grid* GridOf(const MonitorEngine& engine) {
  if (const auto* tma = dynamic_cast<const TmaEngine*>(&engine)) {
    return &tma->grid();
  }
  if (const auto* sma = dynamic_cast<const SmaEngine*>(&engine)) {
    return &sma->grid();
  }
  return nullptr;
}

int WrappedCells(const Grid& grid) {
  int wrapped = 0;
  for (CellIndex cell = 0; cell < grid.num_cells(); ++cell) {
    int runs = 0;
    grid.PointsIn(cell).ForEachRun(
        [&runs](const RecordId*, const double* const*, std::size_t) {
          ++runs;
        });
    wrapped += runs == 2 ? 1 : 0;
  }
  return wrapped;
}

std::vector<JournaledQuery> Journaled(const std::vector<QuerySpec>& specs) {
  std::vector<JournaledQuery> out;
  for (const QuerySpec& spec : specs) {
    out.push_back({spec, "owner-" + std::to_string(spec.id % 3)});
  }
  return out;
}

/// EncodeSnapshotBody of the JournalSnapshot holding SnapshotState().
std::string VectorAnchor(const MonitorEngine& engine, RecordId next_id,
                         const std::vector<JournaledQuery>& live) {
  const auto image = engine.SnapshotState();
  EXPECT_TRUE(image.ok()) << image.status();
  if (!image.ok()) return "";
  JournalSnapshot snapshot;
  snapshot.last_cycle_ts = image->last_cycle;
  snapshot.window = image->window;
  snapshot.next_record_id = next_id;
  snapshot.next_query_id = kNextQueryId;
  snapshot.live_queries = live;
  std::string body;
  EXPECT_TRUE(EncodeSnapshotBody(snapshot, &body).ok());
  return body;
}

/// "" when equal, else where and how the two byte strings first differ.
std::string FirstDifference(const std::string& got, const std::string& want) {
  std::size_t i = 0;
  while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
  if (i == got.size() && i == want.size()) return "";
  std::ostringstream out;
  out << "first difference at byte " << i << " of " << got.size()
      << " streamed vs " << want.size() << " expected";
  return out.str();
}

/// The streamed anchor, appended behind existing bytes as the writer
/// does, must equal the vector path's body, both for the engine's own
/// SnapshotState() and for BruteForce's window of whole records fed the
/// same stream (TMA and SMA build their image from the same walk, so
/// only the second reference is independent of it).
void ExpectStreamedEqualsVector(const MonitorEngine& engine,
                                const MonitorEngine& truth, RecordId next_id,
                                const std::vector<JournaledQuery>& live,
                                const std::string& when) {
  const std::string want = VectorAnchor(engine, next_id, live);
  const std::string prefix = "prefix";
  std::string got = prefix;
  const Status st = EncodeSnapshotBody(
      SnapshotAnchor{engine, next_id, kNextQueryId, live}, &got);
  ASSERT_TRUE(st.ok()) << when << ": " << st;
  ASSERT_EQ(got.compare(0, prefix.size(), prefix), 0) << when;
  got.erase(0, prefix.size());
  EXPECT_EQ(FirstDifference(got, want), "") << when;
  EXPECT_EQ(FirstDifference(got, VectorAnchor(truth, next_id, live)), "")
      << when << ", against BruteForce";
}

class AnchorStream : public ::testing::TestWithParam<AnchorCase> {};

TEST_P(AnchorStream, StreamedAnchorMatchesSnapshotStateBytes) {
  const AnchorCase& c = GetParam();
  std::unique_ptr<MonitorEngine> engine = MakeEngine(c);
  BruteForceEngine truth(c.dim, GridOptions(c).window);
  const std::vector<QuerySpec> queries =
      MakeRandomQueries(c.dim, 6, 5, /*seed=*/23);
  for (const QuerySpec& q : queries) {
    TOPKMON_ASSERT_OK(engine->RegisterQuery(q));
  }
  const std::vector<JournaledQuery> live = Journaled(queries);
  ExpectStreamedEqualsVector(*engine, truth, 0, live, "before any cycle");

  // Uniform cycles, then a phase with every record in the corner cell
  // (its ring grows while wrapped), then uniform again; then, for a time
  // window, quiet cycles until it is empty at a nonzero last cycle.
  auto gen = MakeGenerator(Distribution::kIndependent, c.dim, /*seed=*/5);
  const Grid* grid = GridOf(*engine);
  int wrapped_seen = 0;
  RecordId next_id = 0;
  Timestamp now = 0;
  for (int cycle = 0; cycle < 120 + kSpan; ++cycle) {
    ++now;
    std::vector<Record> batch;
    if (cycle < 120) {
      const bool corner = cycle >= 40 && cycle < 80;
      const std::size_t n = 15 + static_cast<std::size_t>((cycle * 37) % 53);
      for (std::size_t i = 0; i < n; ++i) {
        Point p = gen->NextPoint();
        if (corner) {
          for (int d = 0; d < c.dim; ++d) p[d] *= 0.2;
        }
        batch.emplace_back(next_id++, p, now);
      }
    }
    TOPKMON_ASSERT_OK(engine->ProcessCycle(now, batch));
    TOPKMON_ASSERT_OK(truth.ProcessCycle(now, batch));
    if (grid != nullptr) wrapped_seen += WrappedCells(*grid);
    ExpectStreamedEqualsVector(*engine, truth, next_id, live,
                               "cycle " + std::to_string(cycle));
    if (HasFatalFailure() || HasNonfatalFailure()) return;
  }
  if (grid != nullptr) {
    EXPECT_GT(wrapped_seen, 0) << "no ring ever wrapped";
  }
  if (c.time_window) {
    EXPECT_EQ(engine->WindowSize(), 0u);
  }
  if (c.kind == Kind::kSnapshotOnly) {
    // Two snapshots per check: one for the walk, one for the reference.
    const auto& decorator = dynamic_cast<const SnapshotOnlyEngine&>(*engine);
    EXPECT_EQ(decorator.snapshots_taken, 2 * (120 + kSpan + 1));
  }
}

std::vector<AnchorCase> AllCases() {
  std::vector<AnchorCase> out;
  for (Kind kind : {Kind::kTma, Kind::kSma, Kind::kBrute, Kind::kTsl,
                    Kind::kSharded, Kind::kSnapshotOnly}) {
    for (bool time_window : {false, true}) {
      for (int dim : {2, 4, 6}) out.push_back({kind, time_window, dim});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Engines, AnchorStream,
                         ::testing::ValuesIn(AllCases()));

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// A whole segment as the vector path writes it: header plus one frame.
std::string VectorSegment(const MonitorEngine& engine, RecordId next_id,
                          const std::vector<JournaledQuery>& live) {
  std::string segment;
  EncodeSegmentHeader(&segment);
  EncodeFrame(VectorAnchor(engine, next_id, live), &segment);
  return segment;
}

TEST(AnchorStreamWriterTest, SegmentsAnchoredOnAnEngineHoldTheVectorBytes) {
  const AnchorCase c{Kind::kTma, false, 2};
  std::unique_ptr<MonitorEngine> engine = MakeEngine(c);
  const std::vector<QuerySpec> queries = MakeRandomQueries(2, 3, 4, 9);
  for (const QuerySpec& q : queries) {
    TOPKMON_ASSERT_OK(engine->RegisterQuery(q));
  }
  const std::vector<JournaledQuery> live = Journaled(queries);
  ScopedTempDir dir;
  JournalOptions options;
  options.dir = dir.path();
  auto writer = CycleJournalWriter::Open(
      options, SnapshotAnchor{*engine, 0, kNextQueryId, live});
  ASSERT_TRUE(writer.ok()) << writer.status();
  const std::string first = (*writer)->current_segment_path();
  EXPECT_EQ(FirstDifference(ReadFile(first), VectorSegment(*engine, 0, live)),
            "");

  RecordSource source(MakeGenerator(Distribution::kIndependent, 2, 3));
  for (Timestamp ts = 1; ts <= 30; ++ts) {
    const std::vector<Record> batch = source.NextBatch(40, ts);
    TOPKMON_ASSERT_OK((*writer)->AppendCycle(ts, batch));
    TOPKMON_ASSERT_OK(engine->ProcessCycle(ts, batch));
  }
  const SnapshotAnchor anchor{*engine, source.next_id(), kNextQueryId, live};
  TOPKMON_ASSERT_OK((*writer)->RotateWithSnapshot(anchor));
  const std::string second = (*writer)->current_segment_path();
  ASSERT_NE(second, first);
  EXPECT_EQ(FirstDifference(ReadFile(second),
                            VectorSegment(*engine, source.next_id(), live)),
            "");
  EXPECT_EQ((*writer)->stats().snapshots_written, 2u);
  TOPKMON_ASSERT_OK((*writer)->Close());
}

/// Supports neither snapshots nor walks.
class OpaqueEngine final : public MonitorEngine {
 public:
  std::string name() const override { return "OPAQUE"; }
  int dim() const override { return 2; }
  Status RegisterQuery(const QuerySpec&) override { return Status::Ok(); }
  Status UnregisterQuery(QueryId) override { return Status::Ok(); }
  Status ProcessCycle(Timestamp, RecordSpan) override { return Status::Ok(); }
  Result<std::vector<ResultEntry>> CurrentResult(QueryId) const override {
    return std::vector<ResultEntry>{};
  }
  void SetDeltaCallback(DeltaCallback) override {}
  std::size_t WindowSize() const override { return 0; }
  const EngineStats& stats() const override { return stats_; }
  MemoryBreakdown Memory() const override { return {}; }

 private:
  EngineStats stats_;
};

TEST(AnchorStreamWriterTest, EngineWithoutSnapshotsAnchorsNothing) {
  OpaqueEngine engine;
  const std::vector<JournaledQuery> live;
  std::string body = "kept";
  EXPECT_EQ(EncodeSnapshotBody(SnapshotAnchor{engine, 0, 1, live}, &body)
                .code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(body, "kept");

  ScopedTempDir dir;
  JournalOptions options;
  options.dir = dir.path();
  auto writer =
      CycleJournalWriter::Open(options, SnapshotAnchor{engine, 0, 1, live});
  EXPECT_EQ(writer.status().code(), StatusCode::kUnimplemented);
  EXPECT_TRUE(dir.Files().empty()) << "a failed anchor leaves no segment";
}

/// Announces one record more than it walks.
class ShortWalkEngine final : public MonitorEngine {
 public:
  explicit ShortWalkEngine(std::unique_ptr<MonitorEngine> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return "SHORT"; }
  int dim() const override { return inner_->dim(); }
  Status RegisterQuery(const QuerySpec&) override { return Status::Ok(); }
  Status UnregisterQuery(QueryId) override { return Status::Ok(); }
  Status ProcessCycle(Timestamp now, RecordSpan arrivals) override {
    return inner_->ProcessCycle(now, arrivals);
  }
  Result<std::vector<ResultEntry>> CurrentResult(QueryId) const override {
    return std::vector<ResultEntry>{};
  }
  void SetDeltaCallback(DeltaCallback) override {}
  std::size_t WindowSize() const override { return inner_->WindowSize(); }
  Status VisitWindow(WindowVisitor& visitor) const override {
    auto image = inner_->SnapshotState();
    if (!image.ok()) return image.status();
    visitor.Begin(image->last_cycle, image->window.size() + 1);
    for (const Record& r : image->window) {
      visitor.Visit(r.id, r.position, r.arrival);
    }
    return Status::Ok();
  }
  const EngineStats& stats() const override { return inner_->stats(); }
  MemoryBreakdown Memory() const override { return inner_->Memory(); }

 private:
  std::unique_ptr<MonitorEngine> inner_;
};

TEST(AnchorStreamWriterTest, WalkShorterThanAnnouncedIsRefused) {
  ShortWalkEngine engine(MakeEngine(AnchorCase{Kind::kBrute, false, 2}));
  RecordSource source(MakeGenerator(Distribution::kIndependent, 2, 8));
  TOPKMON_ASSERT_OK(engine.ProcessCycle(1, source.NextBatch(10, 1)));
  const std::vector<JournaledQuery> live;
  std::string body;
  EXPECT_EQ(EncodeSnapshotBody(SnapshotAnchor{engine, 10, 1, live}, &body)
                .code(),
            StatusCode::kInternal);
  EXPECT_TRUE(body.empty());
}

}  // namespace
}  // namespace topkmon
