// Query-id reuse across unregister and register.
//
// A query's first computation appends its id to the influence lists of the
// processed cells without looking for it and skips the stale-entry walk:
// a new id is in no list. Unregistering must therefore remove every entry,
// or a reused id would be listed twice in a cell (a Debug assert stops
// that in the sanitizer build) and score each arrival there twice. These
// tests register a query, run cycles, unregister it and register the same
// id again, for constrained, mixed-monotonicity and piecewise queries,
// checking the influence-list volume after every unregister and the
// results against BruteForce after every cycle.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "core/brute_force_engine.h"
#include "core/piecewise.h"
#include "core/query.h"
#include "core/sma_engine.h"
#include "core/tma_engine.h"
#include "core/update_stream_engine.h"
#include "tests/test_util.h"

namespace topkmon {
namespace {

constexpr int kDim = 2;
constexpr QueryId kReusedId = 42;

GridEngineOptions Options() {
  GridEngineOptions opt;
  opt.dim = kDim;
  opt.window = WindowSpec::Count(300);
  opt.cells_per_axis = 10;
  return opt;
}

QuerySpec Linear(QueryId id, int k, std::vector<double> w) {
  QuerySpec spec;
  spec.id = id;
  spec.k = k;
  spec.function = std::make_shared<LinearFunction>(std::move(w));
  return spec;
}

QuerySpec Constrained(QueryId id) {
  // Corners on the grid lines of the 10x10 grid.
  QuerySpec spec = Linear(id, 4, {0.3, 0.9});
  spec.constraint = Rect(Point{0.2, 0.3}, Point{0.7, 0.8});
  return spec;
}

QuerySpec Mixed(QueryId id) { return Linear(id, 5, {0.7, -0.4}); }

QuerySpec ConstrainedMixed(QueryId id) {
  QuerySpec spec = Linear(id, 3, {-0.6, 0.5});
  spec.constraint = Rect(Point{0.1, 0.0}, Point{0.55, 0.6});
  return spec;
}

QuerySpec Piecewise(QueryId id) {
  // The ridge f(p) = x2 - |x1 - 0.5| as two monotone pieces.
  std::vector<MonotonePiece> pieces;
  pieces.push_back(MonotonePiece{
      Rect(Point{0.0, 0.0}, Point{0.5, 1.0}),
      std::make_shared<LinearFunction>(std::vector<double>{1.0, 1.0},
                                       -0.5)});
  pieces.push_back(MonotonePiece{
      Rect(Point{0.5, 0.0}, Point{1.0, 1.0}),
      std::make_shared<LinearFunction>(std::vector<double>{-1.0, 1.0},
                                       0.5)});
  auto fn = PiecewiseFunction::Create(std::move(pieces));
  EXPECT_TRUE(fn.ok());
  QuerySpec spec;
  spec.id = id;
  spec.k = 4;
  spec.function = *fn;
  return spec;
}

// Influence entries of `id` and of the engine-internal sub-queries a
// piecewise `id` is split into (the other queries here are monotone).
std::size_t EntriesOf(const Grid& grid, QueryId id) {
  std::size_t n = 0;
  for (CellIndex cell = 0; cell < grid.num_cells(); ++cell) {
    for (QueryId q : grid.InfluenceList(cell)) {
      n += q == id || IsInternalQueryId(q) ? 1 : 0;
    }
  }
  return n;
}

template <typename Engine>
void RunReuseRounds(const std::vector<QuerySpec (*)(QueryId)>& makers,
                    bool background, std::uint64_t seed) {
  Engine engine(Options());
  BruteForceEngine brute(kDim, Options().window);
  std::vector<MonitorEngine*> both = {&engine, &brute};
  const std::vector<QuerySpec> others =
      background ? testing::MakeRandomQueries(kDim, 6, 5, seed)
                 : std::vector<QuerySpec>{};
  for (const QuerySpec& q : others) {
    for (MonitorEngine* e : both) TOPKMON_ASSERT_OK(e->RegisterQuery(q));
  }
  RecordSource source(MakeGenerator(Distribution::kIndependent, kDim, seed));
  Timestamp now = 0;
  auto cycle = [&] {
    ++now;
    const std::vector<Record> batch = source.NextBatch(30, now);
    for (MonitorEngine* e : both) {
      TOPKMON_ASSERT_OK(e->ProcessCycle(now, batch));
    }
  };
  auto expect_agree = [&](QueryId id) {
    const auto want = brute.CurrentResult(id);
    const auto got = engine.CurrentResult(id);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(testing::Scores(*got), testing::Scores(*want))
        << engine.name() << " query " << id << " t=" << now;
  };
  for (int c = 0; c < 8; ++c) cycle();
  for (int round = 0; round < 3; ++round) {
    for (auto make : makers) {
      const QuerySpec spec = make(kReusedId);
      const std::size_t before = engine.grid().TotalInfluenceEntries();
      for (MonitorEngine* e : both) {
        TOPKMON_ASSERT_OK(e->RegisterQuery(spec));
      }
      expect_agree(kReusedId);
      for (int c = 0; c < 5; ++c) {
        cycle();
        expect_agree(kReusedId);
        for (const QuerySpec& q : others) expect_agree(q.id);
      }
      // Without other queries the volume must return to its value before
      // the registration; with them, their own lists move with the
      // cycles, so the unregister must take away exactly the entries the
      // reused id (or its pieces) held.
      const std::size_t held = engine.grid().TotalInfluenceEntries();
      const std::size_t carried = EntriesOf(engine.grid(), kReusedId);
      for (MonitorEngine* e : both) {
        TOPKMON_ASSERT_OK(e->UnregisterQuery(kReusedId));
      }
      if (!background) {
        EXPECT_EQ(engine.grid().TotalInfluenceEntries(), before)
            << engine.name() << " round " << round;
      } else {
        EXPECT_EQ(engine.grid().TotalInfluenceEntries(), held - carried)
            << engine.name() << " round " << round;
      }
      EXPECT_EQ(EntriesOf(engine.grid(), kReusedId), 0u)
          << engine.name() << " round " << round;
    }
  }
}

const std::vector<QuerySpec (*)(QueryId)> kAllKinds = {
    &Constrained, &Mixed, &ConstrainedMixed, &Piecewise};

TEST(IdReuseTest, TmaReusedIdLeavesNoResidue) {
  RunReuseRounds<TmaEngine>(kAllKinds, /*background=*/false, 3);
  RunReuseRounds<TmaEngine>(kAllKinds, /*background=*/true, 4);
}

TEST(IdReuseTest, SmaReusedIdLeavesNoResidue) {
  RunReuseRounds<SmaEngine>(kAllKinds, /*background=*/false, 5);
  RunReuseRounds<SmaEngine>(kAllKinds, /*background=*/true, 6);
}

// The update-stream engine takes monotone queries only; BruteForce here is
// a rescan of the live records.
TEST(IdReuseTest, UpdateStreamReusedIdLeavesNoResidue) {
  UpdateStreamTmaEngine engine(Options());
  std::map<RecordId, Point> live;
  Rng rng(77);
  RecordId next_id = 0;
  auto batch = [&] {
    std::vector<UpdateOp> ops;
    for (int i = 0; i < 30; ++i) {
      UpdateOp op;
      if (live.size() > 150 && rng.UniformInt(2) == 0) {
        auto it = live.begin();
        std::advance(it, static_cast<long>(rng.UniformInt(live.size())));
        op.kind = UpdateOp::Kind::kDelete;
        op.record.id = it->first;
        live.erase(it);
      } else {
        const Point p{rng.Uniform(), rng.Uniform()};
        op.kind = UpdateOp::Kind::kInsert;
        op.record = Record(next_id, p, 0);
        live.emplace(next_id++, p);
      }
      ops.push_back(op);
    }
    TOPKMON_ASSERT_OK(engine.ProcessBatch(ops));
  };
  auto expect_agree = [&](const QuerySpec& spec) {
    std::vector<double> want;
    for (const auto& [id, p] : live) {
      if (!spec.constraint.has_value() || spec.constraint->Contains(p)) {
        want.push_back(spec.function->Score(p));
      }
    }
    std::sort(want.rbegin(), want.rend());
    want.resize(std::min(want.size(), static_cast<std::size_t>(spec.k)));
    const auto got = engine.CurrentResult(spec.id);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(testing::Scores(*got), want);
  };
  for (int b = 0; b < 8; ++b) batch();
  for (int round = 0; round < 3; ++round) {
    for (auto make : {&Constrained, &Mixed, &ConstrainedMixed}) {
      const QuerySpec spec = make(kReusedId);
      const std::size_t before = engine.grid().TotalInfluenceEntries();
      TOPKMON_ASSERT_OK(engine.RegisterQuery(spec));
      expect_agree(spec);
      for (int b = 0; b < 5; ++b) {
        batch();
        expect_agree(spec);
      }
      TOPKMON_ASSERT_OK(engine.UnregisterQuery(kReusedId));
      EXPECT_EQ(engine.grid().TotalInfluenceEntries(), before)
          << "round " << round;
    }
  }
}

}  // namespace
}  // namespace topkmon
