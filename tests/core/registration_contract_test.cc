// The registration contract of the engines built on the shared query
// table (core/query_table.h): TMA, SMA and TSL, each on its own and
// wrapped in a two-shard ShardedEngine. One table of engines, one set of
// checks: reserved ids, duplicate ids across monotone and piecewise
// specs, unsupported functions, non-monotone pieces and internal ids.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/piecewise.h"
#include "core/sharded_engine.h"
#include "core/sma_engine.h"
#include "core/tma_engine.h"
#include "stream/generators.h"
#include "tests/test_util.h"
#include "tsl/tsl_engine.h"

namespace topkmon {
namespace {

/// f(p) = -(x1 - 0.5)^2 - (x2 - 0.5)^2: neither monotone nor piecewise.
class BumpFunction final : public ScoringFunction {
 public:
  int dim() const override { return 2; }
  double Score(const Point& p) const override {
    return -(p[0] - 0.5) * (p[0] - 0.5) - (p[1] - 0.5) * (p[1] - 0.5);
  }
  Monotonicity direction(int) const override {
    return Monotonicity::kIncreasing;
  }
  bool IsMonotone() const override { return false; }
  std::string ToString() const override { return "bump(x1, x2)"; }
};

struct EngineCase {
  std::string label;
  /// The name the engine's refusals carry (the inner engine's, sharded).
  std::string refuser;
  std::function<std::unique_ptr<MonitorEngine>()> make;
};

std::unique_ptr<MonitorEngine> MakeTma() {
  GridEngineOptions opt;
  opt.dim = 2;
  opt.window = WindowSpec::Count(100);
  opt.cell_budget = 64;
  return std::make_unique<TmaEngine>(opt);
}

std::unique_ptr<MonitorEngine> MakeSma() {
  GridEngineOptions opt;
  opt.dim = 2;
  opt.window = WindowSpec::Count(100);
  opt.cell_budget = 64;
  return std::make_unique<SmaEngine>(opt);
}

std::unique_ptr<MonitorEngine> MakeTsl() {
  TslOptions opt;
  opt.dim = 2;
  opt.window = WindowSpec::Count(100);
  return std::make_unique<TslEngine>(opt);
}

std::vector<EngineCase> Engines() {
  std::vector<EngineCase> cases = {
      {"TMA", "TMA", MakeTma},
      {"SMA", "SMA", MakeSma},
      {"TSL", "TSL", MakeTsl}};
  const std::size_t plain = cases.size();
  for (std::size_t i = 0; i < plain; ++i) {
    const auto inner = cases[i].make;
    cases.push_back({"SHARDED/" + cases[i].label, cases[i].refuser, [inner] {
                       return std::unique_ptr<MonitorEngine>(
                           new ShardedEngine(2, inner));
                     }});
  }
  return cases;
}

QuerySpec MonotoneSpec(QueryId id) {
  QuerySpec spec;
  spec.id = id;
  spec.k = 3;
  spec.function = std::make_shared<LinearFunction>(std::vector<double>{1, 2});
  return spec;
}

/// The ridge x2 - |x1 - 0.5| as two monotone pieces; `left` replaces the
/// function of the left piece when given.
QuerySpec PiecewiseSpec(QueryId id,
                        std::shared_ptr<const ScoringFunction> left = nullptr) {
  if (left == nullptr) {
    left = std::make_shared<LinearFunction>(std::vector<double>{1, 1}, -0.5);
  }
  std::vector<MonotonePiece> pieces;
  pieces.push_back(MonotonePiece{Rect(Point{0.0, 0.0}, Point{0.5, 1.0}),
                                 std::move(left)});
  pieces.push_back(MonotonePiece{
      Rect(Point{0.5, 0.0}, Point{1.0, 1.0}),
      std::make_shared<LinearFunction>(std::vector<double>{-1, 1}, 0.5)});
  auto fn = PiecewiseFunction::Create(std::move(pieces));
  EXPECT_TRUE(fn.ok()) << fn.status();
  QuerySpec spec;
  spec.id = id;
  spec.k = 3;
  if (fn.ok()) spec.function = *fn;
  return spec;
}

TEST(RegistrationContractTest, EveryTableEngineKeepsTheContract) {
  for (const EngineCase& c : Engines()) {
    SCOPED_TRACE(c.label);
    std::unique_ptr<MonitorEngine> engine = c.make();
    RecordSource source(MakeGenerator(Distribution::kIndependent, 2, 5));
    TOPKMON_ASSERT_OK(engine->ProcessCycle(1, source.NextBatch(40, 1)));

    // An id in the reserved range.
    EXPECT_EQ(engine->RegisterQuery(MonotoneSpec(kInternalQueryIdBase)).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(
        engine->RegisterQuery(MonotoneSpec(kInternalQueryIdBase + 7)).code(),
        StatusCode::kInvalidArgument);

    // One id space for monotone queries and piecewise parents.
    TOPKMON_ASSERT_OK(engine->RegisterQuery(PiecewiseSpec(1)));
    EXPECT_EQ(engine->RegisterQuery(MonotoneSpec(1)).code(),
              StatusCode::kAlreadyExists);
    TOPKMON_ASSERT_OK(engine->RegisterQuery(MonotoneSpec(2)));
    EXPECT_EQ(engine->RegisterQuery(PiecewiseSpec(2)).code(),
              StatusCode::kAlreadyExists);
    EXPECT_EQ(engine->RegisterQuery(PiecewiseSpec(1)).code(),
              StatusCode::kAlreadyExists);

    // A function that is neither monotone nor piecewise.
    QuerySpec bump = MonotoneSpec(3);
    bump.function = std::make_shared<BumpFunction>();
    const Status unsupported = engine->RegisterQuery(bump);
    EXPECT_EQ(unsupported.code(), StatusCode::kUnimplemented);
    EXPECT_EQ(unsupported.message().find(c.refuser + " requires"), 0u)
        << unsupported;
    EXPECT_NE(unsupported.message().find("bump(x1, x2)"), std::string::npos)
        << unsupported;

    // A piecewise function with a non-monotone piece; the id stays free.
    const Status bad_piece = engine->RegisterQuery(
        PiecewiseSpec(4, std::make_shared<BumpFunction>()));
    EXPECT_EQ(bad_piece.code(), StatusCode::kInvalidArgument) << bad_piece;
    EXPECT_EQ(engine->CurrentResult(4).status().code(), StatusCode::kNotFound);
    TOPKMON_EXPECT_OK(engine->RegisterQuery(MonotoneSpec(4)));

    // Internal ids are invisible: the sub-queries of parent 1 exist, but
    // neither their results nor their unregistration are reachable.
    for (QueryId internal : {kInternalQueryIdBase, kInternalQueryIdBase + 1}) {
      EXPECT_EQ(engine->CurrentResult(internal).status().code(),
                StatusCode::kNotFound);
      EXPECT_EQ(engine->UnregisterQuery(internal).code(),
                StatusCode::kNotFound);
    }
    TOPKMON_ASSERT_OK(engine->ProcessCycle(2, source.NextBatch(40, 2)));
    const auto merged = engine->CurrentResult(1);
    ASSERT_TRUE(merged.ok()) << merged.status();
    EXPECT_EQ(merged->size(), 3u);

    // A parent takes its sub-queries with it; its id is free again.
    TOPKMON_EXPECT_OK(engine->UnregisterQuery(1));
    EXPECT_EQ(engine->UnregisterQuery(1).code(), StatusCode::kNotFound);
    TOPKMON_EXPECT_OK(engine->RegisterQuery(MonotoneSpec(1)));
    EXPECT_EQ(engine->UnregisterQuery(99).code(), StatusCode::kNotFound);
  }
}

}  // namespace
}  // namespace topkmon
