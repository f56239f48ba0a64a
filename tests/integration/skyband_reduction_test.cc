// Section 3.1's reduction: freeze the stream and let the window drain.
// The set of records that appear in at least one of the remaining top-k
// results must equal the k-skyband of the valid records in (score,
// expiration-time) space (Figure 2).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/brute_force_engine.h"
#include "core/skyband.h"
#include "core/sma_engine.h"
#include "tests/test_util.h"

namespace topkmon {
namespace {

class SkybandReduction : public ::testing::TestWithParam<int> {};

TEST_P(SkybandReduction, FutureResultUnionEqualsSkyband) {
  const int k = GetParam();
  const int dim = 2;
  const std::size_t n = 200;
  // Build a window of n records, freeze arrivals, and replay expirations
  // through a time-based window (one record expires per tick).
  RecordSource source(MakeGenerator(Distribution::kIndependent, dim, 71));
  std::vector<Record> records;
  for (std::size_t i = 0; i < n; ++i) {
    records.push_back(source.Next(static_cast<Timestamp>(i)));
  }
  QuerySpec q;
  q.id = 1;
  q.k = k;
  q.function = std::make_shared<LinearFunction>(std::vector<double>{1.0, 2.0});

  // (a) Oracle: k-skyband in (score, expiry) space. Expiry order == id.
  std::vector<ResultEntry> scored;
  for (const Record& r : records) {
    scored.push_back({r.id, q.function->Score(r.position)});
  }
  std::vector<RecordId> skyband_ids = BruteForceSkyband(scored, k);
  std::sort(skyband_ids.begin(), skyband_ids.end());

  // (b) Replay: drain the window one record per tick, collecting every id
  // that ever appears in the result.
  BruteForceEngine engine(dim, WindowSpec::Time(static_cast<Timestamp>(n)));
  Timestamp now = 0;
  for (const Record& r : records) {
    const std::vector<Record> arrival = {r};
    TOPKMON_ASSERT_OK(engine.ProcessCycle(r.arrival, arrival));
    now = r.arrival;
  }
  TOPKMON_ASSERT_OK(engine.RegisterQuery(q));
  std::set<RecordId> appeared;
  while (engine.WindowSize() > 0) {
    const auto result = engine.CurrentResult(1);
    ASSERT_TRUE(result.ok());
    for (const ResultEntry& e : *result) appeared.insert(e.id);
    ++now;
    TOPKMON_ASSERT_OK(engine.ProcessCycle(now, {}));
  }

  // With continuous scores ties have probability zero, so the equality is
  // exact: every record that ever appears is a skyband member and vice
  // versa.
  const std::vector<RecordId> appeared_vec(appeared.begin(), appeared.end());
  EXPECT_EQ(appeared_vec, skyband_ids) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(KSweep, SkybandReduction,
                         ::testing::Values(1, 2, 3, 5, 10, 25));

// The same reduction drives SMA: with no further arrivals, SMA keeps
// answering from its skyband and never recomputes while it holds >= k
// entries.
TEST(SkybandReductionTest, SmaDrainsWithoutRecomputeWhileSkybandLasts) {
  const int dim = 2;
  const int k = 3;
  GridEngineOptions opt;
  opt.dim = dim;
  opt.window = WindowSpec::Time(300);
  opt.cell_budget = 256;
  SmaEngine sma(opt);
  BruteForceEngine brute(dim, opt.window);
  RecordSource source(MakeGenerator(Distribution::kIndependent, dim, 13));
  Timestamp now = 0;
  for (int c = 0; c < 10; ++c) {
    ++now;
    const auto batch = source.NextBatch(20, now);
    TOPKMON_ASSERT_OK(sma.ProcessCycle(now, batch));
    TOPKMON_ASSERT_OK(brute.ProcessCycle(now, batch));
  }
  QuerySpec q;
  q.id = 1;
  q.k = k;
  q.function = std::make_shared<LinearFunction>(std::vector<double>{0.8, 0.6});
  TOPKMON_ASSERT_OK(sma.RegisterQuery(q));
  TOPKMON_ASSERT_OK(brute.RegisterQuery(q));
  // Drain with empty cycles; results must track the shrinking window.
  // (Recomputations are allowed only when the skyband itself drains below
  // k, which with an initial skyband of exactly k happens as soon as one
  // member expires without arrivals to replace it — so we only check
  // agreement here, plus that SMA's answers use the skyband prefix.)
  while (brute.WindowSize() > 0) {
    now += 30;  // expire a chunk per cycle (time-based window of 300)
    TOPKMON_ASSERT_OK(sma.ProcessCycle(now, {}));
    TOPKMON_ASSERT_OK(brute.ProcessCycle(now, {}));
    const auto want = brute.CurrentResult(1);
    const auto got = sma.CurrentResult(1);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(testing::Scores(*got), testing::Scores(*want));
  }
}

}  // namespace
}  // namespace topkmon
