// Router failure isolation: a dead partition must not take the cluster
// with it — healthy ingest keeps flowing, scatter operations fail with
// an Unavailable that NAMES the dead endpoint, and a journal-recovered
// partition re-joins with a gap-free merged stream whose final state
// matches single-node ground truth. Also the registration contract of
// docs/CLUSTER.md: batched registration and unregistration across every
// partition.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "cluster/local_cluster.h"
#include "cluster/router.h"
#include "core/brute_force_engine.h"
#include "stream/generators.h"
#include "tests/journal/journal_test_util.h"
#include "tests/net/net_test_util.h"
#include "tests/test_util.h"

namespace topkmon {
namespace {

using ::topkmon::testing::MakeRandomQueries;
using ::topkmon::testing::ScopedTempDir;
using ::topkmon::testing::Scores;

constexpr int kDim = 2;
constexpr std::size_t kPartitions = 3;
constexpr Timestamp kSpan = 100;  // nothing expires inside these tests

LocalClusterOptions BaseOptions() {
  LocalClusterOptions options;
  options.partitions = kPartitions;
  options.engine_factory = [] {
    return std::unique_ptr<MonitorEngine>(
        new BruteForceEngine(kDim, WindowSpec::Time(kSpan)));
  };
  options.service.ingest.slack = 0;
  options.service.drain_wait = std::chrono::milliseconds(2);
  options.service.hub.buffer_capacity = 1 << 14;
  options.net = testing::TestServerOptions();
  return options;
}

/// One record per partition at timestamp `ts` (probing OwnerOf so every
/// partition is fed), scores seeded off `ts` for variety.
std::vector<Record> CoveringBatch(const PartitionMap& map, Timestamp ts,
                                  StreamGenerator& gen) {
  std::vector<Record> batch;
  std::vector<bool> covered(map.partitions(), false);
  std::size_t covered_count = 0;
  for (RecordId id = 0; covered_count < map.partitions(); ++id) {
    if (covered[map.OwnerOf(id)]) continue;
    covered[map.OwnerOf(id)] = true;
    ++covered_count;
    batch.emplace_back(id, gen.NextPoint(), ts);
  }
  return batch;
}

TEST(ClusterFailureTest, DeadPartitionIsIsolatedAndNamed) {
  auto cluster = LocalCluster::Start(BaseOptions());
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  const PartitionMap& map = (*cluster)->map();

  auto router = ClusterRouter::Connect(map, "iso", /*resume=*/false);
  ASSERT_TRUE(router.ok()) << router.status();
  const auto specs = MakeRandomQueries(kDim, 2, 3, 11);
  const auto query = (*router)->Register(specs[0]);
  ASSERT_TRUE(query.ok()) << query.status();

  auto gen = MakeGenerator(Distribution::kIndependent, kDim, 900);
  const auto warm = (*router)->Ingest(CoveringBatch(map, 1, *gen));
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_EQ(warm->rejected, 0u) << warm->first_error;
  TOPKMON_ASSERT_OK((*cluster)->FlushAll());

  // Kill partition 1. The router still holds a connection to it, so the
  // first call discovers the death as a transport error.
  TOPKMON_ASSERT_OK((*cluster)->StopPartition(1));

  // Ingest: the healthy partitions' tuples flow, partition 1's are
  // rejected with an error naming the endpoint.
  const std::vector<Record> batch2 = CoveringBatch(map, 2, *gen);
  std::size_t owned_by_dead = 0;
  for (const Record& r : batch2) {
    if (map.OwnerOf(r.id) == 1) ++owned_by_dead;
  }
  ASSERT_GT(owned_by_dead, 0u);
  const auto report = (*router)->Ingest(batch2);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->accepted, batch2.size() - owned_by_dead);
  EXPECT_EQ(report->rejected, owned_by_dead);
  EXPECT_EQ(report->first_error.code(), StatusCode::kUnavailable)
      << report->first_error;
  EXPECT_NE(report->first_error.message().find(map.Describe(1)),
            std::string::npos)
      << "error does not name the endpoint: " << report->first_error;
  EXPECT_FALSE((*router)->partition_up(1));

  // Later ingests keep flowing to the healthy partitions with no
  // transport stalls (the dead partition is skipped outright).
  const auto report2 = (*router)->Ingest(CoveringBatch(map, 3, *gen));
  ASSERT_TRUE(report2.ok()) << report2.status();
  EXPECT_EQ(report2->accepted,
            CoveringBatch(map, 3, *gen).size() - owned_by_dead);
  EXPECT_EQ(report2->first_error.code(), StatusCode::kUnavailable);

  // Scatter operations on the dead partition: clear Unavailable naming
  // the endpoint, and the partial registration is rolled back.
  const auto refused = (*router)->Register(specs[1]);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(refused.status().message().find(map.Describe(1)),
            std::string::npos)
      << refused.status();

  const auto read = (*router)->CurrentResult(*query);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(read.status().message().find(map.Describe(1)),
            std::string::npos)
      << read.status();

  const Status unreg = (*router)->Unregister(*query);
  EXPECT_EQ(unreg.code(), StatusCode::kUnavailable);
  EXPECT_NE(unreg.message().find(map.Describe(1)), std::string::npos)
      << unreg;

  // Polling stays healthy: the merged frontier just stops advancing
  // past the dead partition's last answer.
  const auto events =
      (*router)->PollDeltas(256, std::chrono::milliseconds(20));
  ASSERT_TRUE(events.ok()) << events.status();

  (void)(*router)->Close();
  (*cluster)->Stop();
}

TEST(ClusterFailureTest, RecoveredPartitionResumesGapFreeAndConverges) {
  ScopedTempDir journal_root;
  LocalClusterOptions options = BaseOptions();
  options.service.journal.dir = journal_root.path();
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  const PartitionMap& map = (*cluster)->map();

  // Capture per-partition cycles for the ground-truth replay; the
  // observer must be re-installed after the restart.
  std::mutex capture_mu;
  std::vector<std::vector<std::pair<Timestamp, std::vector<Record>>>>
      captured(kPartitions);
  auto install_observer = [&](std::size_t p) {
    (*cluster)->service(p)->SetCycleObserver(
        [&capture_mu, &captured, p](Timestamp ts, RecordSpan batch) {
          std::lock_guard<std::mutex> lock(capture_mu);
          captured[p].emplace_back(
              ts, std::vector<Record>(batch.begin(), batch.end()));
        });
  };
  for (std::size_t p = 0; p < kPartitions; ++p) install_observer(p);

  auto router = ClusterRouter::Connect(map, "recov", /*resume=*/false);
  ASSERT_TRUE(router.ok()) << router.status();
  const auto specs = MakeRandomQueries(kDim, 1, 4, 33);
  const auto query = (*router)->Register(specs[0]);
  ASSERT_TRUE(query.ok()) << query.status();

  auto gen = MakeGenerator(Distribution::kIndependent, kDim, 901);
  std::vector<DeltaEvent> merged;
  auto pump = [&] {
    const auto events =
        (*router)->PollDeltas(256, std::chrono::milliseconds(20));
    ASSERT_TRUE(events.ok()) << events.status();
    merged.insert(merged.end(), events->begin(), events->end());
  };

  for (Timestamp ts = 1; ts <= 4; ++ts) {
    const auto report = (*router)->Ingest(CoveringBatch(map, ts, *gen));
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_EQ(report->rejected, 0u) << report->first_error;
    TOPKMON_ASSERT_OK((*cluster)->FlushAll());
    pump();
  }

  // Crash partition 2, recover it from its journal, reconnect. The
  // recovered session keeps its label, so the router resumes it; the
  // recovered hub starts a fresh delta sequence, which the multiplexer
  // detects and absorbs as a re-baseline.
  TOPKMON_ASSERT_OK((*cluster)->StopPartition(2));
  TOPKMON_ASSERT_OK((*cluster)->RestartPartition(2));
  install_observer(2);
  TOPKMON_ASSERT_OK((*router)->Reconnect(2));
  EXPECT_TRUE((*router)->resumed(2))
      << "recovery did not preserve the session label";

  for (Timestamp ts = 5; ts <= 8; ++ts) {
    const auto report = (*router)->Ingest(CoveringBatch(map, ts, *gen));
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_EQ(report->rejected, 0u) << report->first_error;
    TOPKMON_ASSERT_OK((*cluster)->FlushAll());
    pump();
  }
  pump();
  pump();
  auto final_events = (*router)->FinalizeDeltas();
  merged.insert(merged.end(), final_events.begin(), final_events.end());

  // The MERGED stream is gap-free across the crash (per-partition
  // sequences restarted, the router's did not), and the restart was
  // observed.
  std::uint64_t expected_seq = 1;
  for (const DeltaEvent& e : merged) EXPECT_EQ(e.seq, expected_seq++);
  EXPECT_GE((*router)->partition_restarts(), 1u);

  // Final convergence: the delta-built view, the scatter-gather
  // snapshot, and an uninterrupted single-node replay all agree.
  // (Cycle-exactness across the crash is NOT promised — events the dead
  // partition published between the last poll and the crash are gone —
  // the guarantee is the re-baselined stream converging to truth.)
  std::map<RecordId, double> view;
  for (const DeltaEvent& e : merged) {
    for (const ResultEntry& r : e.delta.removed) view.erase(r.id);
    for (const ResultEntry& r : e.delta.added) view.emplace(r.id, r.score);
  }
  std::vector<double> view_scores;
  for (const auto& [id, score] : view) view_scores.push_back(score);
  std::sort(view_scores.begin(), view_scores.end(), std::greater<>());

  const auto snapshot = (*router)->CurrentResult(*query);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();

  BruteForceEngine brute(kDim, WindowSpec::Time(kSpan));
  QuerySpec spec = specs[0];
  spec.id = *query;
  TOPKMON_ASSERT_OK(brute.RegisterQuery(spec));
  {
    std::lock_guard<std::mutex> lock(capture_mu);
    RecordId next_id = 0;
    for (Timestamp ts = 1; ts <= 8; ++ts) {
      std::vector<Record> batch;
      for (std::size_t p = 0; p < kPartitions; ++p) {
        for (const auto& [cts, cbatch] : captured[p]) {
          if (cts != ts) continue;
          for (const Record& r : cbatch) {
            batch.emplace_back(next_id++, r.position, r.arrival);
          }
        }
      }
      ASSERT_FALSE(batch.empty()) << "no partition cycled at ts " << ts;
      TOPKMON_ASSERT_OK(brute.ProcessCycle(ts, batch));
    }
  }
  const auto want = brute.CurrentResult(*query);
  ASSERT_TRUE(want.ok()) << want.status();
  EXPECT_EQ(Scores(*snapshot), Scores(*want));
  EXPECT_EQ(view_scores, Scores(*want))
      << "the re-baselined delta stream did not converge to truth";

  (void)(*router)->Close();
  (*cluster)->Stop();
}

TEST(ClusterRouterRegistrationTest, RegisterBatchThenUnregisterEverywhere) {
  auto cluster = LocalCluster::Start(BaseOptions());
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  const PartitionMap& map = (*cluster)->map();
  auto router = ClusterRouter::Connect(map, "reg", /*resume=*/false);
  ASSERT_TRUE(router.ok()) << router.status();

  auto gen = MakeGenerator(Distribution::kIndependent, kDim, 905);
  auto ingest = [&](Timestamp ts) {
    const auto report = (*router)->Ingest(CoveringBatch(map, ts, *gen));
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_EQ(report->rejected, 0u) << report->first_error;
    TOPKMON_ASSERT_OK((*cluster)->FlushAll());
  };
  std::map<QueryId, std::size_t> deltas;  // merged events per query
  auto pump = [&] {
    for (int i = 0; i < 3; ++i) {
      const auto events =
          (*router)->PollDeltas(256, std::chrono::milliseconds(20));
      ASSERT_TRUE(events.ok()) << events.status();
      for (const DeltaEvent& e : *events) ++deltas[e.delta.query];
    }
  };
  // Records first, so every initial result is non-empty.
  for (Timestamp ts = 1; ts <= 3; ++ts) ingest(ts);

  const auto specs = MakeRandomQueries(kDim, 3, 2, 71);
  const auto outcomes = (*router)->RegisterBatch(specs);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status();
  ASSERT_EQ(outcomes->size(), 3u);
  std::set<QueryId> ids;
  for (const RegisterOutcome& o : *outcomes) {
    EXPECT_EQ(o.code, StatusCode::kOk) << o.message;
    ids.insert(o.query);
  }
  EXPECT_EQ(ids.size(), 3u) << "global ids must be distinct";
  ingest(4);  // moves every partition's frontier past the registrations
  pump();
  for (const QueryId id : ids) {
    EXPECT_GT(deltas[id], 0u) << "no merged initial result for " << id;
    const auto result = (*router)->CurrentResult(id);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->size(), 2u);
  }

  const QueryId gone = (*outcomes)[1].query;
  TOPKMON_ASSERT_OK((*router)->Unregister(gone));
  EXPECT_EQ((*router)->CurrentResult(gone).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ((*router)->Unregister(gone).code(), StatusCode::kNotFound);
  deltas.clear();
  for (Timestamp ts = 5; ts <= 8; ++ts) ingest(ts);
  pump();
  EXPECT_EQ(deltas.count(gone), 0u) << "a delta still carries its id";
  for (const QueryId id : ids) {
    if (id != gone) TOPKMON_EXPECT_OK((*router)->CurrentResult(id).status());
  }

  // A stopped partition fails the scatter with an error naming it.
  TOPKMON_ASSERT_OK((*cluster)->StopPartition(1));
  const Status unreg = (*router)->Unregister((*outcomes)[0].query);
  EXPECT_EQ(unreg.code(), StatusCode::kUnavailable) << unreg;
  EXPECT_NE(unreg.message().find(map.Describe(1)), std::string::npos)
      << unreg;

  (void)(*router)->Close();
  (*cluster)->Stop();
}

}  // namespace
}  // namespace topkmon
