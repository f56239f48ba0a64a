// Kill/restart recovery through the full service stack: a journaled
// MonitorService is stopped mid-workload, reopened with
// MonitorService::Open, and must come back with its sessions and queries
// intact and its results indistinguishable — cycle-for-cycle against
// BruteForceEngine ground truth fed the exact batches both incarnations
// applied.

#include "service/monitor_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <utility>
#include <vector>

#include "core/brute_force_engine.h"
#include "core/tma_engine.h"
#include "stream/generators.h"
#include "tests/journal/journal_test_util.h"
#include "tests/test_util.h"

namespace topkmon {
namespace {

using ::topkmon::testing::MakeRandomQueries;
using ::topkmon::testing::ScopedTempDir;
using ::topkmon::testing::Scores;

constexpr int kDim = 2;
constexpr std::size_t kWindow = 400;
constexpr std::uint64_t kSnapshotEveryCycles = 5;

std::function<std::unique_ptr<MonitorEngine>()> TmaFactory() {
  return [] {
    GridEngineOptions opt;
    opt.dim = kDim;
    opt.window = WindowSpec::Count(kWindow);
    opt.cell_budget = 256;
    return std::unique_ptr<MonitorEngine>(new TmaEngine(opt));
  };
}

ServiceOptions JournaledOptions(const std::string& dir,
                                bool snapshot_on_shutdown) {
  ServiceOptions opt;
  opt.ingest.slack = 4;
  opt.drain_wait = std::chrono::milliseconds(2);
  opt.hub.buffer_capacity = 1 << 16;
  opt.journal.dir = dir;
  opt.journal.snapshot_on_shutdown = snapshot_on_shutdown;
  // Force mid-stream rotations so the snapshot path is exercised too.
  opt.journal.snapshot_every_cycles = kSnapshotEveryCycles;
  return opt;
}

/// Ingests `count` tuples with timestamps starting at `first_ts`, records
/// every applied (cycle, batch) into *applied, and flushes.
void IngestPhase(MonitorService& service, Timestamp first_ts,
                 std::size_t count, std::uint64_t seed,
                 std::vector<std::pair<Timestamp, std::vector<Record>>>*
                     applied) {
  std::mutex mu;
  service.SetCycleObserver(
      [&mu, applied](Timestamp ts, RecordSpan batch) {
        std::lock_guard<std::mutex> lock(mu);
        applied->emplace_back(
            ts, std::vector<Record>(batch.begin(), batch.end()));
      });
  auto gen = MakeGenerator(Distribution::kIndependent, kDim, seed);
  for (std::size_t i = 0; i < count; ++i) {
    TOPKMON_ASSERT_OK(service.Ingest(
        gen->NextPoint(), first_ts + static_cast<Timestamp>(i)));
  }
  TOPKMON_ASSERT_OK(service.Flush());
  service.SetCycleObserver(nullptr);
}

void RunKillRestartScenario(bool clean_shutdown_snapshot) {
  ScopedTempDir dir;
  const auto specs = MakeRandomQueries(kDim, 4, 5, 4242);
  std::vector<QuerySpec> registered;  // with service-assigned ids
  std::vector<std::pair<Timestamp, std::vector<Record>>> applied;

  // ---- incarnation 1: first boot on an empty journal dir --------------
  {
    auto service = MonitorService::Open(
        TmaFactory(), JournaledOptions(dir.path(), clean_shutdown_snapshot));
    ASSERT_TRUE(service.ok()) << service.status();
    EXPECT_FALSE((*service)->recovery().recovered) << "first boot";
    const SessionId alice = *(*service)->OpenSession("alice");
    const SessionId bob = *(*service)->OpenSession("bob");
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto id =
          (*service)->Register(i % 2 == 0 ? alice : bob, specs[i]);
      ASSERT_TRUE(id.ok()) << id.status();
      QuerySpec spec = specs[i];
      spec.id = *id;
      registered.push_back(std::move(spec));
    }
    IngestPhase(**service, 1, 500, 11, &applied);
    // Drain timing decides how many cycles those records took. If the
    // last one completed a snapshot interval, the journal ends on a fresh
    // snapshot with no cycle after it; one more single-record cycle leaves
    // a tail for the restart to replay.
    if (applied.size() % kSnapshotEveryCycles == 0) {
      IngestPhase(**service, 501, 1, 13, &applied);
      ASSERT_NE(applied.size() % kSnapshotEveryCycles, 0u);
    }
    TOPKMON_ASSERT_OK((*service)->journal_status());
    (*service)->Shutdown();  // kill point (dtor would do the same)
  }

  // ---- incarnation 2: recover and continue ----------------------------
  auto service = MonitorService::Open(
      TmaFactory(), JournaledOptions(dir.path(), clean_shutdown_snapshot));
  ASSERT_TRUE(service.ok()) << service.status();
  const RecoveryReport& report = (*service)->recovery();
  EXPECT_TRUE(report.recovered);
  EXPECT_FALSE(report.torn_tail);
  EXPECT_FALSE(report.corrupt_record);
  ASSERT_EQ(report.live_queries.size(), registered.size());
  if (clean_shutdown_snapshot) {
    EXPECT_EQ(report.cycles_replayed, 0u)
        << "a clean shutdown snapshot replays nothing";
  } else {
    EXPECT_GT(report.cycles_replayed, 0u);
  }

  // Sessions came back under their labels, owning their queries.
  const auto alice = (*service)->FindSession("alice");
  const auto bob = (*service)->FindSession("bob");
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());
  EXPECT_EQ((*service)->stats().open_sessions, 2u);
  EXPECT_EQ((*service)->stats().active_queries, registered.size());

  // Continue the stream in the new incarnation.
  IngestPhase(**service, 502, 500, 12, &applied);

  // New registrations must not collide with recovered query ids.
  const auto fresh = (*service)->Register(*alice, specs[0]);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  for (const QuerySpec& spec : registered) EXPECT_GT(*fresh, spec.id);

  // ---- ground truth: one uninterrupted run over the applied batches ---
  BruteForceEngine truth(kDim, WindowSpec::Count(kWindow));
  for (const QuerySpec& spec : registered) {
    TOPKMON_ASSERT_OK(truth.RegisterQuery(spec));
  }
  for (const auto& [ts, batch] : applied) {
    TOPKMON_ASSERT_OK(truth.ProcessCycle(ts, batch));
  }
  for (const QuerySpec& spec : registered) {
    const auto got = (*service)->CurrentResult(spec.id);
    const auto want = truth.CurrentResult(spec.id);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(Scores(*got), Scores(*want)) << "query " << spec.id;
  }

  // Sequence-numbered deltas: each recovered session's stream is gap-free
  // and reconstructs exactly the final snapshot of each of its queries.
  for (const SessionId session : {*alice, *bob}) {
    EXPECT_EQ((*service)->DroppedDeltas(session), 0u);
    std::vector<DeltaEvent> events;
    (*service)->PollDeltas(session, std::size_t(-1), &events);
    ASSERT_FALSE(events.empty());
    std::uint64_t expected_seq = 1;
    std::map<QueryId, std::map<RecordId, double>> views;
    for (const DeltaEvent& e : events) {
      EXPECT_EQ(e.seq, expected_seq++) << "sequence gap without drops";
      auto& view = views[e.delta.query];
      for (const ResultEntry& r : e.delta.removed) view.erase(r.id);
      for (const ResultEntry& r : e.delta.added) view.emplace(r.id, r.score);
    }
    for (auto& [query, view] : views) {
      const auto snapshot = (*service)->CurrentResult(query);
      ASSERT_TRUE(snapshot.ok());
      std::vector<double> snapshot_scores = Scores(*snapshot);
      std::sort(snapshot_scores.begin(), snapshot_scores.end());
      std::vector<double> view_scores;
      for (const auto& [id, score] : view) {
        (void)id;
        view_scores.push_back(score);
      }
      std::sort(view_scores.begin(), view_scores.end());
      EXPECT_EQ(view_scores, snapshot_scores) << "query " << query;
    }
  }
  (*service)->Shutdown();
}

TEST(MonitorServiceRecoveryTest, CleanRestartRecoversFromShutdownSnapshot) {
  RunKillRestartScenario(/*clean_shutdown_snapshot=*/true);
}

TEST(MonitorServiceRecoveryTest, KillRestartReplaysTheCycleJournal) {
  RunKillRestartScenario(/*clean_shutdown_snapshot=*/false);
}

TEST(MonitorServiceRecoveryTest, OpenOnEmptyDirIsAFirstBoot) {
  ScopedTempDir dir;
  auto service =
      MonitorService::Open(TmaFactory(), JournaledOptions(dir.path(), true));
  ASSERT_TRUE(service.ok()) << service.status();
  EXPECT_FALSE((*service)->recovery().recovered);
  const SessionId session = *(*service)->OpenSession("c");
  const auto specs = MakeRandomQueries(kDim, 1, 3, 9);
  ASSERT_TRUE((*service)->Register(session, specs[0]).ok());
  TOPKMON_ASSERT_OK((*service)->Ingest(Point{0.4, 0.6}, 1));
  TOPKMON_ASSERT_OK((*service)->Flush());
  EXPECT_GT((*service)->stats().journal_records, 0u);
}

TEST(MonitorServiceRecoveryTest, OpenRequiresAJournalDir) {
  ServiceOptions opt;
  auto service = MonitorService::Open(TmaFactory(), opt);
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
}

TEST(MonitorServiceRecoveryTest,
     PlainConstructorRefusesADirectoryWithHistory) {
  ScopedTempDir dir;
  {
    auto service = MonitorService::Open(TmaFactory(),
                                        JournaledOptions(dir.path(), true));
    ASSERT_TRUE(service.ok());
    (*service)->Shutdown();
  }
  ServiceOptions opt = JournaledOptions(dir.path(), true);
  MonitorService service(TmaFactory()(), opt);
  // The service still runs, but journaling is off and the fault is
  // visible rather than silently clobbering the previous journal.
  EXPECT_FALSE(service.journal_status().ok());
  EXPECT_GE(service.stats().journal_failures, 1u);
  TOPKMON_ASSERT_OK(service.Ingest(Point{0.1, 0.2}, 1));
  TOPKMON_ASSERT_OK(service.Flush());
}

/// One query's result change as a comparable value: ids with scores,
/// each side sorted by id.
struct Change {
  Timestamp when = 0;
  std::vector<std::pair<RecordId, double>> added;
  std::vector<std::pair<RecordId, double>> removed;

  bool operator==(const Change& o) const {
    return when == o.when && added == o.added && removed == o.removed;
  }
};

std::ostream& operator<<(std::ostream& os, const Change& c) {
  os << "{when=" << c.when << " +" << c.added.size() << " -"
     << c.removed.size() << "}";
  return os;
}

Change ToChange(const ResultDelta& delta) {
  Change c;
  c.when = delta.when;
  for (const ResultEntry& e : delta.added) c.added.emplace_back(e.id, e.score);
  for (const ResultEntry& e : delta.removed) {
    c.removed.emplace_back(e.id, e.score);
  }
  std::sort(c.added.begin(), c.added.end());
  std::sort(c.removed.begin(), c.removed.end());
  return c;
}

TEST(MonitorServiceRecoveryTest, DriverRotatedAnchorsRecoverCycleForCycle) {
  constexpr std::uint64_t kEvery = 3;
  ScopedTempDir dir;
  ServiceOptions options =
      JournaledOptions(dir.path(), /*snapshot_on_shutdown=*/false);
  options.journal.snapshot_every_cycles = kEvery;
  const auto specs = MakeRandomQueries(kDim, 4, 5, 777);
  std::vector<QuerySpec> registered;
  std::vector<std::pair<Timestamp, std::vector<Record>>> applied;

  // ---- incarnation 1: the driver rotates several times ----------------
  {
    auto service = MonitorService::Open(TmaFactory(), options);
    ASSERT_TRUE(service.ok()) << service.status();
    const SessionId alice = *(*service)->OpenSession("alice");
    const SessionId bob = *(*service)->OpenSession("bob");
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto id =
          (*service)->Register(i % 2 == 0 ? alice : bob, specs[i]);
      ASSERT_TRUE(id.ok()) << id.status();
      QuerySpec spec = specs[i];
      spec.id = *id;
      registered.push_back(std::move(spec));
    }
    // Each flushed phase is at least one cycle.
    Timestamp ts = 1;
    for (int phase = 0; phase < 12; ++phase, ts += 60) {
      IngestPhase(**service, ts, 60, 100 + phase, &applied);
    }
    // End on a cycle past the last anchor, so recovery replays a tail.
    if (applied.size() % kEvery == 0) {
      IngestPhase(**service, ts, 1, 99, &applied);
    }
    TOPKMON_ASSERT_OK((*service)->journal_status());
    EXPECT_GE((*service)->stats().journal_snapshots, 3u);
    (*service)->Shutdown();  // kill: no sealing snapshot
  }

  // ---- incarnation 2: recover from the last driver-rotated anchor ----
  auto service = MonitorService::Open(TmaFactory(), options);
  ASSERT_TRUE(service.ok()) << service.status();
  const RecoveryReport& report = (*service)->recovery();
  ASSERT_TRUE(report.recovered);
  EXPECT_FALSE(report.torn_tail);
  EXPECT_FALSE(report.corrupt_record);
  std::uint64_t segment = 0;
  ASSERT_TRUE(ParseSegmentFileName(
      report.segment.substr(report.segment.rfind('/') + 1), &segment));
  EXPECT_GE(segment, 2u) << "recovered from " << report.segment;
  EXPECT_GT(report.cycles_replayed, 0u);
  EXPECT_LT(report.cycles_replayed, kEvery);

  // Ground truth: BruteForce over incarnation 1's batches, then its
  // per-query changes over incarnation 2's. Like the recovered engine,
  // it starts reporting at the recovery point, so each query's first
  // change carries its whole result.
  BruteForceEngine truth(kDim, WindowSpec::Count(kWindow));
  for (const QuerySpec& spec : registered) {
    TOPKMON_ASSERT_OK(truth.RegisterQuery(spec));
  }
  for (const auto& [ts, batch] : applied) {
    TOPKMON_ASSERT_OK(truth.ProcessCycle(ts, batch));
  }
  std::map<QueryId, std::vector<Change>> want;
  truth.SetDeltaCallback([&want](const ResultDelta& delta) {
    want[delta.query].push_back(ToChange(delta));
  });
  const std::size_t before = applied.size();
  for (int phase = 0; phase < 6; ++phase) {
    IngestPhase(**service, 2000 + 60 * phase, 60, 300 + phase, &applied);
  }
  for (std::size_t i = before; i < applied.size(); ++i) {
    TOPKMON_ASSERT_OK(truth.ProcessCycle(applied[i].first, applied[i].second));
  }

  std::map<QueryId, std::vector<Change>> got;
  for (const char* label : {"alice", "bob"}) {
    const auto session = (*service)->FindSession(label);
    ASSERT_TRUE(session.ok()) << label;
    EXPECT_EQ((*service)->DroppedDeltas(*session), 0u);
    std::vector<DeltaEvent> events;
    (*service)->PollDeltas(*session, std::size_t(-1), &events);
    std::uint64_t seq = 1;
    for (const DeltaEvent& e : events) {
      EXPECT_EQ(e.seq, seq++) << label;
      got[e.delta.query].push_back(ToChange(e.delta));
    }
  }
  ASSERT_EQ(got.size(), registered.size());
  for (const QuerySpec& spec : registered) {
    const std::vector<Change>& g = got[spec.id];
    const std::vector<Change>& w = want[spec.id];
    ASSERT_EQ(g.size(), w.size()) << "query " << spec.id;
    for (std::size_t i = 0; i < g.size(); ++i) {
      EXPECT_EQ(g[i], w[i]) << "query " << spec.id << ", change " << i;
    }
    const auto result = (*service)->CurrentResult(spec.id);
    const auto truth_result = truth.CurrentResult(spec.id);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(truth_result.ok());
    EXPECT_EQ(Scores(*result), Scores(*truth_result)) << "query " << spec.id;
  }
  (*service)->Shutdown();
}

}  // namespace
}  // namespace topkmon
