// Unattended kill-the-leader acceptance: NOBODY calls Promote(). A
// FailoverAgent rides the follower, notices the leader's silence on its
// own, elects itself (single-standby group), bumps the fencing epoch
// and promotes — and the promoted node must serve gap-free,
// sequence-contiguous delta streams and top-k results that match an
// uninterrupted BruteForce run cycle-for-cycle, exactly like the
// operator-driven promotion e2e next door.
//
// Shape: a journaled leader with a lease (fake clock, so the lease is
// deterministic and never lapses while the test is still writing to
// it) fronts real TCP producers; a ReplicaFollower ships its journal
// live and fronts its own TcpServer, with a FailoverAgent attached from
// the start. The leader's server is stopped *with journaled cycles
// still unshipped* (written after the wire went dark), the leader's
// clock is advanced past its lease, and the test then only WAITS:
// the agent must detect, elect and promote unattended. The deposed
// leader must refuse writes with FENCED.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/brute_force_engine.h"
#include "core/sharded_engine.h"
#include "core/tma_engine.h"
#include "net/client.h"
#include "net/server.h"
#include "replica/failover.h"
#include "replica/follower.h"
#include "replica/lease.h"
#include "tests/journal/journal_test_util.h"
#include "tests/net/net_test_util.h"
#include "tests/test_util.h"

namespace topkmon {
namespace {

using ::topkmon::testing::MakeRandomQueries;
using ::topkmon::testing::ScopedTempDir;

constexpr int kDim = 2;
constexpr std::size_t kWindow = 500;

std::unique_ptr<MonitorEngine> MakeShardedTma() {
  return std::make_unique<ShardedEngine>(2, [] {
    GridEngineOptions grid;
    grid.dim = kDim;
    grid.window = WindowSpec::Count(kWindow);
    grid.cell_budget = 256;
    return std::unique_ptr<MonitorEngine>(new TmaEngine(grid));
  });
}

std::vector<double> ApplyDelta(std::map<RecordId, double>& view,
                               const ResultDelta& delta) {
  for (const ResultEntry& e : delta.removed) view.erase(e.id);
  for (const ResultEntry& e : delta.added) view.emplace(e.id, e.score);
  std::vector<double> scores;
  scores.reserve(view.size());
  for (const auto& [id, score] : view) scores.push_back(score);
  std::sort(scores.begin(), scores.end());
  return scores;
}

void AwaitQuiescent(ReplicaFollower& follower) {
  std::uint64_t last = follower.stats().records_applied;
  int stable_rounds = 0;
  while (stable_rounds < 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::uint64_t now = follower.stats().records_applied;
    stable_rounds = now == last ? stable_rounds + 1 : 0;
    last = now;
  }
}

TEST(ReplicaFailoverE2eTest, UnattendedFailoverMatchesBruteForceMidKill) {
  // ---- leader: journaled, leased, TCP front-end ------------------------
  ScopedTempDir leader_dir;
  ServiceOptions leader_opt;
  leader_opt.ingest.slack = 4;
  leader_opt.ingest.max_batch = 128;
  leader_opt.drain_wait = std::chrono::milliseconds(2);
  leader_opt.hub.buffer_capacity = 1 << 16;
  leader_opt.journal.dir = leader_dir.path() + "/leader";
  leader_opt.journal.segment_bytes = 16384;
  leader_opt.journal.retain_segment_count = 3;
  leader_opt.journal.snapshot_every_cycles = 0;
  leader_opt.lease.enabled = true;
  leader_opt.lease.duration_seconds = 2.0;
  auto leader = MonitorService::Open(MakeShardedTma, leader_opt);
  ASSERT_TRUE(leader.ok()) << leader.status();
  // Fake lease clock: frozen, the lease never lapses no matter how slow
  // this machine is; advanced explicitly, the leader fences exactly when
  // the test says so. The agent's election timing stays real-time (it
  // watches fetch silence), so fencing and election are decoupled and
  // both deterministic.
  (*leader)->clock().Freeze();
  const NetServerOptions net = testing::TestServerOptions();
  auto leader_server = std::make_unique<TcpServer>(**leader, net);
  TOPKMON_ASSERT_OK(leader_server->Start());

  // ---- follower + its unattended failover agent ------------------------
  ScopedTempDir follower_dir;
  ServiceOptions fsvc;
  fsvc.ingest.slack = 4;
  fsvc.drain_wait = std::chrono::milliseconds(2);
  fsvc.hub.buffer_capacity = 1 << 16;
  fsvc.journal.dir = follower_dir.path() + "/repl";
  fsvc.journal.retain_segment_count = 2;
  ReplicaFollowerOptions fopt;
  fopt.leader_port = leader_server->port();
  fopt.fetch_wait = std::chrono::milliseconds(20);
  fopt.reconnect_backoff = std::chrono::milliseconds(20);
  auto follower = ReplicaFollower::Open(MakeShardedTma, fsvc, fopt);
  ASSERT_TRUE(follower.ok()) << follower.status();

  std::mutex cycles_mu;
  std::vector<std::pair<Timestamp, std::vector<Record>>> cycles;
  (*follower)->service().SetCycleObserver(
      [&cycles_mu, &cycles](Timestamp ts, RecordSpan b) {
        std::lock_guard<std::mutex> lock(cycles_mu);
        cycles.emplace_back(ts,
                            std::vector<Record>(b.begin(), b.end()));
      });

  TcpServer follower_server((*follower)->service(), net);
  TOPKMON_ASSERT_OK(follower_server.Start());

  // The agent runs for the whole test — through the healthy stream phase
  // (its liveness clock is refreshed by every successful fetch, so no
  // election fires) and across the kill, where it must act alone.
  FailoverOptions agent_opt;
  agent_opt.self_endpoint =
      "127.0.0.1:" + std::to_string(follower_server.port());
  agent_opt.election_timeout = std::chrono::milliseconds(2500);
  agent_opt.poll_interval = std::chrono::milliseconds(50);
  agent_opt.probe_timeout = std::chrono::milliseconds(500);
  agent_opt.takeover_backoff = std::chrono::milliseconds(100);
  FailoverAgent agent(follower->get(), agent_opt);

  // ---- queries ---------------------------------------------------------
  const auto specs = MakeRandomQueries(kDim, 4, 6, 2024);
  std::vector<QuerySpec> registered;
  {
    auto dash = MonitorClient::Connect("127.0.0.1", leader_server->port(),
                                       "dash", /*resume=*/false);
    ASSERT_TRUE(dash.ok()) << dash.status();
    const std::vector<QuerySpec> first3(specs.begin(), specs.begin() + 3);
    const auto outcomes = (*dash)->RegisterBatch(first3);
    ASSERT_TRUE(outcomes.ok()) << outcomes.status();
    ASSERT_EQ(outcomes->size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
      ASSERT_EQ((*outcomes)[i].code, StatusCode::kOk)
          << (*outcomes)[i].message;
      QuerySpec with_id = specs[i];
      with_id.id = (*outcomes)[i].query;
      registered.push_back(std::move(with_id));
    }
    TOPKMON_ASSERT_OK((*dash)->Close(/*close_session=*/false));
  }

  // ---- stream phase: concurrent TCP producers into the leader ---------
  std::atomic<Timestamp> clock{1};
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      auto client = MonitorClient::Connect(
          "127.0.0.1", leader_server->port(), "prod-" + std::to_string(p),
          /*resume=*/false);
      ASSERT_TRUE(client.ok()) << client.status();
      auto gen = MakeGenerator(Distribution::kIndependent, kDim,
                               1000 + static_cast<std::uint64_t>(p));
      int sent = 0;
      while (sent < 700) {
        std::vector<Record> batch;
        for (int i = 0; i < 25 && sent < 700; ++i, ++sent) {
          batch.emplace_back(0, gen->NextPoint(), clock.fetch_add(1));
        }
        const auto ack = (*client)->Ingest(std::move(batch));
        ASSERT_TRUE(ack.ok()) << ack.status();
        ASSERT_EQ(ack->rejected, 0u) << ack->first_error;
      }
      TOPKMON_ASSERT_OK((*client)->Close(/*close_session=*/false));
    });
  }
  for (std::thread& t : producers) t.join();
  TOPKMON_ASSERT_OK((*leader)->Flush());
  TOPKMON_ASSERT_OK((*follower)->WaitForCycleTs(
      (*leader)->replication().applied_cycle_ts, std::chrono::seconds(30)));
  // The healthy phase must not have tripped a spurious election.
  EXPECT_FALSE(agent.promoted());
  EXPECT_EQ((*follower)->service().role(), ServiceRole::kFollower);

  // ---- kill the leader, with journaled work the follower never gets ---
  leader_server->Stop();  // the wire goes dark first ...
  {
    auto gen = MakeGenerator(Distribution::kClustered, kDim, 4242);
    for (int i = 0; i < 300; ++i) {
      TOPKMON_ASSERT_OK(
          (*leader)->Ingest(gen->NextPoint(), clock.fetch_add(1)));
    }
    TOPKMON_ASSERT_OK((*leader)->Flush());  // ... journaled, unshippable
  }
  AwaitQuiescent(**follower);
  const std::uint64_t replicated_records =
      (*follower)->service().stats().records_applied;
  EXPECT_GT(replicated_records, 0u);
  EXPECT_LT(replicated_records, (*leader)->stats().records_applied)
      << "the kill must leave journaled leader work unshipped";
  EXPECT_GE((*follower)->stats().segments_completed, 1u);
  ASSERT_EQ((*follower)->stats().restarts, 0u)
      << "a full resync would void the cycle-for-cycle comparison";
  // Lapse the old leader's lease — in fake time, so it is exact.
  (*leader)->clock().Advance(std::chrono::seconds(60));

  // ---- wait: the agent must elect and promote on its own --------------
  const auto promote_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!agent.promoted() &&
         std::chrono::steady_clock::now() < promote_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  ASSERT_TRUE(agent.promoted()) << "no unattended promotion within 30s";
  EXPECT_EQ((*follower)->service().role(), ServiceRole::kLeader);
  EXPECT_GE(agent.stats().elections_started, 1u);
  // First failover of the group, won by the lone configured standby
  // (rank 0): epoch 0 -> generation 1 | rank 0, durably.
  const std::uint64_t promoted_epoch = MintFencingEpoch(0, 0);
  EXPECT_EQ((*follower)->service().fencing_epoch(), promoted_epoch);
  const auto epoch_on_disk = ReadFencingEpoch(fsvc.journal.dir);
  ASSERT_TRUE(epoch_on_disk.ok()) << epoch_on_disk.status();
  EXPECT_EQ(*epoch_on_disk, promoted_epoch);
  const std::size_t cycles_at_promotion = [&] {
    std::lock_guard<std::mutex> lock(cycles_mu);
    return cycles.size();
  }();

  // The deposed leader refuses writes: its lease lapsed, and the refusal
  // is FENCED (not a crash, not a silent accept).
  {
    auto gen = MakeGenerator(Distribution::kClustered, kDim, 4243);
    const Status refused =
        (*leader)->Ingest(gen->NextPoint(), clock.fetch_add(1));
    EXPECT_EQ(refused.code(), StatusCode::kFenced) << refused;
    EXPECT_TRUE((*leader)->IsFenced());
  }

  // ---- the promoted node serves the same sessions ---------------------
  auto dash = MonitorClient::Connect("127.0.0.1", follower_server.port(),
                                     "dash", /*resume=*/true);
  ASSERT_TRUE(dash.ok()) << dash.status();
  EXPECT_TRUE((*dash)->resumed());
  EXPECT_FALSE((*dash)->server_is_follower());
  // v5: the client adopted the promoted node's epoch from its Welcome.
  EXPECT_EQ((*dash)->fencing_epoch(), promoted_epoch);
  std::vector<DeltaEvent> received;
  auto drain = [&dash, &received] {
    while (true) {
      auto events =
          (*dash)->PollDeltas(4096, std::chrono::milliseconds(30));
      ASSERT_TRUE(events.ok()) << events.status();
      if (events->empty()) break;
      received.insert(received.end(), events->begin(), events->end());
    }
  };
  drain();
  ASSERT_FALSE(received.empty());

  // Register one more query and stream fresh records into the promoted
  // node — the post-failover write path.
  const auto outcome4 = (*dash)->RegisterBatch({specs[3]});
  ASSERT_TRUE(outcome4.ok()) << outcome4.status();
  ASSERT_EQ((*outcome4)[0].code, StatusCode::kOk) << (*outcome4)[0].message;
  QuerySpec spec4 = specs[3];
  spec4.id = (*outcome4)[0].query;
  {
    auto writer = MonitorClient::Connect(
        "127.0.0.1", follower_server.port(), "prod-0", /*resume=*/true);
    ASSERT_TRUE(writer.ok()) << writer.status();
    auto gen = MakeGenerator(Distribution::kIndependent, kDim, 777);
    int sent = 0;
    while (sent < 400) {
      std::vector<Record> batch;
      for (int i = 0; i < 25 && sent < 400; ++i, ++sent) {
        batch.emplace_back(0, gen->NextPoint(), clock.fetch_add(1));
      }
      const auto ack = (*writer)->Ingest(std::move(batch));
      ASSERT_TRUE(ack.ok()) << ack.status();
      ASSERT_EQ(ack->rejected, 0u) << ack->first_error;
    }
    TOPKMON_ASSERT_OK((*writer)->Close(/*close_session=*/false));
  }
  TOPKMON_ASSERT_OK((*follower)->service().Flush());

  // Read-your-writes across the failover (v5): wait until a snapshot is
  // at least as fresh as everything the promoted leader has applied.
  const Timestamp target =
      (*follower)->service().replication().applied_cycle_ts;
  TOPKMON_ASSERT_OK((*dash)->WaitForAsOf(registered[0].id, target,
                                         std::chrono::seconds(10)));
  EXPECT_GE((*dash)->snapshot_as_of(), target);
  EXPECT_EQ((*dash)->snapshot_stale_by(), 0);
  drain();
  TOPKMON_ASSERT_OK((*dash)->Close(/*close_session=*/false));
  follower_server.Stop();
  agent.Stop();

  // ---- gap-free: one contiguous sequence across kill + failover -------
  std::map<QueryId, std::vector<ResultDelta>> got;
  std::uint64_t expected_seq = 1;
  for (const DeltaEvent& e : received) {
    EXPECT_EQ(e.seq, expected_seq++) << "sequence gap across failover";
    got[e.delta.query].push_back(e.delta);
  }

  // ---- ground truth: BruteForce over the follower's applied cycles ----
  std::map<QueryId, std::vector<ResultDelta>> truth;
  BruteForceEngine brute(kDim, WindowSpec::Count(kWindow));
  brute.SetDeltaCallback(
      [&truth](const ResultDelta& d) { truth[d.query].push_back(d); });
  for (const QuerySpec& spec : registered) {
    TOPKMON_ASSERT_OK(brute.RegisterQuery(spec));
  }
  {
    std::lock_guard<std::mutex> lock(cycles_mu);
    ASSERT_GT(cycles.size(), cycles_at_promotion)
        << "post-failover ingest must have driven new cycles";
    for (std::size_t i = 0; i < cycles.size(); ++i) {
      if (i == cycles_at_promotion) {
        TOPKMON_ASSERT_OK(brute.RegisterQuery(spec4));
      }
      TOPKMON_ASSERT_OK(
          brute.ProcessCycle(cycles[i].first, cycles[i].second));
    }
  }
  std::vector<QuerySpec> all_queries = registered;
  all_queries.push_back(spec4);
  for (const QuerySpec& spec : all_queries) {
    const auto& got_deltas = got[spec.id];
    const auto& want_deltas = truth[spec.id];
    ASSERT_EQ(got_deltas.size(), want_deltas.size()) << "query " << spec.id;
    std::map<RecordId, double> got_view;
    std::map<RecordId, double> want_view;
    for (std::size_t i = 0; i < got_deltas.size(); ++i) {
      EXPECT_EQ(got_deltas[i].when, want_deltas[i].when)
          << "query " << spec.id << " event " << i;
      ASSERT_EQ(ApplyDelta(got_view, got_deltas[i]),
                ApplyDelta(want_view, want_deltas[i]))
          << "query " << spec.id << " diverges at event " << i;
    }
    const auto brute_result = brute.CurrentResult(spec.id);
    const auto follower_result =
        (*follower)->service().CurrentResult(spec.id);
    ASSERT_TRUE(brute_result.ok()) << brute_result.status();
    ASSERT_TRUE(follower_result.ok()) << follower_result.status();
    EXPECT_EQ(testing::Scores(*brute_result),
              testing::Scores(*follower_result))
        << "query " << spec.id;
  }
  (*follower)->service().Shutdown();
  (*leader)->Shutdown();
}

}  // namespace
}  // namespace topkmon
