// Split-brain fault injection: partition a leased leader away from its
// follower, let the lease lapse, and let the standby's failover agent
// self-promote. The safety claims under test:
//
//   * every record the old leader ACKED before the partition is present
//     on the promoted node (no acked record lost),
//   * every write attempted on the deposed leader after its lease
//     lapsed is refused with FENCED (none silently accepted, none
//     journaled into a divergent history),
//   * the deposed leader, restarted in follower mode over its own
//     journal directory, rejoins the group behind the new leader,
//     observes the bumped fencing epoch (and persists it, so a second
//     restart cannot resurrect the old term) and converges to the new
//     leader's state byte-for-byte downstream of the same journal.
//
// The leader's lease runs on its frozen node clock, advanced by hand,
// so "past lease expiry" is an exact instant rather than a sleep: the
// partition (its TcpServer stops) and the lease lapse are two
// separately controlled faults.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/brute_force_engine.h"
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
constexpr std::size_t kWindow = 300;

std::unique_ptr<MonitorEngine> MakeEngine() {
  return std::make_unique<BruteForceEngine>(kDim, WindowSpec::Count(kWindow));
}

TEST(ReplicaFailoverFaultTest, SplitBrainFencesDeposedLeaderAndRejoins) {
  // ---- leased leader + follower with an unattended agent --------------
  ScopedTempDir dir;
  ServiceOptions leader_opt;
  leader_opt.ingest.slack = 4;
  leader_opt.ingest.max_batch = 64;
  leader_opt.drain_wait = std::chrono::milliseconds(2);
  leader_opt.journal.dir = dir.path() + "/leader";
  leader_opt.journal.segment_bytes = 8192;
  leader_opt.journal.retain_segment_count = 4;
  leader_opt.journal.snapshot_every_cycles = 0;
  leader_opt.lease.enabled = true;
  leader_opt.lease.duration_seconds = 5.0;
  auto leader = MonitorService::Open(MakeEngine, leader_opt);
  ASSERT_TRUE(leader.ok()) << leader.status();
  (*leader)->clock().Freeze();
  const NetServerOptions net = testing::TestServerOptions();
  auto leader_server = std::make_unique<TcpServer>(**leader, net);
  TOPKMON_ASSERT_OK(leader_server->Start());

  ServiceOptions fsvc;
  fsvc.ingest.slack = 4;
  fsvc.drain_wait = std::chrono::milliseconds(2);
  fsvc.journal.dir = dir.path() + "/standby";
  fsvc.journal.retain_segment_count = 4;
  ReplicaFollowerOptions fopt;
  fopt.leader_port = leader_server->port();
  fopt.fetch_wait = std::chrono::milliseconds(20);
  fopt.reconnect_backoff = std::chrono::milliseconds(20);
  auto follower = ReplicaFollower::Open(MakeEngine, fsvc, fopt);
  ASSERT_TRUE(follower.ok()) << follower.status();
  TcpServer follower_server((*follower)->service(), net);
  TOPKMON_ASSERT_OK(follower_server.Start());

  FailoverOptions agent_opt;
  agent_opt.self_endpoint =
      "127.0.0.1:" + std::to_string(follower_server.port());
  agent_opt.election_timeout = std::chrono::milliseconds(1000);
  agent_opt.poll_interval = std::chrono::milliseconds(50);
  agent_opt.takeover_backoff = std::chrono::milliseconds(100);
  FailoverAgent agent(follower->get(), agent_opt);

  // ---- acked history: everything here must survive the failover -------
  const auto specs = MakeRandomQueries(kDim, 2, 5, 99);
  std::vector<QuerySpec> registered;
  std::atomic<Timestamp> clock{1};
  constexpr std::uint64_t kAcked = 200;
  {
    auto client = MonitorClient::Connect("127.0.0.1", leader_server->port(),
                                         "writer", /*resume=*/false);
    ASSERT_TRUE(client.ok()) << client.status();
    const auto outcomes = (*client)->RegisterBatch(specs);
    ASSERT_TRUE(outcomes.ok()) << outcomes.status();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      ASSERT_EQ((*outcomes)[i].code, StatusCode::kOk);
      QuerySpec with_id = specs[i];
      with_id.id = (*outcomes)[i].query;
      registered.push_back(std::move(with_id));
    }
    auto gen = MakeGenerator(Distribution::kIndependent, kDim, 7);
    std::uint64_t sent = 0;
    while (sent < kAcked) {
      std::vector<Record> batch;
      for (int i = 0; i < 20 && sent < kAcked; ++i, ++sent) {
        batch.emplace_back(0, gen->NextPoint(), clock.fetch_add(1));
      }
      const auto ack = (*client)->Ingest(std::move(batch));
      ASSERT_TRUE(ack.ok()) << ack.status();
      ASSERT_EQ(ack->rejected, 0u) << ack->first_error;
    }
    TOPKMON_ASSERT_OK((*client)->Close(/*close_session=*/false));
  }
  TOPKMON_ASSERT_OK((*leader)->Flush());
  const Timestamp acked_ts = (*leader)->replication().applied_cycle_ts;
  TOPKMON_ASSERT_OK(
      (*follower)->WaitForCycleTs(acked_ts, std::chrono::seconds(30)));

  // ---- fault: partition the leader, lapse its lease -------------------
  leader_server->Stop();
  // Well past duration_seconds.
  (*leader)->clock().Advance(std::chrono::seconds(60));

  // The deposed leader refuses every write from the instant the lease
  // lapsed — ingest AND registration — with FENCED, not some generic
  // failure a client would blindly retry against the same node.
  {
    auto gen = MakeGenerator(Distribution::kClustered, kDim, 11);
    for (int i = 0; i < 3; ++i) {
      const Status refused =
          (*leader)->Ingest(gen->NextPoint(), clock.fetch_add(1));
      EXPECT_EQ(refused.code(), StatusCode::kFenced) << refused;
    }
    // Fencing is checked before session validation, so any session id
    // draws the FENCED refusal.
    const auto reg = (*leader)->Register(SessionId{0}, specs[0]);
    EXPECT_EQ(reg.status().code(), StatusCode::kFenced) << reg.status();
    EXPECT_TRUE((*leader)->IsFenced());
  }

  // A probe of the deposed leader tells the truth: the role still says
  // leader (it never flips on fencing), but the fenced latch rides the
  // StatusInfo answer — so electing followers and the cluster router
  // know not to adopt this node. Journal fetches are refused with
  // FENCED for the same reason: a pump stuck here must stall into its
  // own election instead of following a dead term.
  {
    TcpServer deposed_server(**leader, net);
    TOPKMON_ASSERT_OK(deposed_server.Start());
    auto probe = MonitorClient::Connect("127.0.0.1", deposed_server.port(),
                                        "probe", /*resume=*/false);
    ASSERT_TRUE(probe.ok()) << probe.status();
    const auto status = (*probe)->GetStatus();
    ASSERT_TRUE(status.ok()) << status.status();
    EXPECT_EQ(status->role, 0);  // still claims leader...
    EXPECT_TRUE(status->fenced);  // ...but the latch says deposed
    const auto fetch =
        (*probe)->ReplFetch(0, 0, 0, std::chrono::milliseconds(0));
    ASSERT_FALSE(fetch.ok());
    EXPECT_EQ(fetch.status().code(), StatusCode::kFenced) << fetch.status();
    TOPKMON_ASSERT_OK((*probe)->Close(/*close_session=*/false));
    deposed_server.Stop();
  }

  // ---- the standby self-promotes, unattended --------------------------
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!agent.promoted() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  ASSERT_TRUE(agent.promoted()) << "no unattended promotion within 30s";
  EXPECT_EQ((*follower)->service().role(), ServiceRole::kLeader);
  // A lone standby (no peers configured) ranks 0 in its one-member
  // set: first minted epoch = generation 1, rank 0.
  const std::uint64_t promoted_epoch = MintFencingEpoch(0, 0);
  EXPECT_EQ((*follower)->service().fencing_epoch(), promoted_epoch);

  // No acked record lost: the promoted node applied exactly the acked
  // history (the fenced attempts above are absent — they were refused,
  // not half-accepted), and serves the same top-k the old leader froze
  // at.
  EXPECT_EQ((*follower)->service().stats().records_applied, kAcked);
  EXPECT_EQ((*follower)->service().replication().applied_cycle_ts, acked_ts);
  for (const QuerySpec& spec : registered) {
    const auto old_view = (*leader)->CurrentResult(spec.id);
    const auto new_view = (*follower)->service().CurrentResult(spec.id);
    ASSERT_TRUE(old_view.ok()) << old_view.status();
    ASSERT_TRUE(new_view.ok()) << new_view.status();
    EXPECT_EQ(testing::Scores(*old_view), testing::Scores(*new_view))
        << "query " << spec.id;
  }

  // ---- new term: writes land on the new leader ------------------------
  constexpr std::uint64_t kNewTerm = 120;
  {
    auto client = MonitorClient::Connect(
        "127.0.0.1", follower_server.port(), "writer", /*resume=*/true);
    ASSERT_TRUE(client.ok()) << client.status();
    EXPECT_EQ((*client)->fencing_epoch(), promoted_epoch);
    auto gen = MakeGenerator(Distribution::kIndependent, kDim, 13);
    std::uint64_t sent = 0;
    while (sent < kNewTerm) {
      std::vector<Record> batch;
      for (int i = 0; i < 20 && sent < kNewTerm; ++i, ++sent) {
        batch.emplace_back(0, gen->NextPoint(), clock.fetch_add(1));
      }
      const auto ack = (*client)->Ingest(std::move(batch));
      ASSERT_TRUE(ack.ok()) << ack.status();
      ASSERT_EQ(ack->rejected, 0u) << ack->first_error;
    }
    TOPKMON_ASSERT_OK((*client)->Close(/*close_session=*/false));
  }
  TOPKMON_ASSERT_OK((*follower)->service().Flush());
  const Timestamp new_term_ts =
      (*follower)->service().replication().applied_cycle_ts;
  ASSERT_GT(new_term_ts, acked_ts);

  // ---- the deposed leader rejoins as a follower of the new leader -----
  (*leader)->Shutdown();
  (*leader).reset();  // release the journal dir before re-opening it
  ReplicaFollowerOptions rejoin_opt;
  rejoin_opt.leader_port = follower_server.port();
  rejoin_opt.label = "rejoined-old-leader";
  rejoin_opt.fetch_wait = std::chrono::milliseconds(20);
  rejoin_opt.reconnect_backoff = std::chrono::milliseconds(20);
  // Same ServiceOptions as its leader days — follower-assisted catch-up
  // starts from its own journal (the shipped-prefix bytes it wrote while
  // leading) and continues over the wire.
  auto rejoined = ReplicaFollower::Open(MakeEngine, leader_opt, rejoin_opt);
  ASSERT_TRUE(rejoined.ok()) << rejoined.status();
  EXPECT_EQ((*rejoined)->service().role(), ServiceRole::kFollower);
  TOPKMON_ASSERT_OK(
      (*rejoined)->WaitForCycleTs(new_term_ts, std::chrono::seconds(30)));

  // The old leader's graceful Shutdown() rotated a farewell snapshot
  // segment into its journal — a segment the group never shipped, whose
  // index collides with the new leader's post-promotion segment. The
  // rejoin MUST NOT splice those divergent bytes: the first connect sees
  // the leader's epoch outrank the epoch its journal was written
  // under (0) and full-resyncs instead of continuing byte-wise.
  EXPECT_GE((*rejoined)->stats().restarts, 1u);
  // It converged onto the new term's history...
  for (const QuerySpec& spec : registered) {
    const auto leader_view = (*follower)->service().CurrentResult(spec.id);
    const auto rejoined_view = (*rejoined)->service().CurrentResult(spec.id);
    ASSERT_TRUE(leader_view.ok()) << leader_view.status();
    ASSERT_TRUE(rejoined_view.ok()) << rejoined_view.status();
    EXPECT_EQ(testing::Scores(*leader_view),
              testing::Scores(*rejoined_view))
        << "query " << spec.id;
  }
  // ... and adopted + persisted the new fencing epoch, so a crash and
  // restart cannot resurrect it at its old term.
  const auto observe_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((*rejoined)->service().fencing_epoch() < promoted_epoch &&
         std::chrono::steady_clock::now() < observe_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ((*rejoined)->service().fencing_epoch(), promoted_epoch);
  const auto epoch_on_disk = ReadFencingEpoch(leader_opt.journal.dir);
  ASSERT_TRUE(epoch_on_disk.ok()) << epoch_on_disk.status();
  EXPECT_EQ(*epoch_on_disk, promoted_epoch);

  (*rejoined)->Stop();
  (*rejoined)->service().Shutdown();
  follower_server.Stop();
  agent.Stop();
  (*follower)->service().Shutdown();
}

TEST(ReplicaFailoverFaultTest, EpochPersistFailureKeepsRetriesEffective) {
  // A failed EPOCH write must NOT publish the raised epoch in memory:
  // were it published, every retry would short-circuit on the
  // "already seen" fast path and the epoch would never reach disk — a
  // restarted deposed leader could then resurrect its old term. The
  // fault here is the journal directory replaced by a plain file (the
  // EPOCH writer cannot re-create it, unlike a merely missing dir);
  // healing it makes the retried call do the real work.
  ScopedTempDir dir;
  ServiceOptions opt;
  opt.drain_wait = std::chrono::milliseconds(2);
  opt.journal.dir = dir.path() + "/node";
  opt.journal.snapshot_every_cycles = 0;
  auto svc = MonitorService::Open(MakeEngine, opt);
  ASSERT_TRUE(svc.ok()) << svc.status();

  std::filesystem::remove_all(opt.journal.dir);
  { std::ofstream(opt.journal.dir) << "not a directory"; }
  const std::uint64_t epoch = MintFencingEpoch(0, kOperatorFencingRank);
  const Status failed = (*svc)->ObserveFencingEpoch(epoch);
  EXPECT_FALSE(failed.ok()) << "persist into a missing dir should fail";
  // Unpublished: the next call must not be a no-op.
  EXPECT_EQ((*svc)->fencing_epoch(), 0u);
  // But the deposition itself is latched — a provably deposed leader
  // must not keep serving just because its disk is broken.
  EXPECT_TRUE((*svc)->IsFenced());

  std::filesystem::remove(opt.journal.dir);
  std::filesystem::create_directories(opt.journal.dir);
  TOPKMON_ASSERT_OK((*svc)->ObserveFencingEpoch(epoch));
  EXPECT_EQ((*svc)->fencing_epoch(), epoch);
  const auto on_disk = ReadFencingEpoch(opt.journal.dir);
  ASSERT_TRUE(on_disk.ok()) << on_disk.status();
  EXPECT_EQ(*on_disk, epoch);
  (*svc)->Shutdown();
}

}  // namespace
}  // namespace topkmon
