// Election fault matrix for the follower-driven failover agent
// (src/replica/failover.h), three scenarios over a leader + two
// standbys:
//
//   1. Unequal applied journals: the follower with the LONGEST applied
//      journal wins, the shorter one adopts the winner, re-targets its
//      pump, catches up through it and observes the bumped epoch.
//   2. Equal journals: the deterministic tie-break (lexicographically
//      smallest endpoint) picks exactly one winner — never two leaders,
//      never zero.
//   3. A would-be winner dying mid-election drops out of the next probe
//      round's candidate set and the second-ranked follower takes over:
//      an election never leaves the group leaderless while any
//      candidate survives.
//
// A fourth scenario elects on the node clock alone: a follower whose
// agent waits a minute of leader silence promotes within seconds of real
// time once its clock is frozen and advanced past the timeout.
//
// The "short" follower is frozen deterministically by re-targeting its
// pump at a dead port (a bound-then-closed ephemeral port nothing
// listens on) before the extra records are ingested — no sleeps, no
// racing against the shipper.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
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
#include "util/clock.h"

namespace topkmon {
namespace {

using ::topkmon::testing::MakeRandomQueries;
using ::topkmon::testing::ScopedTempDir;

constexpr int kDim = 2;
constexpr std::size_t kWindow = 300;

std::unique_ptr<MonitorEngine> MakeEngine() {
  return std::make_unique<BruteForceEngine>(kDim, WindowSpec::Count(kWindow));
}

/// An ephemeral port with no listener behind it: bound, read back, and
/// closed without ever calling listen(), so connects are refused
/// promptly and a pump pointed here freezes where it stands.
std::uint16_t DeadPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(fd);
  return ntohs(addr.sin_port);
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

/// Leader + two standbys behind their own TcpServers, with `count`
/// acked records and `queries` registered — the shared fixture shape of
/// every scenario below.
struct Group {
  ScopedTempDir dir;
  Result<std::unique_ptr<MonitorService>> leader{
      Status::Internal("not started")};
  std::unique_ptr<TcpServer> leader_server;
  Result<std::unique_ptr<ReplicaFollower>> a{Status::Internal("not started")};
  Result<std::unique_ptr<ReplicaFollower>> b{Status::Internal("not started")};
  std::unique_ptr<TcpServer> a_server;
  std::unique_ptr<TcpServer> b_server;
  std::vector<QuerySpec> registered;
  std::atomic<Timestamp> clock{1};

  std::string endpoint_a() const {
    return "127.0.0.1:" + std::to_string(a_server->port());
  }
  std::string endpoint_b() const {
    return "127.0.0.1:" + std::to_string(b_server->port());
  }

  void Start() {
    ServiceOptions leader_opt;
    leader_opt.ingest.slack = 4;
    leader_opt.ingest.max_batch = 64;
    leader_opt.drain_wait = std::chrono::milliseconds(2);
    leader_opt.journal.dir = dir.path() + "/leader";
    leader_opt.journal.segment_bytes = 8192;
    leader_opt.journal.retain_segment_count = 6;
    leader_opt.journal.snapshot_every_cycles = 0;
    leader = MonitorService::Open(MakeEngine, leader_opt);
    ASSERT_TRUE(leader.ok()) << leader.status();
    const NetServerOptions net = testing::TestServerOptions();
    leader_server = std::make_unique<TcpServer>(**leader, net);
    TOPKMON_ASSERT_OK(leader_server->Start());

    for (const char* name : {"a", "b"}) {
      ServiceOptions fsvc;
      fsvc.ingest.slack = 4;
      fsvc.drain_wait = std::chrono::milliseconds(2);
      fsvc.journal.dir = dir.path() + "/" + name;
      fsvc.journal.retain_segment_count = 6;
      ReplicaFollowerOptions fopt;
      fopt.leader_port = leader_server->port();
      fopt.label = name;
      fopt.fetch_wait = std::chrono::milliseconds(20);
      fopt.reconnect_backoff = std::chrono::milliseconds(20);
      auto follower = ReplicaFollower::Open(MakeEngine, fsvc, fopt);
      ASSERT_TRUE(follower.ok()) << follower.status();
      auto server =
          std::make_unique<TcpServer>((*follower)->service(), net);
      TOPKMON_ASSERT_OK(server->Start());
      if (name[0] == 'a') {
        a = std::move(follower);
        a_server = std::move(server);
      } else {
        b = std::move(follower);
        b_server = std::move(server);
      }
    }
  }

  /// Acked ingest of `count` records; returns the leader's applied
  /// frontier afterwards.
  Timestamp IngestAcked(std::uint64_t count, std::uint64_t seed) {
    auto client = MonitorClient::Connect("127.0.0.1", leader_server->port(),
                                         "writer", /*resume=*/true);
    EXPECT_TRUE(client.ok()) << client.status();
    auto gen = MakeGenerator(Distribution::kIndependent, kDim, seed);
    std::uint64_t sent = 0;
    while (sent < count) {
      std::vector<Record> batch;
      for (int i = 0; i < 20 && sent < count; ++i, ++sent) {
        batch.emplace_back(0, gen->NextPoint(), clock.fetch_add(1));
      }
      const auto ack = (*client)->Ingest(std::move(batch));
      EXPECT_TRUE(ack.ok()) << ack.status();
    }
    EXPECT_TRUE((*client)->Close(/*close_session=*/false).ok());
    EXPECT_TRUE((*leader)->Flush().ok());
    return (*leader)->replication().applied_cycle_ts;
  }

  void RegisterQueries() {
    auto client = MonitorClient::Connect("127.0.0.1", leader_server->port(),
                                         "writer", /*resume=*/false);
    ASSERT_TRUE(client.ok()) << client.status();
    const auto specs = MakeRandomQueries(kDim, 2, 5, 31);
    const auto outcomes = (*client)->RegisterBatch(specs);
    ASSERT_TRUE(outcomes.ok()) << outcomes.status();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      ASSERT_EQ((*outcomes)[i].code, StatusCode::kOk);
      QuerySpec with_id = specs[i];
      with_id.id = (*outcomes)[i].query;
      registered.push_back(std::move(with_id));
    }
    TOPKMON_ASSERT_OK((*client)->Close(/*close_session=*/false));
  }

  FailoverOptions AgentOptions(const std::string& self,
                               const std::string& peer) const {
    FailoverOptions opt;
    opt.self_endpoint = self;
    opt.peers = {peer};
    opt.election_timeout = std::chrono::milliseconds(400);
    opt.poll_interval = std::chrono::milliseconds(50);
    opt.probe_timeout = std::chrono::milliseconds(500);
    opt.takeover_backoff = std::chrono::milliseconds(100);
    return opt;
  }

  void Shutdown() {
    if (a_server) a_server->Stop();
    if (b_server) b_server->Stop();
    if (a.ok()) {
      (*a)->Stop();
      (*a)->service().Shutdown();
    }
    if (b.ok()) {
      (*b)->Stop();
      (*b)->service().Shutdown();
    }
    if (leader_server) leader_server->Stop();
    if (leader.ok() && *leader) (*leader)->Shutdown();
  }
};

/// The epoch `winner` mints in the group's FIRST election (everyone
/// still at epoch 0): next generation tagged with the winner's rank in
/// the sorted two-member set.
std::uint64_t ExpectedFirstEpoch(const std::string& winner,
                                 const std::string& other) {
  return MintFencingEpoch(0, winner < other ? 0 : 1);
}

bool WaitUntil(const std::function<bool()>& done,
               std::chrono::seconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return done();
}

TEST(ReplicaElectionTest, LongestAppliedJournalWinsAndLoserCatchesUp) {
  Group g;
  g.Start();
  if (::testing::Test::HasFatalFailure()) return;
  g.RegisterQueries();
  const Timestamp ts1 = g.IngestAcked(150, 7);
  TOPKMON_ASSERT_OK((*g.a)->WaitForCycleTs(ts1, std::chrono::seconds(30)));
  TOPKMON_ASSERT_OK((*g.b)->WaitForCycleTs(ts1, std::chrono::seconds(30)));

  // Freeze B, then advance the group: A ends strictly longer.
  (*g.b)->SetLeader("127.0.0.1", DeadPort());
  AwaitQuiescent(**g.b);
  const Timestamp ts2 = g.IngestAcked(150, 8);
  TOPKMON_ASSERT_OK((*g.a)->WaitForCycleTs(ts2, std::chrono::seconds(30)));
  ASSERT_LT((*g.b)->stats().applied_cycle_ts, ts2);

  g.leader_server->Stop();
  FailoverAgent agent_a(g.a->get(),
                        g.AgentOptions(g.endpoint_a(), g.endpoint_b()));
  FailoverAgent agent_b(g.b->get(),
                        g.AgentOptions(g.endpoint_b(), g.endpoint_a()));

  // The longer follower — and only it — promotes.
  ASSERT_TRUE(WaitUntil([&] { return agent_a.promoted(); },
                        std::chrono::seconds(30)));
  EXPECT_EQ((*g.a)->service().role(), ServiceRole::kLeader);
  const std::uint64_t epoch_a =
      ExpectedFirstEpoch(g.endpoint_a(), g.endpoint_b());
  EXPECT_EQ((*g.a)->service().fencing_epoch(), epoch_a);
  // The shorter one adopts the winner and re-targets its pump at it.
  ASSERT_TRUE(WaitUntil(
      [&] { return agent_b.stats().leaders_adopted >= 1; },
      std::chrono::seconds(30)));
  EXPECT_FALSE(agent_b.promoted());
  EXPECT_EQ((*g.b)->leader_endpoint(), g.endpoint_a());

  // New-term writes flow A -> B: the loser catches up through the
  // winner (follower-assisted catch-up) and observes the bumped epoch
  // from the shipped chunks.
  {
    auto gen = MakeGenerator(Distribution::kClustered, kDim, 9);
    for (int i = 0; i < 100; ++i) {
      TOPKMON_ASSERT_OK((*g.a)->service().Ingest(gen->NextPoint(),
                                                 g.clock.fetch_add(1)));
    }
    TOPKMON_ASSERT_OK((*g.a)->service().Flush());
  }
  const Timestamp ts3 = (*g.a)->service().replication().applied_cycle_ts;
  TOPKMON_ASSERT_OK((*g.b)->WaitForCycleTs(ts3, std::chrono::seconds(30)));
  EXPECT_TRUE(WaitUntil(
      [&] { return (*g.b)->service().fencing_epoch() == epoch_a; },
      std::chrono::seconds(10)));
  for (const QuerySpec& spec : g.registered) {
    const auto a_view = (*g.a)->service().CurrentResult(spec.id);
    const auto b_view = (*g.b)->service().CurrentResult(spec.id);
    ASSERT_TRUE(a_view.ok()) << a_view.status();
    ASSERT_TRUE(b_view.ok()) << b_view.status();
    EXPECT_EQ(testing::Scores(*a_view), testing::Scores(*b_view))
        << "query " << spec.id;
  }
  agent_a.Stop();
  agent_b.Stop();
  g.Shutdown();
}

TEST(ReplicaElectionTest, EqualFrontiersBreakTiesBySmallestEndpoint) {
  Group g;
  g.Start();
  if (::testing::Test::HasFatalFailure()) return;
  g.RegisterQueries();
  const Timestamp ts1 = g.IngestAcked(100, 7);
  TOPKMON_ASSERT_OK((*g.a)->WaitForCycleTs(ts1, std::chrono::seconds(30)));
  TOPKMON_ASSERT_OK((*g.b)->WaitForCycleTs(ts1, std::chrono::seconds(30)));
  AwaitQuiescent(**g.a);
  AwaitQuiescent(**g.b);
  // The tie premise: byte-identical shipped prefixes.
  EXPECT_EQ((*g.a)->stats().current_segment, (*g.b)->stats().current_segment);
  EXPECT_EQ((*g.a)->stats().shipped_offset, (*g.b)->stats().shipped_offset);

  g.leader_server->Stop();
  const std::string expected_winner =
      std::min(g.endpoint_a(), g.endpoint_b());
  FailoverAgent agent_a(g.a->get(),
                        g.AgentOptions(g.endpoint_a(), g.endpoint_b()));
  FailoverAgent agent_b(g.b->get(),
                        g.AgentOptions(g.endpoint_b(), g.endpoint_a()));

  ASSERT_TRUE(WaitUntil(
      [&] { return agent_a.promoted() || agent_b.promoted(); },
      std::chrono::seconds(30)));
  FailoverAgent& winner =
      expected_winner == g.endpoint_a() ? agent_a : agent_b;
  FailoverAgent& loser =
      expected_winner == g.endpoint_a() ? agent_b : agent_a;
  ReplicaFollower& winner_node =
      expected_winner == g.endpoint_a() ? **g.a : **g.b;
  ReplicaFollower& loser_node =
      expected_winner == g.endpoint_a() ? **g.b : **g.a;
  // Exactly one leader, and it is the deterministic one: every agent
  // ranks the same tied snapshot, so they all name the same winner.
  EXPECT_TRUE(winner.promoted());
  ASSERT_TRUE(WaitUntil([&] { return loser.stats().leaders_adopted >= 1; },
                        std::chrono::seconds(30)));
  EXPECT_FALSE(loser.promoted());
  EXPECT_EQ(winner_node.service().role(), ServiceRole::kLeader);
  // The tie winner is the smallest endpoint, i.e. rank 0.
  const std::uint64_t winner_epoch = MintFencingEpoch(0, 0);
  EXPECT_EQ(winner_node.service().fencing_epoch(), winner_epoch);
  EXPECT_EQ(loser_node.service().role(), ServiceRole::kFollower);
  EXPECT_EQ(loser_node.leader_endpoint(), expected_winner);
  EXPECT_TRUE(WaitUntil(
      [&] { return loser_node.service().fencing_epoch() == winner_epoch; },
      std::chrono::seconds(10)));
  agent_a.Stop();
  agent_b.Stop();
  g.Shutdown();
}

TEST(ReplicaElectionTest, SymmetricPartitionMintsDistinctEpochsAndHeals) {
  // Worst-case split: the leader dies AND the two standbys cannot probe
  // each other. Each agent sees itself as the only candidate and
  // promotes — split-brain is unavoidable under a lease-based design,
  // but the minted epochs must DIFFER (rank-tagged generations), so the
  // strict greater-than arbitration deposes exactly one of the two
  // once connectivity returns.
  Group g;
  g.Start();
  if (::testing::Test::HasFatalFailure()) return;
  g.RegisterQueries();
  const Timestamp ts1 = g.IngestAcked(100, 7);
  TOPKMON_ASSERT_OK((*g.a)->WaitForCycleTs(ts1, std::chrono::seconds(30)));
  TOPKMON_ASSERT_OK((*g.b)->WaitForCycleTs(ts1, std::chrono::seconds(30)));

  g.leader_server->Stop();
  g.a_server->Stop();  // A and B cannot reach each other's probes
  g.b_server->Stop();
  FailoverAgent agent_a(g.a->get(),
                        g.AgentOptions(g.endpoint_a(), g.endpoint_b()));
  FailoverAgent agent_b(g.b->get(),
                        g.AgentOptions(g.endpoint_b(), g.endpoint_a()));
  ASSERT_TRUE(WaitUntil(
      [&] { return agent_a.promoted() && agent_b.promoted(); },
      std::chrono::seconds(30)));

  // Both are leaders — but at node-unique epochs: same generation,
  // different rank byte.
  const std::uint64_t epoch_a = (*g.a)->service().fencing_epoch();
  const std::uint64_t epoch_b = (*g.b)->service().fencing_epoch();
  EXPECT_NE(epoch_a, epoch_b);
  EXPECT_EQ(FencingEpochGeneration(epoch_a), FencingEpochGeneration(epoch_b));
  EXPECT_EQ(epoch_a, ExpectedFirstEpoch(g.endpoint_a(), g.endpoint_b()));
  EXPECT_EQ(epoch_b, ExpectedFirstEpoch(g.endpoint_b(), g.endpoint_a()));

  // The partition heals: each side learns of the other's epoch (in
  // production via probes, chunks, or router re-resolution). The lower
  // epoch fences itself and refuses writes; the higher one is immune to
  // the lower's stale claim and keeps serving.
  MonitorService& lower =
      epoch_a < epoch_b ? (*g.a)->service() : (*g.b)->service();
  MonitorService& higher =
      epoch_a < epoch_b ? (*g.b)->service() : (*g.a)->service();
  TOPKMON_ASSERT_OK(higher.ObserveFencingEpoch(std::min(epoch_a, epoch_b)));
  EXPECT_FALSE(higher.IsFenced());
  TOPKMON_ASSERT_OK(lower.ObserveFencingEpoch(std::max(epoch_a, epoch_b)));
  EXPECT_TRUE(lower.IsFenced());
  auto gen = MakeGenerator(Distribution::kClustered, kDim, 9);
  EXPECT_EQ(lower.Ingest(gen->NextPoint(), g.clock.fetch_add(1)).code(),
            StatusCode::kFenced);
  TOPKMON_ASSERT_OK(higher.Ingest(gen->NextPoint(), g.clock.fetch_add(1)));
  agent_a.Stop();
  agent_b.Stop();
  g.Shutdown();
}

TEST(ReplicaElectionTest, DeadWinnerMidElectionSecondCandidateTakesOver) {
  Group g;
  g.Start();
  if (::testing::Test::HasFatalFailure()) return;
  g.RegisterQueries();
  const Timestamp ts1 = g.IngestAcked(100, 7);
  TOPKMON_ASSERT_OK((*g.a)->WaitForCycleTs(ts1, std::chrono::seconds(30)));
  TOPKMON_ASSERT_OK((*g.b)->WaitForCycleTs(ts1, std::chrono::seconds(30)));
  (*g.b)->SetLeader("127.0.0.1", DeadPort());
  AwaitQuiescent(**g.b);
  const Timestamp ts2 = g.IngestAcked(100, 8);
  TOPKMON_ASSERT_OK((*g.a)->WaitForCycleTs(ts2, std::chrono::seconds(30)));
  ASSERT_LT((*g.b)->stats().applied_cycle_ts, ts2);

  // Kill the leader. Only B runs an agent — A is the rightful winner,
  // but its own agent "died": it will answer probes as a candidate yet
  // never promote.
  g.leader_server->Stop();
  FailoverAgent agent_b(g.b->get(),
                        g.AgentOptions(g.endpoint_b(), g.endpoint_a()));

  // B keeps deferring while the outranking candidate still answers —
  // rounds tick without a promotion. (A transiently unreachable live
  // server would break this expectation; on loopback it does not
  // happen.)
  ASSERT_TRUE(WaitUntil([&] { return agent_b.stats().rounds >= 2; },
                        std::chrono::seconds(30)));
  EXPECT_FALSE(agent_b.promoted());

  // Now A dies mid-election: it stops answering probes, drops out of
  // the candidate set, and B — the shorter follower — must take over
  // rather than leave the group leaderless.
  g.a_server->Stop();
  (*g.a)->Stop();
  ASSERT_TRUE(WaitUntil([&] { return agent_b.promoted(); },
                        std::chrono::seconds(30)));
  EXPECT_EQ((*g.b)->service().role(), ServiceRole::kLeader);
  EXPECT_EQ((*g.b)->service().fencing_epoch(),
            ExpectedFirstEpoch(g.endpoint_b(), g.endpoint_a()));
  EXPECT_GE(agent_b.stats().probes_failed, 1u);
  EXPECT_GE(agent_b.stats().rounds, 2u);
  // The new leader accepts writes immediately.
  auto gen = MakeGenerator(Distribution::kClustered, kDim, 9);
  TOPKMON_ASSERT_OK(
      (*g.b)->service().Ingest(gen->NextPoint(), g.clock.fetch_add(1)));
  TOPKMON_ASSERT_OK((*g.b)->service().Flush());
  agent_b.Stop();
  g.Shutdown();
}

TEST(ReplicaElectionTest, ClockAdvanceElectsWithoutWaiting) {
  ScopedTempDir dir;
  ServiceOptions leader_opt;
  leader_opt.drain_wait = std::chrono::milliseconds(2);
  leader_opt.journal.dir = dir.path() + "/leader";
  auto leader = MonitorService::Open(MakeEngine, leader_opt);
  ASSERT_TRUE(leader.ok()) << leader.status();
  const NetServerOptions net = testing::TestServerOptions();
  TcpServer leader_server(**leader, net);
  TOPKMON_ASSERT_OK(leader_server.Start());

  ServiceOptions fsvc;
  fsvc.drain_wait = std::chrono::milliseconds(2);
  fsvc.journal.dir = dir.path() + "/standby";
  ReplicaFollowerOptions fopt;
  fopt.leader_port = leader_server.port();
  fopt.fetch_wait = std::chrono::milliseconds(20);
  fopt.reconnect_backoff = std::chrono::milliseconds(20);
  auto follower = ReplicaFollower::Open(MakeEngine, fsvc, fopt);
  ASSERT_TRUE(follower.ok()) << follower.status();
  TcpServer follower_server((*follower)->service(), net);
  TOPKMON_ASSERT_OK(follower_server.Start());

  auto gen = MakeGenerator(Distribution::kIndependent, kDim, 7);
  Timestamp ts = 1;
  for (; ts <= 50; ++ts) {
    TOPKMON_ASSERT_OK((*leader)->Ingest(gen->NextPoint(), ts));
  }
  TOPKMON_ASSERT_OK((*leader)->Flush());
  TOPKMON_ASSERT_OK((*follower)->WaitForCycleTs(
      (*leader)->replication().applied_cycle_ts, std::chrono::seconds(30)));

  // The leader dies. Once the pump has seen a fetch fail, no fetch can
  // succeed again, so nothing stamps last_fetch_ok after the advance.
  FailoverOptions agent_opt;
  agent_opt.self_endpoint =
      "127.0.0.1:" + std::to_string(follower_server.port());
  agent_opt.election_timeout = std::chrono::seconds(60);
  agent_opt.poll_interval = std::chrono::milliseconds(20);
  const std::uint64_t fetch_errors = (*follower)->stats().fetch_errors;
  leader_server.Stop();
  (*leader)->Shutdown();
  const auto real_start = Clock::RealNow();
  const auto in_time = [&] {
    return Clock::RealNow() - real_start < std::chrono::seconds(5);
  };
  while ((*follower)->stats().fetch_errors == fetch_errors && in_time()) {
    std::this_thread::sleep_for(agent_opt.poll_interval);
  }
  ASSERT_GT((*follower)->stats().fetch_errors, fetch_errors);

  // A minute of silence on the follower's clock, none in real time.
  FailoverAgent agent(follower->get(), agent_opt);
  (*follower)->service().clock().Advance(std::chrono::seconds(61));
  while (!agent.promoted() && in_time()) {
    std::this_thread::sleep_for(agent_opt.poll_interval);
  }
  ASSERT_TRUE(agent.promoted())
      << "no promotion within 5 s of real time after a 61 s clock advance";
  EXPECT_EQ(agent.stats().elections_started, 1u);
  EXPECT_EQ((*follower)->service().role(), ServiceRole::kLeader);
  TOPKMON_ASSERT_OK((*follower)->service().Ingest(gen->NextPoint(), ts));
  TOPKMON_ASSERT_OK((*follower)->service().Flush());

  agent.Stop();
  follower_server.Stop();
  (*follower)->Stop();
  (*follower)->service().Shutdown();
}

}  // namespace
}  // namespace topkmon
