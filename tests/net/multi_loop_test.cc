// Multi-loop server tests: connection sharding across poll loops,
// replication-fetch pinning to the dedicated loop, cross-loop resume
// eviction, and the v3 ingest backpressure signal.
//
// The cross-loop isolation property under test is *progress*, not
// timing: a slow-loris peer or a saturating replication-fetch stream on
// one loop must never keep a connection on another loop from completing
// its round trips. Wall-clock latency assertions would be flaky on a
// loaded CI box, so the tests assert liveness (every healthy round trip
// completes while the hostile traffic is demonstrably concurrent — its
// counters grew) and use the deterministic virtual-clock/queue-shape
// setups where the property allows (the backpressure tests hold the
// ingest queue full via a frozen slack gate instead of racing a timer).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/brute_force_engine.h"
#include "journal/wire.h"
#include "net/client.h"
#include "net/server.h"
#include "tests/journal/journal_test_util.h"
#include "tests/net/net_test_util.h"
#include "tests/test_util.h"

namespace topkmon {
namespace {

constexpr int kDim = 2;

using ::topkmon::testing::TestServerOptions;

std::unique_ptr<MonitorService> MakeFastService() {
  ServiceOptions opt;
  opt.ingest.slack = 0;
  opt.drain_wait = std::chrono::milliseconds(1);
  return std::make_unique<MonitorService>(
      std::make_unique<BruteForceEngine>(kDim, WindowSpec::Count(200)),
      opt);
}

QuerySpec SumSpec(int k) {
  QuerySpec spec;
  spec.k = k;
  spec.function =
      std::make_shared<LinearFunction>(std::vector<double>{1.0, 1.0}, 0.0);
  return spec;
}

/// Runs one full healthy workflow against the server: handshake,
/// register, ingest, flush, snapshot.
void ExpectFullService(MonitorService& service, std::uint16_t port,
                       const std::string& label) {
  auto client = MonitorClient::Connect("127.0.0.1", port, label,
                                       /*resume=*/false);
  ASSERT_TRUE(client.ok()) << client.status();
  const auto query = (*client)->Register(SumSpec(2));
  ASSERT_TRUE(query.ok()) << query.status();
  std::vector<Record> batch;
  batch.emplace_back(0, Point{0.8, 0.8}, 1);
  batch.emplace_back(0, Point{0.2, 0.2}, 2);
  const auto ack = (*client)->Ingest(std::move(batch));
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(ack->accepted, 2u);
  TOPKMON_ASSERT_OK(service.Flush());
  const auto result = (*client)->CurrentResult(*query);
  ASSERT_TRUE(result.ok()) << result.status();
  TOPKMON_ASSERT_OK((*client)->Close(/*close_session=*/true));
}

/// Raw TCP peer for hostile traffic (dribbles bytes, never reads).
class RawPeer {
 public:
  explicit RawPeer(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~RawPeer() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }
  void Send(const std::string& bytes) {
    (void)::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
  }
  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }
  /// Reads until the server closes (bounded by a 2 s socket timeout).
  std::string ReadToEof() {
    timeval tv{2, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::string out;
    char buf[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
    return out;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

/// Parses every complete frame of `stream` into decoded messages.
std::vector<NetMessage> DecodeStream(const std::string& stream) {
  std::vector<NetMessage> out;
  std::size_t off = 0;
  while (true) {
    const char* body = nullptr;
    std::size_t body_len = 0;
    std::size_t consumed = 0;
    Status error;
    if (wire::TryParseFrame(stream.data() + off, stream.size() - off,
                            kMaxNetFrameBytes, &body, &body_len, &consumed,
                            &error) != wire::FrameParse::kFrame) {
      break;
    }
    NetMessage msg;
    if (!DecodeNetBody(body, body_len, &msg).ok()) break;
    out.push_back(std::move(msg));
    off += consumed;
  }
  return out;
}

TEST(MultiLoopServerTest, ConnectionsShardAcrossLoopsAndAllGetService) {
  auto service = MakeFastService();
  NetServerOptions opt = TestServerOptions();
  opt.server_threads = 3;
  TcpServer server(*service, opt);
  TOPKMON_ASSERT_OK(server.Start());
  EXPECT_EQ(server.loop_count(), 3u);
  // No journal -> no dedicated replication loop.
  EXPECT_EQ(server.replication_loop(), server.loop_count());

  // More concurrent clients than loops, all served in parallel.
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      ExpectFullService(*service, server.port(),
                        "shard-" + std::to_string(c));
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(server.stats().protocol_errors, 0u);
  server.Stop();
  service->Shutdown();
}

TEST(MultiLoopServerTest, SlowLorisOnOneLoopNeverStallsAnotherLoop) {
  auto service = MakeFastService();
  NetServerOptions opt = TestServerOptions();
  opt.server_threads = 2;
  TcpServer server(*service, opt);
  TOPKMON_ASSERT_OK(server.Start());

  // Connection order pins loops round-robin: the loris lands on loop 0.
  std::string stream;
  {
    std::string body;
    EncodeHello(false, "loris", &body);
    wire::PutFrame(body, &stream);
  }
  RawPeer loris(server.port());
  ASSERT_TRUE(loris.connected());

  // While the loris dribbles one byte per step, healthy clients —
  // landing on the other loop and on the loris's own loop alike — keep
  // completing full workflows. Liveness, not latency: every round trip
  // must finish while the loris connection is still open mid-frame.
  for (std::size_t i = 0; i < stream.size() - 1; ++i) {
    loris.Send(stream.substr(i, 1));
    if (i % 3 == 0) {
      ExpectFullService(*service, server.port(),
                        "during-loris-" + std::to_string(i));
    }
  }
  const NetServerStats mid = server.stats();
  EXPECT_GE(mid.open_connections, 1u) << "loris should still be parked";
  server.Stop();
  service->Shutdown();
}

// ---- journaled servers: the dedicated replication loop ------------------

struct JournaledServer {
  testing::ScopedTempDir dir;
  std::unique_ptr<MonitorService> service;
  std::unique_ptr<TcpServer> server;

  explicit JournaledServer(std::size_t threads) {
    ServiceOptions opt;
    opt.ingest.slack = 0;
    opt.drain_wait = std::chrono::milliseconds(1);
    opt.journal.dir = dir.path() + "/journal";
    service = std::make_unique<MonitorService>(
        std::make_unique<BruteForceEngine>(kDim, WindowSpec::Count(200)),
        opt);
    NetServerOptions net = testing::TestServerOptions();
    net.server_threads = threads;
    server = std::make_unique<TcpServer>(*service, net);
    if (!server->Start().ok()) std::abort();
  }
};

TEST(MultiLoopServerTest, ReplFetchMigratesToTheDedicatedLoop) {
  JournaledServer js(2);
  EXPECT_EQ(js.server->loop_count(), 2u);
  ASSERT_EQ(js.server->replication_loop(), 1u);

  // Put some bytes in the journal first.
  ExpectFullService(*js.service, js.server->port(), "writer");

  // A fetching client necessarily lands on loop 0 (the only
  // client-facing loop); its first ReplFetch moves it to loop 1.
  auto fetcher = MonitorClient::Connect("127.0.0.1", js.server->port(),
                                        "follower", /*resume=*/false);
  ASSERT_TRUE(fetcher.ok()) << fetcher.status();
  const auto chunk =
      (*fetcher)->ReplFetch(0, 0, 1 << 20, std::chrono::milliseconds(0));
  ASSERT_TRUE(chunk.ok()) << chunk.status();
  EXPECT_FALSE(chunk->data.empty()) << "journal should hold the anchor";

  const NetServerStats stats = js.server->stats();
  EXPECT_EQ(stats.connections_migrated, 1u);
  EXPECT_GE(stats.repl_chunks_sent, 1u);

  // The migrated connection keeps full service from its new loop: more
  // fetches, and ordinary requests too (same session, same socket).
  const auto more = (*fetcher)->ReplFetch(0, chunk->data.size(), 1 << 20,
                                          std::chrono::milliseconds(0));
  EXPECT_TRUE(more.ok()) << more.status();
  const auto query = (*fetcher)->Register(SumSpec(1));
  EXPECT_TRUE(query.ok()) << query.status();
  EXPECT_EQ(js.server->stats().connections_migrated, 1u)
      << "already on the dedicated loop; no second migration";
  TOPKMON_ASSERT_OK((*fetcher)->Close(/*close_session=*/true));
  js.server->Stop();
  js.service->Shutdown();
}

TEST(MultiLoopServerTest, HalfCloseBehindAMigrationStillGetsItsChunk) {
  // A peer that pipelines Hello + ReplFetch and immediately half-closes
  // races the close against the migration to the dedicated loop. The
  // deferred-close path must still serve both responses (the old
  // single-loop server did) before closing the socket.
  JournaledServer js(2);
  RawPeer peer(js.server->port());
  ASSERT_TRUE(peer.connected());
  std::string stream;
  {
    std::string body;
    EncodeHello(false, "eof-fetcher", &body);
    wire::PutFrame(body, &stream);
    body.clear();
    EncodeReplFetch(0, 0, 1 << 20, /*wait_ms=*/0, &body);
    wire::PutFrame(body, &stream);
  }
  peer.Send(stream);
  peer.ShutdownWrite();
  const std::vector<NetMessage> replies = DecodeStream(peer.ReadToEof());
  ASSERT_EQ(replies.size(), 2u)
      << "expected Welcome + ReplChunk before the close";
  EXPECT_EQ(replies[0].type, NetMessageType::kWelcome);
  EXPECT_EQ(replies[1].type, NetMessageType::kReplChunk);
  EXPECT_FALSE(replies[1].data.empty());
  js.server->Stop();
  js.service->Shutdown();
}

TEST(MultiLoopServerTest, FetchSaturationNeverStallsClientIngest) {
  JournaledServer js(2);
  // Seed the journal with enough bytes that fetch clients have real
  // chunks to chew through.
  {
    auto seeder = MonitorClient::Connect("127.0.0.1", js.server->port(),
                                         "seeder", /*resume=*/false);
    ASSERT_TRUE(seeder.ok()) << seeder.status();
    std::vector<Record> batch;
    for (int i = 1; i <= 2000; ++i) {
      batch.emplace_back(0, Point{0.5, 0.5}, static_cast<Timestamp>(i));
      if (batch.size() == 200) {
        const auto ack = (*seeder)->Ingest(std::move(batch));
        ASSERT_TRUE(ack.ok()) << ack.status();
        batch.clear();
      }
    }
    TOPKMON_ASSERT_OK(js.service->Flush());
    TOPKMON_ASSERT_OK((*seeder)->Close(/*close_session=*/true));
  }

  // Two saturator threads hammer ReplFetch with tiny chunks in a tight
  // loop (each iteration is a full round trip with a raw journal read
  // behind it), re-walking the journal from the start whenever they
  // drain it. They migrate to the dedicated loop on their first fetch.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> fetch_round_trips{0};
  std::vector<std::thread> saturators;
  for (int s = 0; s < 2; ++s) {
    saturators.emplace_back([&, s] {
      auto client = MonitorClient::Connect(
          "127.0.0.1", js.server->port(), "sat-" + std::to_string(s),
          /*resume=*/false);
      if (!client.ok()) return;
      std::uint64_t segment = 0;
      std::uint64_t offset = 0;
      while (!stop.load()) {
        const auto chunk = (*client)->ReplFetch(
            segment, offset, 512, std::chrono::milliseconds(0));
        if (!chunk.ok()) break;
        fetch_round_trips.fetch_add(1);
        if (chunk->restart) {
          segment = chunk->next_segment;
          offset = 0;
        } else if (chunk->sealed && chunk->data.empty()) {
          segment = chunk->next_segment;
          offset = 0;
        } else if (chunk->data.empty()) {
          segment = 0;  // tail reached: walk the journal again
          offset = 0;
        } else {
          offset = chunk->offset + chunk->data.size();
        }
      }
      (void)(*client)->Close(/*close_session=*/false);
    });
  }

  // Meanwhile a client-loop connection must complete every one of its
  // ingest round trips and long-polls. Progress is the assertion.
  {
    auto client = MonitorClient::Connect("127.0.0.1", js.server->port(),
                                         "interactive", /*resume=*/false);
    ASSERT_TRUE(client.ok()) << client.status();
    const auto query = (*client)->Register(SumSpec(3));
    ASSERT_TRUE(query.ok()) << query.status();
    Timestamp ts = 10000;
    // At least 40 interactive rounds, and keep going until the
    // saturators have demonstrably run concurrently (200 fetch round
    // trips) — both sides must overlap for the assertion to mean
    // anything.
    for (int round = 0;
         round < 40 || fetch_round_trips.load() < 200; ++round) {
      std::vector<Record> batch;
      for (int i = 0; i < 25; ++i) {
        batch.emplace_back(0, Point{0.3, 0.7}, ++ts);
      }
      const auto ack = (*client)->Ingest(std::move(batch));
      ASSERT_TRUE(ack.ok()) << ack.status();
      EXPECT_EQ(ack->accepted, 25u);
      const auto events =
          (*client)->PollDeltas(64, std::chrono::milliseconds(5));
      ASSERT_TRUE(events.ok()) << events.status();
    }
    TOPKMON_ASSERT_OK((*client)->Close(/*close_session=*/true));
  }
  stop.store(true);
  for (std::thread& t : saturators) t.join();

  // The hostile load was genuinely concurrent: the saturators completed
  // plenty of fetch round trips (each one a journal read on the
  // dedicated loop) while every interactive round trip succeeded.
  EXPECT_GE(fetch_round_trips.load(), 200u);
  const NetServerStats stats = js.server->stats();
  EXPECT_GE(stats.connections_migrated, 2u);
  EXPECT_EQ(js.service->stats().failed_cycles, 0u);
  js.server->Stop();
  js.service->Shutdown();
}

TEST(MultiLoopServerTest, ResumeEvictsAParkedPollAcrossLoops) {
  auto service = MakeFastService();
  NetServerOptions opt = TestServerOptions();
  opt.server_threads = 2;
  TcpServer server(*service, opt);
  TOPKMON_ASSERT_OK(server.Start());

  // Connection order: stale -> loop 0, fresh -> loop 1. The eviction
  // therefore must cross loops.
  auto stale = MonitorClient::Connect("127.0.0.1", server.port(), "dash",
                                      /*resume=*/false);
  ASSERT_TRUE(stale.ok()) << stale.status();
  const auto query = (*stale)->Register(SumSpec(2));
  ASSERT_TRUE(query.ok()) << query.status();

  Status stale_outcome;
  std::thread parked([&] {
    const auto events =
        (*stale)->PollDeltas(16, std::chrono::milliseconds(5000));
    stale_outcome = events.status();
  });
  // Wait until the poll is genuinely parked server-side.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  auto fresh = MonitorClient::Connect("127.0.0.1", server.port(), "dash",
                                      /*resume=*/true);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_TRUE((*fresh)->resumed());
  parked.join();
  EXPECT_EQ(stale_outcome.code(), StatusCode::kFailedPrecondition)
      << stale_outcome;

  // The fresh connection — not the evicted one — consumes the stream.
  std::vector<Record> batch;
  batch.emplace_back(0, Point{0.9, 0.9}, 1);
  const auto ack = (*fresh)->Ingest(std::move(batch));
  ASSERT_TRUE(ack.ok()) << ack.status();
  TOPKMON_ASSERT_OK(service->Flush());
  const auto events =
      (*fresh)->PollDeltas(16, std::chrono::milliseconds(2000));
  ASSERT_TRUE(events.ok()) << events.status();
  ASSERT_FALSE(events->empty());
  EXPECT_EQ(events->front().delta.query, *query);
  server.Stop();
  service->Shutdown();
}

// ---- v3 backpressure ----------------------------------------------------

TEST(IngestBackpressureTest, QueueHintRisesAndQueueFullRejectsSuffix) {
  // A frozen queue: capacity 8, a slack gate that can never clear, and a
  // drain wait far longer than the test — depth only moves when we push.
  // This makes every hint value deterministic (no timer races).
  ServiceOptions opt;
  opt.ingest.capacity = 8;
  opt.ingest.slack = Timestamp{1} << 40;
  opt.drain_wait = std::chrono::seconds(30);
  MonitorService service(
      std::make_unique<BruteForceEngine>(kDim, WindowSpec::Count(100)),
      opt);
  TcpServer server(service, testing::TestServerOptions());
  TOPKMON_ASSERT_OK(server.Start());

  auto client = MonitorClient::Connect("127.0.0.1", server.port(),
                                       "pressured", /*resume=*/false);
  ASSERT_TRUE(client.ok()) << client.status();

  // Below the high-water mark (depth 3 of 8): hint 0.
  std::vector<Record> calm;
  for (Timestamp ts = 1; ts <= 3; ++ts) {
    calm.emplace_back(0, Point{0.5, 0.5}, ts);
  }
  const auto ack1 = (*client)->Ingest(std::move(calm));
  ASSERT_TRUE(ack1.ok()) << ack1.status();
  EXPECT_EQ(ack1->accepted, 3u);
  EXPECT_EQ(ack1->queue_hint, 0);
  EXPECT_EQ((*client)->last_ingest_hint(), 0);

  // A batch that overruns capacity: the accepted tuples are exactly the
  // (arrival-sorted) prefix, the suffix is refused RESOURCE_EXHAUSTED,
  // and the hint saturates — the producer's cue to back off and retry
  // the suffix.
  std::vector<Record> burst;
  for (Timestamp ts = 4; ts <= 23; ++ts) {
    burst.emplace_back(0, Point{0.5, 0.5}, ts);
  }
  const auto ack2 = (*client)->Ingest(std::move(burst));
  ASSERT_TRUE(ack2.ok()) << ack2.status();
  EXPECT_EQ(ack2->accepted, 5u) << "capacity 8 minus the 3 buffered";
  EXPECT_EQ(ack2->rejected, 15u);
  EXPECT_EQ(ack2->first_error.code(), StatusCode::kResourceExhausted)
      << ack2->first_error;
  EXPECT_EQ(ack2->queue_hint, 255);
  EXPECT_EQ((*client)->last_ingest_hint(), 255);

  // The refusal is an answer, not a disconnect — and crucially the poll
  // loop never blocked on the full queue: the same connection keeps
  // getting served instantly (control plane and reads don't touch the
  // ingest queue).
  const auto query = (*client)->Register(SumSpec(2));
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_TRUE((*client)->CurrentResult(*query).ok());

  const NetServerStats stats = server.stats();
  EXPECT_EQ(stats.records_ingested, 8u);
  EXPECT_EQ(stats.records_backpressured, 15u);
  EXPECT_EQ(stats.protocol_errors, 0u);

  TOPKMON_ASSERT_OK((*client)->Close(/*close_session=*/true));
  server.Stop();
  service.Shutdown();
}

TEST(IngestBackpressureTest, ProducerPacingLoopDrainsEverythingEventually) {
  // The documented producer protocol: on RESOURCE_EXHAUSTED, retry the
  // unaccepted suffix after a backoff scaled by the hint. With a live
  // driver the queue drains, so the loop always terminates with every
  // tuple admitted exactly once.
  ServiceOptions opt;
  opt.ingest.capacity = 64;
  opt.ingest.slack = 0;
  opt.drain_wait = std::chrono::milliseconds(1);
  MonitorService service(
      std::make_unique<BruteForceEngine>(kDim, WindowSpec::Count(5000)),
      opt);
  TcpServer server(service, testing::TestServerOptions());
  TOPKMON_ASSERT_OK(server.Start());

  auto client = MonitorClient::Connect("127.0.0.1", server.port(),
                                       "paced", /*resume=*/false);
  ASSERT_TRUE(client.ok()) << client.status();

  const std::size_t total = 3000;
  std::vector<Record> pending;
  for (Timestamp ts = 1; ts <= static_cast<Timestamp>(total); ++ts) {
    pending.emplace_back(0, Point{0.4, 0.6}, ts);
  }
  std::uint64_t admitted = 0;
  while (!pending.empty()) {
    std::vector<Record> batch = pending;  // already arrival-sorted
    const auto ack = (*client)->Ingest(std::move(batch));
    ASSERT_TRUE(ack.ok()) << ack.status();
    admitted += ack->accepted;
    if (ack->rejected > 0) {
      ASSERT_EQ(ack->first_error.code(), StatusCode::kResourceExhausted)
          << ack->first_error;
      pending.erase(pending.begin(),
                    pending.begin() + static_cast<long>(ack->accepted));
      // Hint-scaled backoff: saturated queue -> longer wait.
      std::this_thread::sleep_for(
          std::chrono::microseconds(50 * (1 + ack->queue_hint / 64)));
    } else {
      pending.clear();
    }
  }
  EXPECT_EQ(admitted, total);
  TOPKMON_ASSERT_OK(service.Flush());
  EXPECT_EQ(service.stats().records_applied, total);
  TOPKMON_ASSERT_OK((*client)->Close(/*close_session=*/true));
  server.Stop();
  service.Shutdown();
}

}  // namespace
}  // namespace topkmon
