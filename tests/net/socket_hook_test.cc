// Hostile transport against the TCP server and client, driven through
// the socket test hook (src/util/socket.h): every server read and write
// cut to one byte, a reset in the middle of a frame, failing accepts, and
// client connects, sends and reads that fail. Each must cost only its own
// connection, and a cut transport must carry the same replies as an
// uncut one. Also: both servers map bind errors alike.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/brute_force_engine.h"
#include "journal/wire.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/admin_server.h"
#include "tests/net/net_test_util.h"
#include "tests/test_util.h"

namespace topkmon {
namespace {

using ::topkmon::testing::ScopedSocketHook;
using ::topkmon::testing::SocketPort;

constexpr int kDim = 2;

std::unique_ptr<MonitorService> MakeService() {
  ServiceOptions options;
  options.ingest.slack = 0;
  options.drain_wait = std::chrono::milliseconds(1);
  return std::make_unique<MonitorService>(
      std::make_unique<BruteForceEngine>(kDim, WindowSpec::Count(100)),
      options);
}

QuerySpec Linear(double wx, double wy, std::size_t k) {
  QuerySpec spec;
  spec.k = k;
  spec.function =
      std::make_shared<LinearFunction>(std::vector<double>{wx, wy}, 0.0);
  return spec;
}

/// Records [first, first + n) of a fixed stream, one arrival each.
std::vector<Record> Batch(int first, int n) {
  std::vector<Record> batch;
  for (int i = first; i < first + n; ++i) {
    batch.emplace_back(0, Point{(i * 37 % 101) / 101.0, (i * 61 % 103) / 103.0},
                       i + 1);
  }
  return batch;
}

/// Waits up to 5 s for `done`.
template <typename Pred>
bool WaitFor(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// What one scripted session saw: each reply re-encoded in its wire form,
/// so two runs compare byte for byte, and the server's counters.
struct Transcript {
  std::vector<std::string> replies;
  NetServerStats stats;
  std::uint64_t cut_calls = 0;
};

/// Hello, a RegisterBatch, 5 ingest frames, a snapshot and a poll; with
/// `cut`, every server read and write moves one byte at most.
void RunScript(bool cut, Transcript* out) {
  std::atomic<std::uint16_t> server_port{0};
  std::atomic<std::uint64_t> cut_calls{0};
  ScopedSocketHook hook([&](socket::Op op, int fd, std::size_t* bytes) {
    if (cut && (op == socket::Op::kRead || op == socket::Op::kWrite) &&
        SocketPort(fd, /*peer=*/false) == server_port.load()) {
      *bytes = 1;
      ++cut_calls;
    }
    return 0;
  });
  auto service = MakeService();
  TcpServer server(*service, testing::TestServerOptions());
  TOPKMON_ASSERT_OK(server.Start());
  server_port.store(server.port());

  auto client = MonitorClient::Connect("127.0.0.1", server.port(), "script",
                                       /*resume=*/false);
  ASSERT_TRUE(client.ok()) << client.status();
  out->replies.push_back("session " + std::to_string((*client)->session()));
  const auto outcomes = (*client)->RegisterBatch(
      {Linear(1, 1, 5), Linear(1, 0.2, 3), Linear(0.3, 1, 4)});
  ASSERT_TRUE(outcomes.ok()) << outcomes.status();
  std::string body;
  EncodeRegisterBatchAck(*outcomes, &body);
  out->replies.push_back(body);
  for (int frame = 0; frame < 5; ++frame) {
    const auto ack = (*client)->Ingest(Batch(frame * 40, 40));
    ASSERT_TRUE(ack.ok()) << ack.status();
    out->replies.push_back(
        "ack " + std::to_string(ack->accepted) + " " +
        std::to_string(ack->rejected) + " " +
        std::to_string(ack->queue_hint) + " " + ack->first_error.ToString());
    // One frame, one cycle: the deltas do not depend on the timing.
    TOPKMON_ASSERT_OK(service->Flush());
  }
  const auto snapshot = (*client)->CurrentResult((*outcomes)[0].query);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  body.clear();
  EncodeSnapshotResult(*snapshot, (*client)->snapshot_as_of(),
                       (*client)->snapshot_stale_by(), &body);
  out->replies.push_back(body);
  const auto deltas = (*client)->PollDeltas(0, std::chrono::milliseconds(0));
  ASSERT_TRUE(deltas.ok()) << deltas.status();
  EXPECT_FALSE(deltas->empty());
  body.clear();
  EncodeDeltas(*deltas, (*client)->deltas_as_of(),
               (*client)->deltas_truncated(), &body);
  out->replies.push_back(body);
  TOPKMON_ASSERT_OK((*client)->Close(/*close_session=*/true));
  server.Stop();
  service->Shutdown();
  out->stats = server.stats();
  out->cut_calls = cut_calls.load();
}

TEST(ServerSocketHookTest, OneByteReadsAndWritesCarryTheSameReplies) {
  Transcript whole;
  Transcript cut;
  ASSERT_NO_FATAL_FAILURE(RunScript(/*cut=*/false, &whole));
  ASSERT_NO_FATAL_FAILURE(RunScript(/*cut=*/true, &cut));
  EXPECT_EQ(cut.replies, whole.replies);
  EXPECT_EQ(cut.stats.frames_received, whole.stats.frames_received);
  EXPECT_EQ(cut.stats.frames_sent, whole.stats.frames_sent);
  EXPECT_EQ(cut.stats.bytes_received, whole.stats.bytes_received);
  EXPECT_EQ(cut.stats.bytes_sent, whole.stats.bytes_sent);
  EXPECT_EQ(cut.stats.protocol_errors, 0u);
  // Every byte the server moved took a call of its own.
  EXPECT_EQ(whole.cut_calls, 0u);
  EXPECT_GE(cut.cut_calls, cut.stats.bytes_received + cut.stats.bytes_sent);
}

TEST(ServerSocketHookTest, ResetMidFrameFailsOnlyThatConnection) {
  std::atomic<std::uint16_t> victim{0};
  ScopedSocketHook hook([&](socket::Op op, int fd, std::size_t*) {
    const std::uint16_t port = victim.load();
    return op == socket::Op::kRead && port != 0 &&
                   SocketPort(fd, /*peer=*/true) == port
               ? ECONNRESET
               : 0;
  });
  auto service = MakeService();
  NetServerOptions options = testing::TestServerOptions();
  options.server_threads = 1;  // both connections on one loop
  TcpServer server(*service, options);
  TOPKMON_ASSERT_OK(server.Start());

  auto healthy = MonitorClient::Connect("127.0.0.1", server.port(), "healthy",
                                        /*resume=*/false);
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  const auto query = (*healthy)->Register(Linear(1, 1, 3));
  ASSERT_TRUE(query.ok()) << query.status();
  auto ack = (*healthy)->Ingest(Batch(0, 20));
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(ack->accepted, 20u);

  // The victim says Hello, reads its Welcome, then sends half an ingest
  // frame; once the server holds that half, its next read is reset.
  auto peer = socket::Connect("127.0.0.1", server.port(),
                              std::chrono::seconds(2));
  ASSERT_TRUE(peer.ok()) << peer.status();
  std::string body;
  EncodeHello(/*resume=*/false, "victim", &body);
  std::string out;
  wire::PutFrame(body, &out);
  ASSERT_EQ(socket::Flush(*peer, &out).error, 0);
  std::string in;
  const char* welcome = nullptr;
  std::size_t welcome_len = 0;
  std::size_t consumed = 0;
  Status error;
  while (wire::TryParseFrame(in.data(), in.size(), kMaxNetFrameBytes,
                             &welcome, &welcome_len, &consumed,
                             &error) != wire::FrameParse::kFrame) {
    ASSERT_GT(socket::ReadSome(*peer, &in, socket::kReadChunkBytes).bytes, 0u)
        << "no Welcome";
  }
  ASSERT_EQ(consumed, in.size());
  body.clear();
  EncodeIngest(Batch(20, 20), &body);
  std::string frame;
  wire::PutFrame(body, &frame);
  const NetServerStats before = server.stats();
  out = frame.substr(0, frame.size() / 2);
  const std::size_t half = out.size();
  ASSERT_EQ(socket::Flush(*peer, &out).error, 0);
  ASSERT_TRUE(WaitFor([&] {
    return server.stats().bytes_received >= before.bytes_received + half;
  }));
  victim.store(SocketPort(peer->fd(), /*peer=*/false));
  out = frame.substr(half);
  ASSERT_EQ(socket::Flush(*peer, &out).error, 0);

  // The server drops the connection without an error frame.
  in.clear();
  socket::IoResult read;
  while ((read = socket::ReadSome(*peer, &in, socket::kReadChunkBytes))
             .bytes > 0) {
  }
  EXPECT_TRUE(in.empty());
  EXPECT_TRUE(read.eof || read.error != 0);
  ASSERT_TRUE(WaitFor([&] {
    return server.stats().connections_closed ==
           before.connections_closed + 1;
  }));
  EXPECT_EQ(server.stats().protocol_errors, before.protocol_errors);

  // The healthy client on the same loop keeps ingesting.
  ack = (*healthy)->Ingest(Batch(40, 20));
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(ack->accepted, 20u);
  TOPKMON_ASSERT_OK(service->Flush());
  const auto result = (*healthy)->CurrentResult(*query);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 3u);
  EXPECT_EQ(server.stats().records_ingested, 40u);
  TOPKMON_ASSERT_OK((*healthy)->Close(/*close_session=*/true));
  server.Stop();
  service->Shutdown();
}

TEST(ServerSocketHookTest, AcceptorOutlastsFailingAccepts) {
  std::atomic<bool> refuse{true};
  std::atomic<int> refused{0};
  ScopedSocketHook hook([&](socket::Op op, int, std::size_t*) {
    if (op != socket::Op::kAccept || !refuse.load()) return 0;
    ++refused;
    return EMFILE;
  });
  auto service = MakeService();
  TcpServer server(*service, testing::TestServerOptions());
  TOPKMON_ASSERT_OK(server.Start());
  // The kernel completes the handshake, and the client's Hello waits
  // while the acceptor's accepts fail, until they stop failing.
  std::thread relent([&] {
    WaitFor([&] { return refused.load() >= 3; });
    refuse.store(false);
  });
  auto client = MonitorClient::Connect("127.0.0.1", server.port(), "late",
                                       /*resume=*/false);
  relent.join();
  ASSERT_TRUE(client.ok()) << client.status();
  EXPECT_GE(refused.load(), 3);
  EXPECT_EQ(server.stats().connections_accepted, 1u);
  TOPKMON_ASSERT_OK((*client)->Close(/*close_session=*/true));
  server.Stop();
  service->Shutdown();
}

/// A server and one connected client whose own socket calls the test's
/// `fault` sees (calls on the server's sockets never reach it).
class ClientFaultFixture {
 public:
  using Fault = std::function<int(socket::Op op, std::size_t* bytes)>;

  explicit ClientFaultFixture(Fault fault)
      : hook_([this, fault](socket::Op op, int fd, std::size_t* bytes) {
          return armed_.load() && SocketPort(fd, /*peer=*/true) == port_.load()
                     ? fault(op, bytes)
                     : 0;
        }),
        service_(MakeService()),
        server_(*service_, testing::TestServerOptions()) {}

  ~ClientFaultFixture() {
    client_.reset();
    server_.Stop();
    service_->Shutdown();
  }

  void Start() {
    TOPKMON_ASSERT_OK(server_.Start());
    port_.store(server_.port());
    auto client = MonitorClient::Connect("127.0.0.1", server_.port(), "c",
                                         /*resume=*/false);
    ASSERT_TRUE(client.ok()) << client.status();
    client_ = std::move(*client);
  }

  void Arm(bool on) { armed_.store(on); }
  MonitorClient& client() { return *client_; }
  TcpServer& server() { return server_; }

 private:
  std::atomic<bool> armed_{false};
  std::atomic<std::uint16_t> port_{0};
  ScopedSocketHook hook_;
  std::unique_ptr<MonitorService> service_;
  TcpServer server_;
  std::unique_ptr<MonitorClient> client_;
};

void ExpectClosed(MonitorClient& client) {
  EXPECT_FALSE(client.connected());
  const auto next = client.CurrentResult(1);
  EXPECT_EQ(next.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(next.status().message(), "client is closed");
}

TEST(NetClientSocketHookTest, SendFailingMidFrameClosesTheClient) {
  std::atomic<int> writes{0};
  ClientFaultFixture f([&](socket::Op op, std::size_t* bytes) {
    if (op != socket::Op::kWrite) return 0;
    if (writes++ > 0) return ECONNRESET;
    *bytes = 5;  // the first send takes part of the frame
    return 0;
  });
  ASSERT_NO_FATAL_FAILURE(f.Start());
  f.Arm(true);
  const auto query = f.client().Register(Linear(1, 1, 3));
  EXPECT_EQ(query.status().code(), StatusCode::kInternal);
  EXPECT_EQ(writes.load(), 2);
  f.Arm(false);
  ExpectClosed(f.client());
}

TEST(NetClientSocketHookTest, ReadResetClosesTheClientBeforeItsLateReply) {
  ClientFaultFixture f([](socket::Op op, std::size_t*) {
    return op == socket::Op::kRead ? ECONNRESET : 0;
  });
  ASSERT_NO_FATAL_FAILURE(f.Start());
  const std::uint64_t sent = f.server().stats().frames_sent;
  f.Arm(true);
  const auto query = f.client().Register(Linear(1, 1, 3));
  EXPECT_EQ(query.status().code(), StatusCode::kInternal);
  f.Arm(false);
  // The server did answer: a client that read on would take this
  // RegisterAck as the reply to its next request.
  ASSERT_TRUE(
      WaitFor([&] { return f.server().stats().frames_sent == sent + 1; }));
  ExpectClosed(f.client());
}

TEST(NetClientSocketHookTest, RefusedConnectIsAnInternalError) {
  ScopedSocketHook hook([](socket::Op op, int, std::size_t*) {
    return op == socket::Op::kConnect ? ECONNREFUSED : 0;
  });
  auto service = MakeService();
  TcpServer server(*service, testing::TestServerOptions());
  TOPKMON_ASSERT_OK(server.Start());
  const auto client = MonitorClient::Connect("127.0.0.1", server.port(), "c",
                                             /*resume=*/false);
  EXPECT_EQ(client.status().code(), StatusCode::kInternal);
  EXPECT_NE(client.status().message().find(std::strerror(ECONNREFUSED)),
            std::string::npos)
      << client.status();
  server.Stop();
  EXPECT_EQ(server.stats().connections_accepted, 0u);
  service->Shutdown();
}

/// A live listener on a loopback port, bound without the socket module.
class HeldPort {
 public:
  HeldPort() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ok_ = ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
              0 &&
          ::listen(fd_, 4) == 0;
    port_ = SocketPort(fd_, /*peer=*/false);
  }
  ~HeldPort() { ::close(fd_); }
  bool ok() const { return ok_ && port_ != 0; }
  std::uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  bool ok_ = false;
  std::uint16_t port_ = 0;
};

TEST(ServerListenTest, PortInUseIsFailedPreconditionOnBothServers) {
  HeldPort held;
  ASSERT_TRUE(held.ok());
  auto service = MakeService();
  NetServerOptions options = testing::TestServerOptions();
  options.port = held.port();
  TcpServer server(*service, options);
  EXPECT_EQ(server.Start().code(), StatusCode::kFailedPrecondition);
  AdminServerOptions admin_options;
  admin_options.port = held.port();
  AdminHttpServer admin(admin_options);
  EXPECT_EQ(admin.Start().code(), StatusCode::kFailedPrecondition);
  service->Shutdown();
}

TEST(ServerListenTest, BadAddressIsInvalidArgumentOnBothServers) {
  auto service = MakeService();
  NetServerOptions options = testing::TestServerOptions();
  options.bind_address = "localhost";  // not a dotted quad
  TcpServer server(*service, options);
  EXPECT_EQ(server.Start().code(), StatusCode::kInvalidArgument);
  AdminServerOptions admin_options;
  admin_options.bind_address = "300.1.2.3";
  AdminHttpServer admin(admin_options);
  EXPECT_EQ(admin.Start().code(), StatusCode::kInvalidArgument);
  service->Shutdown();
}

}  // namespace
}  // namespace topkmon
