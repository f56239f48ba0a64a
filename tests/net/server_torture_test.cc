// Protocol torture tests: hostile and broken peers against the TCP
// server. The invariant under test is liveness — truncated frames, CRC
// damage, wrong versions, oversized length prefixes, request floods and
// slow-loris dribbles must each yield a clean per-connection error (an
// Error frame and/or a close), while a well-behaved client on another
// connection keeps getting served the whole time.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/brute_force_engine.h"
#include "journal/wire.h"
#include "net/client.h"
#include "net/server.h"
#include "tests/net/net_test_util.h"
#include "tests/test_util.h"

namespace topkmon {
namespace {

constexpr int kDim = 2;

ServiceOptions FastOptions() {
  ServiceOptions opt;
  opt.ingest.slack = 0;
  opt.drain_wait = std::chrono::milliseconds(1);
  return opt;
}

NetServerOptions FastServer() { return testing::TestServerOptions(); }

/// A raw TCP connection to the server under test, for speaking broken
/// protocol on purpose.
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
    timeval tv{2, 0};  // reads give up after 2 s
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  ~RawPeer() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  void Send(const std::string& bytes) {
    (void)::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
  }

  /// Reads the next frame body into *msg, waiting up to `seconds`.
  /// False on a close, a timeout or an undecodable frame.
  bool ReadFrame(NetMessage* msg, int seconds) {
    char buf[4096];
    for (int waited = 0; waited < seconds;) {
      const char* body = nullptr;
      std::size_t body_len = 0;
      std::size_t consumed = 0;
      Status error;
      const wire::FrameParse parse =
          wire::TryParseFrame(pending_.data(), pending_.size(),
                              kMaxNetFrameBytes, &body, &body_len, &consumed,
                              &error);
      if (parse == wire::FrameParse::kBad) return false;
      if (parse == wire::FrameParse::kFrame) {
        const bool ok = DecodeNetBody(body, body_len, msg).ok();
        pending_.erase(0, consumed);
        return ok;
      }
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return false;
      if (n < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
        waited += 2;  // one SO_RCVTIMEO period
        continue;
      }
      pending_.append(buf, static_cast<std::size_t>(n));
    }
    return false;
  }

  /// Reads until the peer closes (or the 2 s timeout); returns all bytes.
  std::string ReadToEof() {
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
  std::string pending_;  ///< received bytes not yet parsed by ReadFrame
};

/// Decodes the first frame of `stream` as an Error message; reports the
/// carried status via *code. False if the stream holds no clean frame.
bool FirstFrameIsError(const std::string& stream, StatusCode* code) {
  const char* body = nullptr;
  std::size_t body_len = 0;
  std::size_t consumed = 0;
  Status error;
  if (wire::TryParseFrame(stream.data(), stream.size(), kMaxNetFrameBytes,
                          &body, &body_len, &consumed,
                          &error) != wire::FrameParse::kFrame) {
    return false;
  }
  NetMessage msg;
  if (!DecodeNetBody(body, body_len, &msg).ok()) return false;
  if (msg.type != NetMessageType::kError) return false;
  *code = msg.code;
  return true;
}

/// Asserts the server still serves a full healthy workflow: handshake,
/// register, ingest, flush, snapshot.
void ExpectServerHealthy(MonitorService& service, std::uint16_t port,
                         const std::string& label) {
  auto client = MonitorClient::Connect("127.0.0.1", port, label,
                                       /*resume=*/false);
  ASSERT_TRUE(client.ok()) << client.status();
  QuerySpec spec;
  spec.k = 2;
  spec.function =
      std::make_shared<LinearFunction>(std::vector<double>{1.0, 1.0}, 0.0);
  const auto query = (*client)->Register(spec);
  ASSERT_TRUE(query.ok()) << query.status();
  std::vector<Record> batch;
  batch.emplace_back(0, Point{0.9, 0.9}, 1);
  batch.emplace_back(0, Point{0.1, 0.1}, 2);
  const auto ack = (*client)->Ingest(std::move(batch));
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(ack->accepted, 2u);
  TOPKMON_ASSERT_OK(service.Flush());
  const auto result = (*client)->CurrentResult(*query);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 2u);
  TOPKMON_ASSERT_OK((*client)->Close(/*close_session=*/true));
}

class ServerTortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service_ = std::make_unique<MonitorService>(
        std::make_unique<BruteForceEngine>(kDim, WindowSpec::Count(100)),
        FastOptions());
    server_ = std::make_unique<TcpServer>(*service_, FastServer());
    TOPKMON_ASSERT_OK(server_->Start());
  }

  void TearDown() override {
    server_->Stop();
    service_->Shutdown();
  }

  std::unique_ptr<MonitorService> service_;
  std::unique_ptr<TcpServer> server_;
};

TEST_F(ServerTortureTest, GarbageBytesGetAnErrorFrameAndAClose) {
  RawPeer peer(server_->port());
  ASSERT_TRUE(peer.connected());
  peer.Send("GET / HTTP/1.1\r\nHost: topkmon\r\n\r\n");
  StatusCode code = StatusCode::kOk;
  // "GET ..." parses as an absurd length prefix -> framing violation.
  EXPECT_TRUE(FirstFrameIsError(peer.ReadToEof(), &code));
  EXPECT_EQ(code, StatusCode::kInvalidArgument);
  EXPECT_GE(server_->stats().protocol_errors, 1u);
  ExpectServerHealthy(*service_, server_->port(), "after-garbage");
}

TEST_F(ServerTortureTest, BadCrcFailsOnlyThatConnection) {
  std::string body;
  EncodeHello(false, "evil", &body);
  std::string stream;
  wire::PutFrame(body, &stream);
  stream[wire::kFrameHeaderBytes] ^= 0x40;  // damage the body, keep the CRC
  RawPeer peer(server_->port());
  peer.Send(stream);
  StatusCode code = StatusCode::kOk;
  EXPECT_TRUE(FirstFrameIsError(peer.ReadToEof(), &code));
  EXPECT_EQ(code, StatusCode::kInvalidArgument);
  ExpectServerHealthy(*service_, server_->port(), "after-crc");
}

TEST_F(ServerTortureTest, WrongVersionAndWrongMagicAreRefused) {
  {
    std::string body;
    EncodeHello(false, "time-traveler", &body);
    body[5] = 99;  // version field (after type + magic)
    std::string stream;
    wire::PutFrame(body, &stream);
    RawPeer peer(server_->port());
    peer.Send(stream);
    StatusCode code = StatusCode::kOk;
    EXPECT_TRUE(FirstFrameIsError(peer.ReadToEof(), &code));
    EXPECT_EQ(code, StatusCode::kUnimplemented);
  }
  {
    std::string body;
    EncodeHello(false, "imposter", &body);
    body[1] ^= 0x7F;  // magic field
    std::string stream;
    wire::PutFrame(body, &stream);
    RawPeer peer(server_->port());
    peer.Send(stream);
    StatusCode code = StatusCode::kOk;
    EXPECT_TRUE(FirstFrameIsError(peer.ReadToEof(), &code));
    EXPECT_EQ(code, StatusCode::kInvalidArgument);
  }
  ExpectServerHealthy(*service_, server_->port(), "after-version");
}

TEST_F(ServerTortureTest, PreviousVersionHelloNegotiatesItsDialect) {
  // Rolling-upgrade compatibility: a v4 peer (the fencing-epoch-less
  // dialect) is accepted, its Welcome echoes the negotiated version,
  // and every reply is shaped for v4 — no trailing epoch bytes a v4
  // decoder would choke on. The v5 decoder reads the same bytes with
  // the epoch defaulting to 0.
  std::string body;
  EncodeHello(false, "legacy-v4", &body);
  body[5] = 4;  // version field (after type + magic), little-endian
  std::string stream;
  wire::PutFrame(body, &stream);
  body.clear();
  EncodeStatusRequest(&body);
  wire::PutFrame(body, &stream);
  RawPeer peer(server_->port());
  ASSERT_TRUE(peer.connected());
  peer.Send(stream);
  const std::string answer = peer.ReadToEof();

  const char* frame = nullptr;
  std::size_t frame_len = 0;
  std::size_t consumed = 0;
  Status error;
  ASSERT_EQ(wire::TryParseFrame(answer.data(), answer.size(),
                                kMaxNetFrameBytes, &frame, &frame_len,
                                &consumed, &error),
            wire::FrameParse::kFrame)
      << error;
  NetMessage welcome;
  TOPKMON_ASSERT_OK(DecodeNetBody(frame, frame_len, &welcome));
  ASSERT_EQ(welcome.type, NetMessageType::kWelcome);
  EXPECT_EQ(welcome.version, 4u);
  EXPECT_EQ(welcome.fencing_epoch, 0u);  // absent on the wire at v4
  ASSERT_EQ(wire::TryParseFrame(answer.data() + consumed,
                                answer.size() - consumed, kMaxNetFrameBytes,
                                &frame, &frame_len, &consumed, &error),
            wire::FrameParse::kFrame)
      << error;
  NetMessage info;
  TOPKMON_ASSERT_OK(DecodeNetBody(frame, frame_len, &info));
  EXPECT_EQ(info.type, NetMessageType::kStatusInfo);
  ExpectServerHealthy(*service_, server_->port(), "after-v4-peer");
}

TEST_F(ServerTortureTest, OversizedLengthPrefixIsAFramingViolation) {
  std::string stream;
  const std::uint32_t huge = 0x7FFFFFFFu;
  for (int i = 0; i < 4; ++i) {
    stream.push_back(static_cast<char>(huge >> (8 * i)));
  }
  stream.append(4, '\0');
  RawPeer peer(server_->port());
  peer.Send(stream);
  StatusCode code = StatusCode::kOk;
  EXPECT_TRUE(FirstFrameIsError(peer.ReadToEof(), &code));
  EXPECT_EQ(code, StatusCode::kInvalidArgument);
  ExpectServerHealthy(*service_, server_->port(), "after-oversize");
}

TEST_F(ServerTortureTest, RequestBeforeHelloIsRefused) {
  std::string body;
  EncodePoll(10, 0, &body);
  std::string stream;
  wire::PutFrame(body, &stream);
  RawPeer peer(server_->port());
  peer.Send(stream);
  StatusCode code = StatusCode::kOk;
  EXPECT_TRUE(FirstFrameIsError(peer.ReadToEof(), &code));
  EXPECT_EQ(code, StatusCode::kFailedPrecondition);
}

TEST_F(ServerTortureTest, SlowLorisNeverWedgesTheDriverThread) {
  // Three peers dribble a valid frame one byte at a time while a real
  // client runs complete workflows in between every dribbled byte.
  std::string body;
  EncodeHello(false, "loris", &body);
  std::string stream;
  wire::PutFrame(body, &stream);

  std::vector<std::unique_ptr<RawPeer>> slow;
  for (int i = 0; i < 3; ++i) {
    slow.push_back(std::make_unique<RawPeer>(server_->port()));
    ASSERT_TRUE(slow.back()->connected());
  }
  for (std::size_t i = 0; i < stream.size(); ++i) {
    for (auto& peer : slow) peer->Send(stream.substr(i, 1));
    if (i % 4 == 0) {
      ExpectServerHealthy(*service_, server_->port(),
                          "during-loris-" + std::to_string(i));
    }
  }
  // The dribbled frames were valid after all: each loris gets a Welcome.
  for (auto& peer : slow) {
    const std::string response = peer->ReadToEof();
    const char* frame_body = nullptr;
    std::size_t body_len = 0;
    std::size_t consumed = 0;
    Status error;
    ASSERT_EQ(wire::TryParseFrame(response.data(), response.size(),
                                  kMaxNetFrameBytes, &frame_body, &body_len,
                                  &consumed, &error),
              wire::FrameParse::kFrame);
    NetMessage msg;
    TOPKMON_ASSERT_OK(DecodeNetBody(frame_body, body_len, &msg));
    EXPECT_EQ(msg.type, NetMessageType::kWelcome);
  }
}

TEST_F(ServerTortureTest, AbruptDisconnectsLeakNothing) {
  for (int i = 0; i < 20; ++i) {
    RawPeer peer(server_->port());
    ASSERT_TRUE(peer.connected());
    std::string body;
    EncodeHello(false, "drop-" + std::to_string(i), &body);
    std::string stream;
    wire::PutFrame(body, &stream);
    peer.Send(stream.substr(0, 1 + i % stream.size()));
    // Destructor slams the connection mid-frame.
  }
  ExpectServerHealthy(*service_, server_->port(), "after-drops");
  // Give the poll loop a few ticks to reap the closed fds.
  for (int i = 0; i < 100 && server_->stats().open_connections > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server_->stats().open_connections, 0u);
}

TEST_F(ServerTortureTest, ServiceErrorsAreAnswersNotDisconnects) {
  auto client = MonitorClient::Connect("127.0.0.1", server_->port(),
                                       "lawful", /*resume=*/false);
  ASSERT_TRUE(client.ok()) << client.status();
  // Unknown query id: a clean NotFound, connection stays usable.
  const auto missing = (*client)->CurrentResult(424242);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // Unregistering someone else's (nonexistent) query: same.
  EXPECT_EQ((*client)->Unregister(424242).code(), StatusCode::kNotFound);
  // A malformed tuple inside a batch is rejected per-record.
  std::vector<Record> batch;
  batch.emplace_back(0, Point{0.5, 0.5}, 1);
  batch.emplace_back(0, Point{4.2, 0.5}, 2);  // outside the unit space
  const auto ack = (*client)->Ingest(std::move(batch));
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(ack->accepted, 1u);
  EXPECT_EQ(ack->rejected, 1u);
  EXPECT_EQ(ack->first_error.code(), StatusCode::kOutOfRange);
  // And the connection is still fully alive.
  QuerySpec spec;
  spec.k = 1;
  spec.function =
      std::make_shared<LinearFunction>(std::vector<double>{1.0, 0.0}, 0.0);
  EXPECT_TRUE((*client)->Register(spec).ok());
  EXPECT_EQ(server_->stats().protocol_errors, 0u);
}

TEST_F(ServerTortureTest, AbsurdArrivalTimestampsAreRejectedPerRecord) {
  auto client = MonitorClient::Connect("127.0.0.1", server_->port(),
                                       "chronos", /*resume=*/false);
  ASSERT_TRUE(client.ok()) << client.status();
  // One tuple at the far edge of i64: admitted unchecked it would drag
  // the shared reordering frontier to the end of time for every session
  // (and overflow the slack arithmetic). It must bounce, alone.
  std::vector<Record> batch;
  batch.emplace_back(0, Point{0.5, 0.5}, 1);
  batch.emplace_back(0, Point{0.5, 0.5},
                     std::numeric_limits<Timestamp>::max());
  batch.emplace_back(0, Point{0.5, 0.5}, -7);
  const auto ack = (*client)->Ingest(std::move(batch));
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(ack->accepted, 1u);
  EXPECT_EQ(ack->rejected, 2u);
  EXPECT_EQ(ack->first_error.code(), StatusCode::kOutOfRange);
  // The frontier survived: ordinary timestamps still flow end to end.
  ExpectServerHealthy(*service_, server_->port(), "after-chronos");
}

TEST(ServerIdleTimeoutTest, APeerThatNeverReadsCannotGrowServerMemory) {
  MonitorService service(
      std::make_unique<BruteForceEngine>(kDim, WindowSpec::Count(100)),
      FastOptions());
  NetServerOptions opt = FastServer();
  opt.max_output_bytes = 256;  // tiny cap so the test trips it fast
  TcpServer server(service, opt);
  TOPKMON_ASSERT_OK(server.Start());

  RawPeer hog(server.port());
  ASSERT_TRUE(hog.connected());
  std::string stream;
  {
    std::string body;
    EncodeHello(false, "hog", &body);
    wire::PutFrame(body, &stream);
  }
  // Pipeline many requests without ever reading a response: the
  // response buffer must hit the cap and the connection must be
  // dropped, not grown without bound.
  for (int i = 0; i < 64; ++i) {
    std::string body;
    EncodeSnapshotRequest(static_cast<QueryId>(1000 + i), &body);
    wire::PutFrame(body, &stream);
  }
  hog.Send(stream);
  // Wait for the cap to trip (the definitive signal — checking the
  // connection count first would race the accept itself).
  for (int i = 0; i < 1000 && server.stats().protocol_errors == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(server.stats().protocol_errors, 1u);
  for (int i = 0; i < 1000 && server.stats().open_connections > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server.stats().open_connections, 0u);
  // And the server is still fine for everyone else.
  ExpectServerHealthy(service, server.port(), "after-hog");
  server.Stop();
  service.Shutdown();
}

/// A latch a cycle observer can hold the service's driver on.
class Gate {
 public:
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Opens the gate when it goes out of scope, so an early return cannot
/// leave the driver waiting while the service shuts down.
struct OpenOnExit {
  std::shared_ptr<Gate> gate;
  ~OpenOnExit() { gate->Open(); }
};

TEST(ServerIngestBlockTest, MaximalFrameLeavesTheDecodeBlockAtItsBound) {
  // d = 1 makes the densest frame: 10 bytes a record, so a body at the
  // 16 MiB frame limit declares ~1.68M records. The poll loop decodes it
  // in kIngestBlockRecords blocks and must hold no more than one block.
  constexpr int kOneDim = 1;
  MonitorService service(
      std::make_unique<BruteForceEngine>(kOneDim, WindowSpec::Count(100)),
      FastOptions());
  // The driver waits in its first cycle until the ack has been read, so
  // the queue cannot drain while the frame is decoded and fills however
  // fast either thread runs. The gate opens on every exit from the test.
  auto gate = std::make_shared<Gate>();
  service.SetCycleObserver([gate](Timestamp, RecordSpan) { gate->Wait(); });
  TcpServer server(service, FastServer());
  const OpenOnExit open_on_exit{gate};
  TOPKMON_ASSERT_OK(server.Start());

  constexpr std::size_t kSpanHeader = 1 + 8 + 8;  // dim, base id, arrival
  const std::size_t count =
      (kMaxNetFrameBytes - 1 - 4 - kSpanHeader) / (1 + 1 + 8);
  std::string body;
  body.reserve(kMaxNetFrameBytes);
  wire::PutU8(static_cast<std::uint8_t>(NetMessageType::kIngest), &body);
  wire::PutU32(static_cast<std::uint32_t>(count), &body);
  {
    wire::RecordSpanEncoder span(&body);
    const Point p{0.5};
    for (std::size_t i = 0; i < count; ++i) span.Add(i + 1, p, 1);
  }
  ASSERT_LE(body.size(), kMaxNetFrameBytes);
  std::string stream;
  {
    std::string hello;
    EncodeHello(false, "maximal", &hello);
    wire::PutFrame(hello, &stream);
  }
  wire::PutFrame(body, &stream);
  body = std::string();

  RawPeer big(server.port());
  ASSERT_TRUE(big.connected());
  big.Send(stream);
  stream = std::string();
  NetMessage msg;
  ASSERT_TRUE(big.ReadFrame(&msg, 60));
  ASSERT_EQ(msg.type, NetMessageType::kWelcome);
  ASSERT_TRUE(big.ReadFrame(&msg, 60));
  ASSERT_EQ(msg.type, NetMessageType::kIngestAck);
  // The queue (65536 slots) fills long before the frame ends: the rest
  // is refused as backpressure, never decoded.
  EXPECT_GT(msg.accepted, 0u);
  EXPECT_EQ(std::size_t{msg.accepted} + msg.rejected, count);
  EXPECT_EQ(msg.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(server.stats().ingest_block_records, kIngestBlockRecords);

  // Another connection keeps ingesting once the backlog has drained.
  gate->Open();
  TOPKMON_ASSERT_OK(service.Flush());
  auto client = MonitorClient::Connect("127.0.0.1", server.port(), "small",
                                       /*resume=*/false);
  ASSERT_TRUE(client.ok()) << client.status();
  std::vector<Record> batch;
  batch.emplace_back(0, Point{0.25}, 2);
  batch.emplace_back(0, Point{0.75}, 2);
  const auto ack = (*client)->Ingest(std::move(batch));
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(ack->accepted, 2u);
  TOPKMON_ASSERT_OK(service.Flush());
  EXPECT_EQ(service.stats().records_applied, msg.accepted + 2u);
  EXPECT_EQ(server.stats().ingest_block_records, kIngestBlockRecords);
  TOPKMON_ASSERT_OK((*client)->Close(/*close_session=*/true));
  server.Stop();
  service.Shutdown();
}

TEST(ServerIdleTimeoutTest, SilentConnectionsAreReaped) {
  MonitorService service(
      std::make_unique<BruteForceEngine>(kDim, WindowSpec::Count(100)),
      FastOptions());
  NetServerOptions opt = FastServer();
  opt.idle_timeout = std::chrono::milliseconds(100);
  TcpServer server(service, opt);
  TOPKMON_ASSERT_OK(server.Start());

  RawPeer mute(server.port());
  ASSERT_TRUE(mute.connected());
  // Send nothing: the server must evict the slot, with a classified
  // error frame, well before the 2 s read timeout of the peer.
  StatusCode code = StatusCode::kOk;
  EXPECT_TRUE(FirstFrameIsError(mute.ReadToEof(), &code));
  EXPECT_EQ(code, StatusCode::kFailedPrecondition);
  for (int i = 0; i < 500 && server.stats().open_connections > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server.stats().open_connections, 0u);
  server.Stop();
  service.Shutdown();
}

TEST_F(ServerTortureTest, SnapshotsAreScopedToTheOwningSession) {
  auto owner = MonitorClient::Connect("127.0.0.1", server_->port(),
                                      "owner", /*resume=*/false);
  ASSERT_TRUE(owner.ok()) << owner.status();
  QuerySpec spec;
  spec.k = 1;
  spec.function =
      std::make_shared<LinearFunction>(std::vector<double>{1.0, 1.0}, 0.0);
  const auto query = (*owner)->Register(spec);
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_TRUE((*owner)->CurrentResult(*query).ok());

  // A different session probing the (small, sequential) query id gets
  // the same NotFound an unknown id draws — existence does not leak.
  auto snoop = MonitorClient::Connect("127.0.0.1", server_->port(),
                                      "snoop", /*resume=*/false);
  ASSERT_TRUE(snoop.ok()) << snoop.status();
  EXPECT_EQ((*snoop)->CurrentResult(*query).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ((*snoop)->CurrentResult(999999).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace topkmon
