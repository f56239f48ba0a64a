// Admin-plane HTTP tests: endpoint correctness against a live
// MonitorService, hostile-peer torture against a bare AdminHttpServer
// (mirroring tests/net/server_torture_test.cc's stance: nothing a peer
// does costs more than its own connection), /healthz across the
// follower -> leader -> fenced role transitions, and an e2e run with
// concurrent scrapes under full-rate ingest with the data plane up.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/brute_force_engine.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/admin_server.h"
#include "service/monitor_service.h"
#include "tests/journal/journal_test_util.h"
#include "tests/net/net_test_util.h"
#include "tests/test_util.h"

namespace topkmon {
namespace {

constexpr int kDim = 2;

std::unique_ptr<MonitorEngine> MakeEngine() {
  return std::make_unique<BruteForceEngine>(kDim, WindowSpec::Count(200));
}

/// A raw TCP client for speaking (possibly broken) HTTP on purpose.
class RawHttpPeer {
 public:
  explicit RawHttpPeer(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
    timeval tv{5, 0};  // reads give up after 5 s
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  ~RawHttpPeer() { Close(); }

  bool connected() const { return connected_; }

  void Send(const std::string& bytes) {
    (void)::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
  }

  /// Reads until the server closes (HTTP/1.0 framing) or the timeout.
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

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

struct HttpResponse {
  int status = 0;
  std::map<std::string, std::string> headers;
  std::string body;
};

/// Splits a raw HTTP/1.0 response; status stays 0 on malformed input.
HttpResponse ParseHttpResponse(const std::string& raw) {
  HttpResponse r;
  const std::size_t line_end = raw.find("\r\n");
  if (line_end == std::string::npos || raw.rfind("HTTP/1.0 ", 0) != 0) {
    return r;
  }
  r.status = std::atoi(raw.c_str() + 9);
  const std::size_t headers_end = raw.find("\r\n\r\n");
  if (headers_end == std::string::npos) return r;
  std::size_t pos = line_end + 2;
  while (pos < headers_end) {
    const std::size_t eol = raw.find("\r\n", pos);
    const std::string line = raw.substr(pos, eol - pos);
    const std::size_t colon = line.find(": ");
    if (colon != std::string::npos) {
      r.headers[line.substr(0, colon)] = line.substr(colon + 2);
    }
    pos = eol + 2;
  }
  r.body = raw.substr(headers_end + 4);
  return r;
}

/// One well-formed GET, response parsed.
HttpResponse Get(std::uint16_t port, const std::string& path) {
  RawHttpPeer peer(port);
  EXPECT_TRUE(peer.connected());
  peer.Send("GET " + path + " HTTP/1.0\r\nHost: test\r\n\r\n");
  return ParseHttpResponse(peer.ReadToEof());
}

/// The isolation probe after every torture case: a fresh well-formed
/// request still succeeds.
void ExpectAdminHealthy(std::uint16_t port, const std::string& path) {
  const HttpResponse r = Get(port, path);
  EXPECT_EQ(r.status, 200) << "admin server no longer serves " << path;
}

ServiceOptions AdminEnabledOptions() {
  ServiceOptions options;
  options.drain_wait = std::chrono::milliseconds(1);
  options.admin.enabled = true;
  options.admin.port = 0;
  options.admin.poll_tick = std::chrono::milliseconds(1);
  return options;
}

// ---- endpoint correctness against a live service ----------------------

TEST(AdminEndpoints, ServeMetricsStatuszHealthz) {
  MonitorService service(MakeEngine(), AdminEnabledOptions());
  ASSERT_TRUE(service.admin_status().ok()) << service.admin_status();
  const std::uint16_t port = service.admin_port();
  ASSERT_NE(port, 0);

  const auto session = service.OpenSession("admin-test");
  ASSERT_TRUE(session.ok());
  QuerySpec spec;
  spec.k = 2;
  spec.function = std::make_shared<LinearFunction>(
      std::vector<double>{1.0, 1.0}, 0.0);
  ASSERT_TRUE(service.Register(*session, spec).ok());
  for (Timestamp t = 1; t <= 50; ++t) {
    TOPKMON_ASSERT_OK(service.Ingest(Point{0.5, 0.5}, t));
  }
  TOPKMON_ASSERT_OK(service.Flush());

  const HttpResponse metrics = Get(port, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.headers.at("Content-Type"),
            "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_EQ(metrics.headers.at("Connection"), "close");
  EXPECT_EQ(std::stoul(metrics.headers.at("Content-Length")),
            metrics.body.size());
  EXPECT_NE(metrics.body.find("# TYPE topkmon_cycles_total counter"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("topkmon_records_ingested_total 50"),
            std::string::npos);
  EXPECT_NE(
      metrics.body.find(
          "# TYPE topkmon_ingest_publish_latency_seconds histogram"),
      std::string::npos);

  const HttpResponse statusz = Get(port, "/statusz");
  EXPECT_EQ(statusz.status, 200);
  EXPECT_EQ(statusz.headers.at("Content-Type"), "application/json");
  for (const char* key :
       {"\"role\":\"leader\"", "\"fenced\":false", "\"fencing_epoch\":0",
        "\"replication\":", "\"ingest\":", "\"journal\":",
        "\"sessions\":", "\"records_ingested\":50",
        "\"label\":\"admin-test\""}) {
    EXPECT_NE(statusz.body.find(key), std::string::npos)
        << "/statusz is missing " << key << "\n" << statusz.body;
  }

  const HttpResponse healthz = Get(port, "/healthz");
  EXPECT_EQ(healthz.status, 200);
  EXPECT_EQ(healthz.body, "leader-ok\n");

  // Unknown path and non-GET draw clean per-request errors.
  EXPECT_EQ(Get(port, "/nope").status, 404);
  {
    RawHttpPeer peer(port);
    ASSERT_TRUE(peer.connected());
    peer.Send("POST /metrics HTTP/1.0\r\n\r\n");
    EXPECT_EQ(ParseHttpResponse(peer.ReadToEof()).status, 405);
  }
  // A query string is stripped before path matching.
  EXPECT_EQ(Get(port, "/healthz?probe=1").status, 200);

  service.Shutdown();
}

TEST(AdminEndpoints, DisabledByDefaultAndAfterShutdown) {
  ServiceOptions options;
  options.drain_wait = std::chrono::milliseconds(1);
  MonitorService service(MakeEngine(), options);
  EXPECT_EQ(service.admin_port(), 0);
  EXPECT_TRUE(service.admin_status().ok());
  service.Shutdown();

  MonitorService enabled(MakeEngine(), AdminEnabledOptions());
  const std::uint16_t port = enabled.admin_port();
  ASSERT_NE(port, 0);
  enabled.Shutdown();
  RawHttpPeer peer(port);
  if (peer.connected()) {
    peer.Send("GET /healthz HTTP/1.0\r\n\r\n");
    EXPECT_TRUE(peer.ReadToEof().empty());
  }
}

// ---- torture against a bare AdminHttpServer ---------------------------

AdminServerOptions TortureOptions() {
  AdminServerOptions options;
  options.enabled = true;
  options.port = 0;
  options.max_request_bytes = 512;
  options.idle_timeout = std::chrono::milliseconds(150);
  options.poll_tick = std::chrono::milliseconds(1);
  return options;
}

class AdminTortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<AdminHttpServer>(TortureOptions());
    server_->Handle("/ok", [] {
      AdminResponse r;
      r.body = "ok\n";
      return r;
    });
    TOPKMON_ASSERT_OK(server_->Start());
  }

  void TearDown() override { server_->Stop(); }

  std::unique_ptr<AdminHttpServer> server_;
};

TEST_F(AdminTortureTest, GarbageRequestLineDraws400) {
  RawHttpPeer peer(server_->port());
  ASSERT_TRUE(peer.connected());
  peer.Send("\x01\x02garbage-no-spaces\r\n\r\n");
  EXPECT_EQ(ParseHttpResponse(peer.ReadToEof()).status, 400);
  ExpectAdminHealthy(server_->port(), "/ok");
  // A request line whose target is not a path is equally malformed.
  RawHttpPeer relative(server_->port());
  ASSERT_TRUE(relative.connected());
  relative.Send("GET ok HTTP/1.0\r\n\r\n");
  EXPECT_EQ(ParseHttpResponse(relative.ReadToEof()).status, 400);
  ExpectAdminHealthy(server_->port(), "/ok");
}

TEST_F(AdminTortureTest, OversizedHeadersDraw431) {
  RawHttpPeer peer(server_->port());
  ASSERT_TRUE(peer.connected());
  peer.Send("GET /ok HTTP/1.0\r\nX-Filler: " +
            std::string(4096, 'x') + "\r\n\r\n");
  EXPECT_EQ(ParseHttpResponse(peer.ReadToEof()).status, 431);
  ExpectAdminHealthy(server_->port(), "/ok");
}

TEST_F(AdminTortureTest, SlowLorisIsReaped) {
  RawHttpPeer peer(server_->port());
  ASSERT_TRUE(peer.connected());
  peer.Send("GET /ok HT");  // never finishes the request line
  const auto start = std::chrono::steady_clock::now();
  // The server must close the connection (empty response, no reply)
  // once idle_timeout passes — well before our 5 s socket timeout.
  EXPECT_TRUE(peer.ReadToEof().empty());
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(4));
  ExpectAdminHealthy(server_->port(), "/ok");
}

TEST_F(AdminTortureTest, AbruptDisconnectIsIsolated) {
  for (int i = 0; i < 8; ++i) {
    RawHttpPeer peer(server_->port());
    ASSERT_TRUE(peer.connected());
    peer.Send("GET /ok");
    peer.Close();  // mid-request hangup
  }
  {
    // Hang up without sending anything at all.
    RawHttpPeer peer(server_->port());
    ASSERT_TRUE(peer.connected());
  }
  ExpectAdminHealthy(server_->port(), "/ok");
}

TEST_F(AdminTortureTest, ManyConcurrentPeersAllServed) {
  std::vector<std::thread> peers;
  std::atomic<int> ok{0};
  for (int i = 0; i < 16; ++i) {
    peers.emplace_back([this, &ok] {
      const HttpResponse r = Get(server_->port(), "/ok");
      if (r.status == 200 && r.body == "ok\n") ok.fetch_add(1);
    });
  }
  for (std::thread& t : peers) t.join();
  EXPECT_EQ(ok.load(), 16);
}

TEST_F(AdminTortureTest, EndlessSenderDoesNotStarveOtherScrapes) {
  // The hook holds one connection's reads to a byte each, so while its
  // peer keeps sending every read finds more, and keeps its 431 from
  // leaving, so the connection stays open and keeps being read.
  std::atomic<std::uint16_t> endless{0};
  std::atomic<std::uint64_t> endless_reads{0};
  testing::ScopedSocketHook hook(
      [&](socket::Op op, int fd, std::size_t* bytes) {
        const std::uint16_t port = endless.load();
        if (port == 0 || testing::SocketPort(fd, /*peer=*/true) != port) {
          return 0;
        }
        if (op == socket::Op::kWrite) return EAGAIN;
        if (op == socket::Op::kRead) {
          *bytes = 1;
          ++endless_reads;
        }
        return 0;
      });
  auto sender = socket::Connect("127.0.0.1", server_->port(),
                                std::chrono::milliseconds(100));
  ASSERT_TRUE(sender.ok()) << sender.status();
  endless.store(testing::SocketPort(sender->fd(), /*peer=*/false));
  std::atomic<bool> stop{false};
  std::thread flood([&] {
    const std::string chunk(4096, 'x');  // never ends a request line
    while (!stop.load()) {
      std::string out = chunk;
      if (socket::Flush(*sender, &out).error != 0) break;
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (endless_reads.load() < 1000 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(endless_reads.load(), 1000u);

  const auto start = std::chrono::steady_clock::now();
  const HttpResponse r = Get(server_->port(), "/ok");
  EXPECT_EQ(r.status, 200);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
  // The endless connection was still being read after the scrape.
  const std::uint64_t reads = endless_reads.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GT(endless_reads.load(), reads);

  stop.store(true);
  flood.join();
  server_->Stop();  // no thread may call the hook once it is removed
}

// ---- transport cut short by the socket test hook ----------------------

TEST(AdminSocketHookTest, OneByteSendsDeliverAWholeResponse) {
  std::atomic<std::uint16_t> admin_port{0};
  std::atomic<std::uint64_t> sends{0};
  testing::ScopedSocketHook hook(
      [&](socket::Op op, int fd, std::size_t* bytes) {
        if (op == socket::Op::kWrite &&
            testing::SocketPort(fd, /*peer=*/false) == admin_port.load()) {
          *bytes = 1;
          ++sends;
        }
        return 0;
      });
  AdminHttpServer server(TortureOptions());
  std::string big;
  for (int i = 0; big.size() < 20000; ++i) big += std::to_string(i) + ",";
  server.Handle("/big", [&big] {
    AdminResponse r;
    r.body = big;
    return r;
  });
  TOPKMON_ASSERT_OK(server.Start());
  admin_port.store(server.port());
  const HttpResponse r = Get(server.port(), "/big");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(std::stoul(r.headers.at("Content-Length")), big.size());
  EXPECT_EQ(r.body, big);
  EXPECT_GT(sends.load(), big.size());
  server.Stop();
}

// ---- /healthz across role transitions ---------------------------------

TEST(AdminHealthz, FollowerPromoteFenceTransitions) {
  testing::ScopedTempDir dir;
  ASSERT_FALSE(dir.path().empty());
  ServiceOptions options = AdminEnabledOptions();
  options.journal.dir = dir.path();
  auto service = MonitorService::OpenFollower(MakeEngine, options,
                                              "127.0.0.1:19999");
  ASSERT_TRUE(service.ok()) << service.status();
  const std::uint16_t port = (*service)->admin_port();
  ASSERT_NE(port, 0);

  HttpResponse r = Get(port, "/healthz");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "follower-ok\n");
  EXPECT_NE(Get(port, "/statusz").body.find("\"role\":\"follower\""),
            std::string::npos);

  TOPKMON_ASSERT_OK((*service)->Promote());
  r = Get(port, "/healthz");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "leader-ok\n");

  // A higher epoch observed anywhere deposes this leader; the probe
  // flips to degraded without any write traffic.
  const std::uint64_t epoch = (*service)->fencing_epoch();
  TOPKMON_ASSERT_OK((*service)->ObserveFencingEpoch(epoch + 1000));
  r = Get(port, "/healthz");
  EXPECT_EQ(r.status, 503);
  EXPECT_NE(r.body.find("fenced-degraded"), std::string::npos);
  EXPECT_NE(Get(port, "/statusz").body.find("\"fenced\":true"),
            std::string::npos);

  (*service)->Shutdown();
}

// ---- e2e: concurrent scrapes under full-rate ingest -------------------

TEST(AdminE2E, ConcurrentScrapesUnderLoad) {
  MonitorService service(MakeEngine(), AdminEnabledOptions());
  const std::uint16_t admin_port = service.admin_port();
  ASSERT_NE(admin_port, 0);
  TcpServer server(service, testing::TestServerOptions());
  TOPKMON_ASSERT_OK(server.Start());

  auto client = MonitorClient::Connect("127.0.0.1", server.port(),
                                       "scrape-load", /*resume=*/false);
  ASSERT_TRUE(client.ok()) << client.status();
  QuerySpec spec;
  spec.k = 3;
  spec.function = std::make_shared<LinearFunction>(
      std::vector<double>{1.0, 1.0}, 0.0);
  ASSERT_TRUE((*client)->Register(spec).ok());

  // Full-rate wire ingest for the whole scrape window.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sent{0};
  std::thread producer([&] {
    Timestamp ts = 1;
    while (!stop.load()) {
      std::vector<Record> batch;
      for (int i = 0; i < 64; ++i) {
        batch.emplace_back(0, Point{0.3, 0.7}, ts++);
      }
      const auto ack = (*client)->Ingest(std::move(batch));
      if (!ack.ok()) break;
      sent.fetch_add(ack->accepted);
    }
  });

  std::atomic<int> scrape_failures{0};
  std::vector<std::thread> scrapers;
  for (int s = 0; s < 4; ++s) {
    scrapers.emplace_back([&, s] {
      const char* path = (s % 2 == 0) ? "/metrics" : "/statusz";
      for (int i = 0; i < 25; ++i) {
        const HttpResponse r = Get(admin_port, path);
        if (r.status != 200 || r.body.empty()) {
          scrape_failures.fetch_add(1);
        }
        // /statusz carries the registry snapshot too, so both paths
        // see the server's sampler while it runs.
        if (r.body.find("topkmon_net_open_connections") ==
            std::string::npos) {
          scrape_failures.fetch_add(1);  // net sampler missing mid-run
        }
      }
    });
  }
  for (std::thread& t : scrapers) t.join();
  stop.store(true);
  producer.join();
  EXPECT_EQ(scrape_failures.load(), 0);
  EXPECT_GT(sent.load(), 0u);

  // The data plane never stopped: what was accepted got applied.
  TOPKMON_ASSERT_OK(service.Flush());
  const HttpResponse after = Get(admin_port, "/metrics");
  EXPECT_EQ(after.status, 200);
  (void)(*client)->Close();
  server.Stop();
  // Stop removed the server's sampler, and RemoveSampler is the barrier:
  // no later scrape may still carry a net sample.
  const HttpResponse stopped = Get(admin_port, "/statusz");
  EXPECT_EQ(stopped.status, 200);
  EXPECT_NE(stopped.body.find("\"sections\":{\"metrics\":["),
            std::string::npos)
      << stopped.body;
  EXPECT_EQ(stopped.body.find("topkmon_net_"), std::string::npos)
      << stopped.body;
  service.Shutdown();
}

}  // namespace
}  // namespace topkmon
