// Ingest soak: sustained full-rate wire ingest through a LocalCluster
// with the admin plane scraped throughout, pinning the ingest path's
// memory contract. The ingest queue takes all its record storage when
// it is built, capacity × (28 + 8d) bytes, and never more: frames are
// decoded into each poll loop's bounded block, and the queue copies what
// it admits into slots it already holds. So the `topkmon_arena_bytes`
// gauge and its high-water mark `topkmon_arena_peak_bytes` must read
// exactly that construction value at every scrape and at the end, with
// the queue pinned at capacity and frames refused all along. The value
// follows from the options alone, so no timing (a loaded box, a
// descheduled driver) can move it.
//
// Mid-run, a ReplicaFollower attaches to partition 0 and performs a
// full resync (bootstrap from the leader's oldest segment + live tail
// chase) while the firehose is on — the shipper serves journal bytes
// from the same poll loops that decode ingest frames, so the resync
// must neither stall the hot path nor move the queue's storage.
//
// Runtime scales with TOPKMON_SOAK_SECONDS (default 3 so the tier-1
// suite stays fast; the nightly/acceptance soak sets 60).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/local_cluster.h"
#include "core/tma_engine.h"
#include "net/client.h"
#include "replica/follower.h"
#include "stream/generators.h"
#include "tests/journal/journal_test_util.h"
#include "tests/net/net_test_util.h"
#include "tests/test_util.h"

namespace topkmon {
namespace {

using ::topkmon::testing::MakeRandomQueries;
using ::topkmon::testing::ScopedTempDir;

constexpr int kDim = 2;
constexpr std::size_t kPartitions = 2;
constexpr std::size_t kWireBatch = 256;

double SoakSeconds() {
  const char* env = std::getenv("TOPKMON_SOAK_SECONDS");
  if (env != nullptr && *env != '\0') {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return 3.0;
}

std::unique_ptr<MonitorEngine> MakeEngine() {
  GridEngineOptions opt;
  opt.dim = kDim;
  opt.window = WindowSpec::Count(2000);
  return std::make_unique<TmaEngine>(opt);
}

/// Minimal blocking HTTP/1.0 GET against the admin port; empty string on
/// any socket failure (the caller asserts on content).
std::string HttpGet(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string out;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

/// A /metrics scrape, retried while the admin port answers nothing (a
/// slow accept on a loaded box).
std::string ScrapeMetrics(std::uint16_t port) {
  std::string scrape;
  for (int attempt = 0; attempt < 50 && scrape.empty(); ++attempt) {
    scrape = HttpGet(port, "/metrics");
  }
  return scrape;
}

/// The value of an unlabelled gauge/counter line in a /metrics scrape;
/// -1.0 when the metric is absent.
double MetricValue(const std::string& scrape, const std::string& name) {
  std::istringstream lines(scrape);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::atof(line.c_str() + name.size() + 1);
    }
  }
  return -1.0;
}

TEST(IngestSoakTest, ArenaStopsGrowingAfterWarmup) {
  const double total_seconds = SoakSeconds();

  ScopedTempDir journal_root;
  LocalClusterOptions options;
  options.partitions = kPartitions;
  options.engine_factory = MakeEngine;
  options.service.ingest.slack = 2;
  // Small enough that full-rate producers keep the queue full, so every
  // slot is in use and frames are refused all along.
  options.service.ingest.capacity = 4096;
  options.service.ingest.max_batch = 2048;
  options.service.drain_wait = std::chrono::milliseconds(2);
  options.service.hub.buffer_capacity = 1 << 14;
  options.service.journal.dir = journal_root.path();
  options.service.journal.segment_bytes = 256 << 10;
  options.service.admin.enabled = true;
  options.net = testing::TestServerOptions();
  auto cluster = LocalCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  for (std::size_t p = 0; p < kPartitions; ++p) {
    ASSERT_NE((*cluster)->admin_port(p), 0) << "partition " << p;
  }

  // The queue's storage (see IngestQueue): a 24-byte key, a 4-byte free
  // slot and kDim coordinates per slot. 4096 × 44 = 180224 has six
  // digits, so the scrape's %g rendering shows it exactly.
  const double storage_bytes = static_cast<double>(
      options.service.ingest.capacity * (28 + 8 * kDim));
  const auto expect_fixed = [&](const std::string& scrape, std::size_t p) {
    EXPECT_EQ(MetricValue(scrape, "topkmon_arena_bytes"), storage_bytes)
        << "partition " << p;
    EXPECT_EQ(MetricValue(scrape, "topkmon_arena_peak_bytes"),
              storage_bytes)
        << "partition " << p;
  };
  for (std::size_t p = 0; p < kPartitions; ++p) {
    expect_fixed(ScrapeMetrics((*cluster)->admin_port(p)), p);
  }

  // A few standing queries per partition so every cycle does real grid
  // work while the queue churns underneath it.
  const auto specs = MakeRandomQueries(kDim, 3, 5, 42);
  for (std::size_t p = 0; p < kPartitions; ++p) {
    auto admin = MonitorClient::Connect(
        "127.0.0.1", (*cluster)->map().endpoint(p).port,
        "soak-admin-" + std::to_string(p), /*resume=*/false);
    ASSERT_TRUE(admin.ok()) << admin.status();
    const auto outcomes = (*admin)->RegisterBatch(specs);
    ASSERT_TRUE(outcomes.ok()) << outcomes.status();
    for (const auto& outcome : *outcomes) {
      ASSERT_EQ(outcome.code, StatusCode::kOk);
    }
    TOPKMON_ASSERT_OK((*admin)->Close(/*close_session=*/false));
  }

  // One unthrottled wire producer per partition: batches of kWireBatch
  // records, backing off only on the server's explicit backpressure
  // hint (rejected records are load-shed, which is the soak's point —
  // the queue must stay pinned at capacity).
  std::atomic<bool> done{false};
  std::vector<std::uint64_t> accepted(kPartitions, 0);
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kPartitions; ++p) {
    producers.emplace_back([&, p] {
      auto client = MonitorClient::Connect(
          "127.0.0.1", (*cluster)->map().endpoint(p).port,
          "soak-producer-" + std::to_string(p), /*resume=*/false);
      ASSERT_TRUE(client.ok()) << client.status();
      auto gen = MakeGenerator(Distribution::kIndependent, kDim,
                               /*seed=*/1000 + p);
      Timestamp clock = 1;
      while (!done.load(std::memory_order_relaxed)) {
        std::vector<Record> batch;
        batch.reserve(kWireBatch);
        for (std::size_t i = 0; i < kWireBatch; ++i) {
          batch.emplace_back(0, gen->NextPoint(), clock);
          if (i % 32 == 31) ++clock;
        }
        ++clock;
        const auto ack = (*client)->Ingest(std::move(batch));
        if (!ack.ok()) break;  // cluster shutting down under us
        accepted[p] += ack->accepted;
        if (ack->queue_hint > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      (void)(*client)->Close(/*close_session=*/false);
    });
  }

  // Scraper: periodic /metrics pulls against every partition's admin
  // port for the whole soak, proving the plane stays responsive under
  // fire and the storage gauges never move.
  std::atomic<std::uint64_t> scrapes{0};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      for (std::size_t p = 0; p < kPartitions; ++p) {
        const std::string scrape =
            HttpGet((*cluster)->admin_port(p), "/metrics");
        if (scrape.empty()) continue;  // raced a slow accept; retry next tick
        EXPECT_NE(scrape.find("200 OK"), std::string::npos);
        expect_fixed(scrape, p);
        ++scrapes;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });

  // ---- warm-up: a third of the soak at full rate ----------------------
  std::this_thread::sleep_for(
      std::chrono::duration<double>(total_seconds / 3.0));

  // ---- mid-run follower resync against partition 0 --------------------
  ServiceOptions follower_svc;
  follower_svc.ingest.slack = 2;
  follower_svc.drain_wait = std::chrono::milliseconds(2);
  follower_svc.journal.dir = journal_root.path() + "/standby";
  ReplicaFollowerOptions follower_opt;
  follower_opt.leader_port = (*cluster)->map().endpoint(0).port;
  follower_opt.fetch_wait = std::chrono::milliseconds(20);
  follower_opt.reconnect_backoff = std::chrono::milliseconds(20);
  auto follower =
      ReplicaFollower::Open(MakeEngine, follower_svc, follower_opt);
  ASSERT_TRUE(follower.ok()) << follower.status();
  const Timestamp resync_target =
      (*cluster)->service(0)->replication().applied_cycle_ts;
  if (resync_target > 0) {
    TOPKMON_ASSERT_OK(
        (*follower)->WaitForCycleTs(resync_target, std::chrono::seconds(30)));
  }

  // ---- the rest of the soak, storage held at its construction size ---
  std::this_thread::sleep_for(
      std::chrono::duration<double>(total_seconds * 2.0 / 3.0));
  done.store(true);
  for (std::thread& t : producers) t.join();
  scraper.join();
  TOPKMON_ASSERT_OK((*cluster)->FlushAll());

  for (std::size_t p = 0; p < kPartitions; ++p) {
    // The contract under test: every byte the steady state needs was
    // taken when the queue was built. A change means the ingest path
    // took storage it was not sized for.
    expect_fixed(ScrapeMetrics((*cluster)->admin_port(p)), p);
    EXPECT_GT(accepted[p], 0u) << "partition " << p;
  }
  EXPECT_GT(scrapes.load(), 0u);

  const ReplicaFollowerStats fstats = (*follower)->stats();
  EXPECT_TRUE(fstats.connected);
  EXPECT_GT(fstats.records_applied, 0u);
  (*follower)->Stop();
  (*cluster)->Stop();
}

}  // namespace
}  // namespace topkmon
