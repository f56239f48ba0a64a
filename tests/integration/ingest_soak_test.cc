// Arena soak: sustained full-rate wire ingest through a LocalCluster
// with the admin plane scraped throughout, pinning the zero-copy hot
// path's memory contract. The ingest queue reserves its arena chunks
// when it is built: for a full queue and the open chunk's tail (a
// drained record's storage goes back at the drain). Past that
// reservation the only storage the hot path may take is one decoded
// wire frame, so the `topkmon_arena_peak_bytes` gauge (a lifetime
// high-water mark, monotone by construction) must read exactly the
// reservation before any traffic and never more than the reservation
// plus one frame's chunk — at every scrape and at the end. The bound
// follows from the options alone, so no timing (a loaded box, a
// descheduled driver) can move it; a leak, an unreleased record or a
// reclamation bug pushes the peak past it.
//
// Mid-run, a ReplicaFollower attaches to partition 0 and performs a
// full resync (bootstrap from the leader's oldest segment + live tail
// chase) while the firehose is on — the shipper serves journal bytes
// from the same poll loops that decode ingest frames, so the resync
// must neither stall the hot path nor push the arena past its bound.
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
#include "stream/record_arena.h"
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
  // Small enough that full-rate producers keep the queue full, so the
  // arena runs at its reservation and frames are refused all along.
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

  // The queue's reservation (see IngestQueue's constructor), whole
  // chunks, and the bound it leaves room for: one more chunk, the most a
  // kWireBatch-record frame that fits no reserved chunk can take.
  // The gauges are read exactly from the arena; a scrape prints them
  // rounded.
  const IngestOptions& ingest = options.service.ingest;
  const std::size_t chunk = RecordArenaOptions{}.chunk_records;
  const std::size_t reserved_chunks =
      (ingest.capacity + chunk + chunk - 1) / chunk;
  const std::size_t reserved_bytes = reserved_chunks * chunk * sizeof(Record);
  const std::size_t bound_bytes =
      reserved_bytes + std::max(chunk, kWireBatch) * sizeof(Record);
  const auto arena_peak = [&cluster](std::size_t p) {
    return (*cluster)->service(p)->ingest_arena().stats().peak_resident_bytes;
  };
  for (std::size_t p = 0; p < kPartitions; ++p) {
    EXPECT_EQ(arena_peak(p), reserved_bytes)
        << "partition " << p << " arena before any traffic";
  }

  // A few standing queries per partition so every cycle does real grid
  // work while the arena churns underneath it.
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
  // fire and the arena gauges are always present and sane.
  std::atomic<std::uint64_t> scrapes{0};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      for (std::size_t p = 0; p < kPartitions; ++p) {
        const std::string scrape =
            HttpGet((*cluster)->admin_port(p), "/metrics");
        if (scrape.empty()) continue;  // raced a slow accept; retry next tick
        EXPECT_NE(scrape.find("200 OK"), std::string::npos);
        const double bytes = MetricValue(scrape, "topkmon_arena_bytes");
        const double peak = MetricValue(scrape, "topkmon_arena_peak_bytes");
        EXPECT_GE(bytes, 0.0) << "partition " << p;
        EXPECT_GE(peak, bytes) << "partition " << p;
        EXPECT_LE(arena_peak(p), bound_bytes) << "partition " << p;
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

  // ---- the rest of the soak, arena held under its bound --------------
  std::this_thread::sleep_for(
      std::chrono::duration<double>(total_seconds * 2.0 / 3.0));
  done.store(true);
  for (std::thread& t : producers) t.join();
  scraper.join();
  TOPKMON_ASSERT_OK((*cluster)->FlushAll());

  for (std::size_t p = 0; p < kPartitions; ++p) {
    const std::string scrape =
        HttpGet((*cluster)->admin_port(p), "/metrics");
    const double final_peak =
        MetricValue(scrape, "topkmon_arena_peak_bytes");
    const double final_bytes = MetricValue(scrape, "topkmon_arena_bytes");
    const double recycled =
        MetricValue(scrape, "topkmon_arena_chunks_recycled_total");
    // The contract under test: every byte the steady state needs was
    // reserved when the queue was built, give or take one frame. More
    // means a record was never released or reclamation regressed.
    EXPECT_LE(arena_peak(p), bound_bytes)
        << "partition " << p << " arena grew past its reservation";
    EXPECT_GE(final_bytes, 0.0) << "partition " << p;
    EXPECT_LE(final_bytes, final_peak) << "partition " << p;
    // A soak that never recycled a chunk wasn't running the zero-copy
    // path at all.
    EXPECT_GT(recycled, 0.0) << "partition " << p;
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
