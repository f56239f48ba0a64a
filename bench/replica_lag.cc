// Replication lag and leader-overhead benchmark.
//
// Two questions a warm-standby deployment asks of journal shipping:
//   1. What does an attached follower cost the leader? Nothing on the
//      ingest path by construction (the follower pulls; the leader's
//      driver never waits on it) — measured here as wire ingest
//      throughput with and without one follower attached, against the
//      same 1-client no-journal measurement bench_net_throughput makes
//      (the PR 3 baseline). The acceptance bar for this repo: the
//      attached run stays within 0.9x of that baseline when the box has
//      a core to spare for the replica's replay; a single-core box
//      time-slices the replay against the leader (see the closing note).
//   2. How far behind does a healthy follower run? The main thread
//      samples the follower's cycle-timestamp apply lag during the
//      stream (steady state) and times the post-stream drain to zero.
//
// Scale via TOPKMON_SCALE=smoke|default|paper, standard across the
// bench suite; this is also the CI smoke target for the replica tier.

#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "bench/common/harness.h"
#include "core/tma_engine.h"
#include "net/client.h"
#include "net/server.h"
#include "replica/follower.h"
#include "service/monitor_service.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table_printer.h"

namespace topkmon {
namespace bench {
namespace {

constexpr int kDim = 2;
constexpr std::size_t kQueries = 4;
constexpr int kK = 10;
constexpr std::size_t kWireBatch = 512;

std::string MakeTempDir() {
  char tmpl[] = "/tmp/topkmon_bench_replica_XXXXXX";
  const char* made = ::mkdtemp(tmpl);
  if (made == nullptr) std::abort();
  return made;
}

void RemoveDirRecursive(const std::string& dir) {
  const std::string cmd = "rm -rf '" + dir + "'";
  if (std::system(cmd.c_str()) != 0) {
    std::fprintf(stderr, "warning: failed to clean %s\n", dir.c_str());
  }
}

std::function<std::unique_ptr<MonitorEngine>()> TmaFactory(
    std::size_t window) {
  return [window] {
    GridEngineOptions opt;
    opt.dim = kDim;
    opt.window = WindowSpec::Count(window);
    return std::unique_ptr<MonitorEngine>(new TmaEngine(opt));
  };
}

struct RunResult {
  double throughput = 0.0;       ///< wire ingest records/second
  double lag_p50_ts = 0.0;       ///< steady-state apply lag (cycle ts)
  double lag_max_ts = 0.0;
  double drain_ms = 0.0;         ///< post-stream catch-up to zero lag
  std::uint64_t restarts = 0;
  std::uint64_t segments_completed = 0;
  std::uint64_t bytes_shipped = 0;
};

enum class Config {
  kBaseline,  ///< no journal, no follower: the bench_net_throughput
              ///< 1-client measurement (the PR 3 baseline)
  kJournaled,
  kAttached,  ///< journaled + one live follower
};

RunResult Run(std::size_t records, std::size_t window, Config config) {
  const bool with_follower = config == Config::kAttached;
  const std::string leader_dir = MakeTempDir();
  RunResult out;
  {
    ServiceOptions opt;
    opt.ingest.slack = 8;
    opt.ingest.max_batch = 4096;
    opt.hub.buffer_capacity = 64;  // no subscriber in this bench
    opt.session.max_queries_per_session = kQueries;
    opt.drain_wait = std::chrono::milliseconds(2);
    if (config != Config::kBaseline) {
      opt.journal.dir = leader_dir + "/journal";
    }
    opt.journal.retain_segment_count = 2;  // replication horizon
    std::unique_ptr<MonitorService> leader;
    if (config == Config::kBaseline) {
      leader = std::make_unique<MonitorService>(TmaFactory(window)(), opt);
    } else {
      auto opened = MonitorService::Open(TmaFactory(window), opt);
      if (!opened.ok()) std::abort();
      leader = std::move(*opened);
    }
    NetServerOptions net;
    net.poll_tick = std::chrono::milliseconds(1);
    TcpServer server(*leader, net);
    if (!server.Start().ok()) std::abort();

    std::string follower_dir;
    std::unique_ptr<ReplicaFollower> follower;
    if (with_follower) {
      follower_dir = MakeTempDir();
      ServiceOptions fsvc;
      fsvc.journal.dir = follower_dir + "/repl";
      fsvc.hub.buffer_capacity = 64;
      ReplicaFollowerOptions fopt;
      fopt.leader_port = server.port();
      fopt.fetch_wait = std::chrono::milliseconds(20);
      auto opened = ReplicaFollower::Open(TmaFactory(window), fsvc, fopt);
      if (!opened.ok()) std::abort();
      follower = std::move(*opened);
    }

    // The same 1-client shape bench_net_throughput measures: register
    // over the wire, then batched wire ingest.
    {
      auto sub = MonitorClient::Connect("127.0.0.1", server.port(),
                                        "client-0", /*resume=*/false);
      if (!sub.ok()) std::abort();
      std::vector<QuerySpec> specs;
      for (std::size_t q = 0; q < kQueries; ++q) {
        QuerySpec spec;
        spec.k = kK;
        Rng rng(q + 1);
        spec.function = MakeRandomFunction(
            FunctionFamily::kLinear, kDim, [&rng] { return rng.Uniform(); });
        specs.push_back(std::move(spec));
      }
      const auto outcomes = (*sub)->RegisterBatch(specs);
      if (!outcomes.ok()) std::abort();
      (void)(*sub)->Close(/*close_session=*/false);
    }

    std::atomic<bool> done{false};
    std::vector<double> lag_samples;
    std::thread sampler;
    if (with_follower) {
      sampler = std::thread([&] {
        while (!done.load()) {
          lag_samples.push_back(
              static_cast<double>(follower->stats().LagTs()));
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      });
    }

    Stopwatch watch;
    {
      auto producer = MonitorClient::Connect("127.0.0.1", server.port(),
                                             "prod-0", /*resume=*/false);
      if (!producer.ok()) std::abort();
      auto gen = MakeGenerator(Distribution::kIndependent, kDim, 1000);
      std::size_t sent = 0;
      Timestamp ts = 0;
      while (sent < records) {
        std::vector<Record> batch;
        const std::size_t n = std::min(kWireBatch, records - sent);
        batch.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
          batch.emplace_back(0, gen->NextPoint(), ++ts);
        }
        IngestPaced(**producer, batch);
        sent += n;
      }
      (void)(*producer)->Close(/*close_session=*/false);
    }
    if (!leader->Flush().ok()) std::abort();
    const double wall = watch.ElapsedSeconds();
    out.throughput = static_cast<double>(records) / wall;

    if (with_follower) {
      const Timestamp leader_ts = leader->replication().applied_cycle_ts;
      Stopwatch drain;
      if (!follower->WaitForCycleTs(leader_ts, std::chrono::minutes(5))
               .ok()) {
        std::abort();
      }
      out.drain_ms = drain.ElapsedSeconds() * 1e3;
      done.store(true);
      sampler.join();
      out.lag_p50_ts = Percentile(lag_samples, 0.50);
      out.lag_max_ts = Percentile(lag_samples, 1.00);
      const ReplicaFollowerStats fs = follower->stats();
      out.restarts = fs.restarts;
      out.segments_completed = fs.segments_completed;
      out.bytes_shipped = fs.bytes_shipped;
      follower->Stop();
    }
    server.Stop();
    leader->Shutdown();
    if (!follower_dir.empty()) RemoveDirRecursive(follower_dir);
  }
  RemoveDirRecursive(leader_dir);
  return out;
}

int Main() {
  const Scale scale = GetScale();
  std::size_t records = 200000;
  std::size_t window = 10000;
  if (scale == Scale::kSmoke) {
    records = 10000;
    window = 1000;
  } else if (scale == Scale::kPaper) {
    records = 1000000;
    window = 50000;
  }

  std::printf(
      "Journal-shipping replication: follower apply lag and leader "
      "overhead\nrecords=%zu  window=N=%zu  queries=%zu  k=%d  wire "
      "batch=%zu  engine=TMA  scale=%s\n\n",
      records, window, kQueries, kK, kWireBatch, ScaleName(scale));

  // Best of 3 per configuration: single wire-producer runs are noisy
  // (the slack-gate batching and scheduler both move the needle).
  auto best_of = [&](Config config) {
    RunResult best;
    for (int r = 0; r < 3; ++r) {
      RunResult run = Run(records, window, config);
      if (run.throughput > best.throughput) best = run;
    }
    return best;
  };
  const RunResult baseline = best_of(Config::kBaseline);
  const RunResult alone = best_of(Config::kJournaled);
  const RunResult attached = best_of(Config::kAttached);

  BenchResultWriter json("replica_lag");
  json.Config("records", static_cast<double>(records));
  json.Config("window", static_cast<double>(window));
  json.Config("queries", static_cast<double>(kQueries));
  json.Config("k", static_cast<double>(kK));
  json.Config("wire_batch", static_cast<double>(kWireBatch));
  json.AddRow("wire-no-journal").metrics["ingest_rec_per_s"] =
      baseline.throughput;
  json.AddRow("journaled-leader").metrics["ingest_rec_per_s"] =
      alone.throughput;
  {
    BenchResultWriter::Row& row = json.AddRow("journaled-plus-follower");
    row.metrics["ingest_rec_per_s"] = attached.throughput;
    row.metrics["lag_p50_ts"] = attached.lag_p50_ts;
    row.metrics["lag_max_ts"] = attached.lag_max_ts;
    row.metrics["drain_ms"] = attached.drain_ms;
    row.metrics["segments_completed"] =
        static_cast<double>(attached.segments_completed);
    row.metrics["resyncs"] = static_cast<double>(attached.restarts);
    row.metrics["shipped_mib"] =
        static_cast<double>(attached.bytes_shipped) / (1024.0 * 1024.0);
    row.metrics["vs_baseline"] =
        baseline.throughput > 0.0
            ? attached.throughput / baseline.throughput
            : 0.0;
  }

  TablePrinter table({"configuration", "ingest [rec/s]", "lag p50 [ts]",
                      "lag max [ts]", "drain [ms]", "segments", "resyncs",
                      "shipped [MiB]"});
  table.AddRow({"wire 1-client, no journal (PR3 baseline)",
                TablePrinter::Num(baseline.throughput, 5), "-", "-", "-",
                "-", "-", "-"});
  table.AddRow({"journaled leader alone",
                TablePrinter::Num(alone.throughput, 5), "-", "-", "-", "-",
                "-", "-"});
  table.AddRow(
      {"journaled leader + 1 follower",
       TablePrinter::Num(attached.throughput, 5),
       TablePrinter::Num(attached.lag_p50_ts, 4),
       TablePrinter::Num(attached.lag_max_ts, 4),
       TablePrinter::Num(attached.drain_ms, 4),
       TablePrinter::Int(static_cast<std::int64_t>(
           attached.segments_completed)),
       TablePrinter::Int(static_cast<std::int64_t>(attached.restarts)),
       TablePrinter::Num(
           static_cast<double>(attached.bytes_shipped) / (1024.0 * 1024.0),
           4)});
  table.Print(std::cout);
  json.Write();

  const long cores = ::sysconf(_SC_NPROCESSORS_ONLN);
  std::printf(
      "\nattached/baseline ingest ratio: %.2f   attached/journaled: %.2f "
      "  (target: >= 0.90 with >= 2 cores; this box has %ld)\n",
      baseline.throughput > 0.0 ? attached.throughput / baseline.throughput
                                : 0.0,
      alone.throughput > 0.0 ? attached.throughput / alone.throughput : 0.0,
      cores);
  PrintExpectation(
      "the follower pulls journal bytes through its own connection and "
      "parked fetches, so nothing in the leader's ingest path ever waits "
      "on it — with a spare core for the replica's replay the attached "
      "ratio holds >= 0.9; on a single-core box the replica's own replay "
      "(inherently the same engine work again) time-slices the leader's "
      "core and the ratio reads ~0.7 — that is replay CPU, not shipping "
      "overhead (the fetch path itself costs ~30 paced round trips per "
      "run). Steady-state apply lag stays within one fetch-pacing "
      "interval of cycles and drains to zero in well under a second once "
      "the stream stops; zero resyncs at the default horizon");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace topkmon

int main() { return topkmon::bench::Main(); }
