// Cluster tier scaling: what the scatter-gather router costs and buys.
//
// Three configurations ingest the same record stream over loopback TCP:
//   single-leader  one MonitorService behind one TcpServer, a plain
//                  MonitorClient batching tuples (the bench_net_throughput
//                  measurement, repeated here as the baseline);
//   cluster-1p     a 1-partition LocalCluster behind a ClusterRouter —
//                  identical data path plus the router's hash-routing,
//                  id namespacing and pacing logic (pure overhead);
//   cluster-3p     a 3-partition LocalCluster, the router fanning each
//                  batch to its owning leaders.
// The table reports end-to-end records/s and the p50/p99 of the per-batch
// ingest RPC (client-observed round trip including pacing retries). On a
// box with spare cores the 3-partition row shows the fan-out win; on a
// starved 1-CPU box the honest result is "routing costs little" — the
// committed target is cluster-1p >= 0.8x single-leader.
//
// Flags via env: TOPKMON_SCALE=smoke|default|paper, standard across the
// bench suite; TOPKMON_BENCH_JSON_DIR for the machine-readable output.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common/harness.h"
#include "cluster/local_cluster.h"
#include "cluster/router.h"
#include "core/tma_engine.h"
#include "net/client.h"
#include "net/server.h"
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

struct RunResult {
  double wall_seconds = 0.0;
  double throughput = 0.0;  ///< records / second end to end
  double p50_ms = 0.0;      ///< per-batch ingest RPC round trip
  double p99_ms = 0.0;
};

ServiceOptions MakeServiceOptions() {
  ServiceOptions options;
  options.ingest.slack = 8;
  options.ingest.max_batch = 4096;
  options.hub.buffer_capacity = 1 << 16;
  options.drain_wait = std::chrono::milliseconds(2);
  return options;
}

std::function<std::unique_ptr<MonitorEngine>()> EngineFactory(
    std::size_t window) {
  return [window] {
    GridEngineOptions opt;
    opt.dim = kDim;
    opt.window = WindowSpec::Count(window);
    return std::unique_ptr<MonitorEngine>(new TmaEngine(opt));
  };
}

std::vector<QuerySpec> BenchQueries() {
  std::vector<QuerySpec> specs;
  std::uint64_t seed = 1;
  for (std::size_t q = 0; q < kQueries; ++q) {
    QuerySpec spec;
    spec.k = kK;
    Rng rng(seed++);
    spec.function = MakeRandomFunction(FunctionFamily::kLinear, kDim,
                                       [&rng] { return rng.Uniform(); });
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Baseline: one leader, one plain wire client, hint-paced batches.
RunResult RunSingleLeader(std::size_t records, std::size_t window) {
  auto service = std::make_unique<MonitorService>(EngineFactory(window)(),
                                                  MakeServiceOptions());
  NetServerOptions server_opt;
  server_opt.poll_tick = std::chrono::milliseconds(1);
  TcpServer server(*service, server_opt);
  if (!server.Start().ok()) std::abort();

  auto client = MonitorClient::Connect("127.0.0.1", server.port(),
                                       "bench-single", /*resume=*/false);
  if (!client.ok()) std::abort();
  for (const QuerySpec& spec : BenchQueries()) {
    if (!(*client)->Register(spec).ok()) std::abort();
  }

  auto gen = MakeGenerator(Distribution::kIndependent, kDim, 2000);
  std::vector<double> rpc_seconds;
  Stopwatch watch;
  Timestamp clock = 1;
  std::size_t sent = 0;
  while (sent < records) {
    const std::size_t n = std::min(kWireBatch, records - sent);
    std::vector<Record> batch;
    batch.reserve(n);
    const Timestamp ts = clock++;
    for (std::size_t i = 0; i < n; ++i) {
      batch.emplace_back(0, gen->NextPoint(), ts);
    }
    const double start = watch.ElapsedSeconds();
    IngestPaced(**client, batch);
    rpc_seconds.push_back(watch.ElapsedSeconds() - start);
    sent += n;
  }
  if (!service->Flush().ok()) std::abort();
  const double wall = watch.ElapsedSeconds();
  (void)(*client)->Close(/*close_session=*/false);
  server.Stop();
  service->Shutdown();

  RunResult out;
  out.wall_seconds = wall;
  out.throughput = static_cast<double>(records) / wall;
  out.p50_ms = Percentile(rpc_seconds, 0.50) * 1e3;
  out.p99_ms = Percentile(rpc_seconds, 0.99) * 1e3;
  return out;
}

/// Cluster path: an N-partition LocalCluster behind a ClusterRouter.
RunResult RunCluster(std::size_t partitions, std::size_t records,
                     std::size_t window) {
  LocalClusterOptions options;
  options.partitions = partitions;
  options.engine_factory = EngineFactory(window);
  options.service = MakeServiceOptions();
  options.net.poll_tick = std::chrono::milliseconds(1);
  auto cluster = LocalCluster::Start(options);
  if (!cluster.ok()) std::abort();

  auto router = ClusterRouter::Connect((*cluster)->map(), "bench-cluster",
                                       /*resume=*/false);
  if (!router.ok()) std::abort();
  for (const QuerySpec& spec : BenchQueries()) {
    if (!(*router)->Register(spec).ok()) std::abort();
  }

  auto gen = MakeGenerator(Distribution::kIndependent, kDim, 2000);
  std::vector<double> rpc_seconds;
  Stopwatch watch;
  Timestamp clock = 1;
  std::size_t sent = 0;
  RecordId next_id = 0;
  while (sent < records) {
    const std::size_t n = std::min(kWireBatch, records - sent);
    std::vector<Record> batch;
    batch.reserve(n);
    const Timestamp ts = clock++;
    for (std::size_t i = 0; i < n; ++i) {
      batch.emplace_back(next_id++, gen->NextPoint(), ts);
    }
    const double start = watch.ElapsedSeconds();
    const auto report = (*router)->Ingest(batch);
    if (!report.ok() || report->rejected != 0) std::abort();
    rpc_seconds.push_back(watch.ElapsedSeconds() - start);
    sent += n;
  }
  if (!(*cluster)->FlushAll().ok()) std::abort();
  const double wall = watch.ElapsedSeconds();
  (void)(*router)->Close();
  (*cluster)->Stop();

  RunResult out;
  out.wall_seconds = wall;
  out.throughput = static_cast<double>(records) / wall;
  out.p50_ms = Percentile(rpc_seconds, 0.50) * 1e3;
  out.p99_ms = Percentile(rpc_seconds, 0.99) * 1e3;
  return out;
}

int Main() {
  const Scale scale = GetScale();
  std::size_t records = 40000;
  std::size_t window = 10000;
  if (scale == Scale::kSmoke) {
    records = 4000;
    window = 1000;
  } else if (scale == Scale::kPaper) {
    records = 200000;
    window = 50000;
  }

  std::printf(
      "Cluster tier: scatter-gather routing overhead and partition "
      "fan-out\nrecords=%zu  window=N=%zu (per leader)  queries=%zu  "
      "k=%d  wire batch=%zu  scale=%s\n\n",
      records, window, kQueries, kK, kWireBatch, ScaleName(scale));

  BenchResultWriter json("cluster_scaling");
  json.Config("records", static_cast<double>(records));
  json.Config("window", static_cast<double>(window));
  json.Config("queries", static_cast<double>(kQueries));
  json.Config("k", static_cast<double>(kK));
  json.Config("wire_batch", static_cast<double>(kWireBatch));

  TablePrinter table({"configuration", "partitions", "ingest [rec/s]",
                      "wall [s]", "p50 rpc [ms]", "p99 rpc [ms]",
                      "vs single"});
  auto record_row = [&](const std::string& label, std::size_t partitions,
                        const RunResult& r, double baseline) {
    BenchResultWriter::Row& row = json.AddRow(label);
    row.metrics["partitions"] = static_cast<double>(partitions);
    row.metrics["ingest_rec_per_s"] = r.throughput;
    row.metrics["wall_s"] = r.wall_seconds;
    row.metrics["p50_rpc_ms"] = r.p50_ms;
    row.metrics["p99_rpc_ms"] = r.p99_ms;
    row.metrics["vs_single_leader"] =
        baseline > 0.0 ? r.throughput / baseline : 0.0;
    table.AddRow({label, TablePrinter::Int(static_cast<int>(partitions)),
                  TablePrinter::Num(r.throughput, 5),
                  TablePrinter::Num(r.wall_seconds, 4),
                  TablePrinter::Num(r.p50_ms, 4),
                  TablePrinter::Num(r.p99_ms, 4),
                  TablePrinter::Num(
                      baseline > 0.0 ? r.throughput / baseline : 0.0, 3)});
  };

  const RunResult single = RunSingleLeader(records, window);
  record_row("single-leader", 1, single, single.throughput);
  const RunResult one = RunCluster(1, records, window);
  record_row("cluster-1p", 1, one, single.throughput);
  const RunResult three = RunCluster(3, records, window);
  record_row("cluster-3p", 3, three, single.throughput);

  table.Print(std::cout);
  json.Write();
  std::printf(
      "\nrouting overhead (cluster-1p / single-leader): %.2f (target: >= "
      "0.80)\n",
      single.throughput > 0.0 ? one.throughput / single.throughput : 0.0);
  PrintExpectation(
      "the 1-partition cluster tracks the single leader closely (the "
      "router adds one hash and one id-namespace pass per batch); with "
      "spare cores the 3-partition row scales ingest by splitting each "
      "batch across leaders, while on a single-CPU box all three rows "
      "converge — the tier's win there is capacity (3x window, 3x "
      "queries), not CPU");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace topkmon

int main() { return topkmon::bench::Main(); }
