// Network front-end benchmark: wire ingest throughput and ingest->delta
// latency over real loopback TCP, against the in-process service numbers.
//
// bench_svc_throughput measures what a producer thread calling
// MonitorService::Ingest directly experiences; this bench puts the
// binary protocol, the poll-based server and the blocking client
// between the same producers and the same engine. Each client is one
// connection batching tuples through wire ingest plus one subscriber
// connection long-polling its session's deltas; the table reports
// records/s end to end and the p50/p99 of push-to-poll latency, with an
// in-process baseline row (the svc_throughput measurement, same
// parameters) for the apples-to-apples overhead of the wire.
//
// Flags via env: TOPKMON_SCALE=smoke|default|paper (records per client),
// standard across the bench suite.

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
#include "service/monitor_service.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table_printer.h"

namespace topkmon {
namespace bench {
namespace {

constexpr int kDim = 2;
constexpr std::size_t kQueriesPerClient = 4;
constexpr int kK = 10;
constexpr std::size_t kWireBatch = 512;

struct RunResult {
  double wall_seconds = 0.0;
  double throughput = 0.0;  ///< records / second end to end
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t events = 0;
  std::uint64_t cycles = 0;
  std::uint64_t dropped = 0;
};

ServiceOptions MakeServiceOptions(std::size_t queries_per_client) {
  ServiceOptions options;
  options.ingest.slack = 8;
  options.ingest.max_batch = 4096;
  options.hub.buffer_capacity = 1 << 16;
  options.session.max_queries_per_session =
      static_cast<int>(queries_per_client);
  options.drain_wait = std::chrono::milliseconds(2);
  return options;
}

std::unique_ptr<MonitorService> MakeService(std::size_t window) {
  GridEngineOptions engine_opt;
  engine_opt.dim = kDim;
  engine_opt.window = WindowSpec::Count(window);
  return std::make_unique<MonitorService>(
      std::make_unique<TmaEngine>(engine_opt),
      MakeServiceOptions(kQueriesPerClient));
}

/// The in-process baseline: the exact measurement bench_svc_throughput
/// makes (producer threads calling Ingest directly), at one client.
RunResult RunInProcessBaseline(std::size_t records, std::size_t window) {
  auto service = MakeService(window);
  const auto session = service->OpenSession("baseline");
  if (!session.ok()) std::abort();
  std::uint64_t query_seed = 1;
  for (std::size_t q = 0; q < kQueriesPerClient; ++q) {
    QuerySpec spec;
    spec.k = kK;
    Rng rng(query_seed++);
    spec.function = MakeRandomFunction(FunctionFamily::kLinear, kDim,
                                       [&rng] { return rng.Uniform(); });
    if (!service->Register(*session, spec).ok()) std::abort();
  }
  std::vector<double> push_wall(records + 1, 0.0);
  Stopwatch watch;
  std::atomic<bool> done{false};
  std::vector<double> latencies;
  std::thread subscriber([&] {
    std::vector<DeltaEvent> events;
    while (true) {
      events.clear();
      const std::size_t n = service->WaitDeltas(
          *session, 4096, std::chrono::milliseconds(20), &events);
      const double now = watch.ElapsedSeconds();
      for (const DeltaEvent& e : events) {
        const Timestamp when = e.delta.when;
        if (when >= 1 && static_cast<std::size_t>(when) <= records) {
          latencies.push_back(now -
                              push_wall[static_cast<std::size_t>(when)]);
        }
      }
      if (n == 0 && done.load()) break;
    }
  });
  auto gen = MakeGenerator(Distribution::kIndependent, kDim, 1000);
  for (std::size_t i = 1; i <= records; ++i) {
    push_wall[i] = watch.ElapsedSeconds();
    if (!service->Ingest(gen->NextPoint(),
                         static_cast<Timestamp>(i)).ok()) {
      std::abort();
    }
  }
  if (!service->Flush().ok()) std::abort();
  const double wall = watch.ElapsedSeconds();
  service->Shutdown();
  done.store(true);
  subscriber.join();

  RunResult out;
  out.wall_seconds = wall;
  out.throughput = static_cast<double>(records) / wall;
  out.events = latencies.size();
  out.p50_ms = Percentile(latencies, 0.50) * 1e3;
  out.p99_ms = Percentile(latencies, 0.99) * 1e3;
  const ServiceStats stats = service->stats();
  out.cycles = stats.cycles;
  out.dropped = stats.deltas_dropped;
  return out;
}

RunResult RunWireClients(int clients, std::size_t records_per_client,
                         std::size_t window, std::size_t server_threads) {
  auto service = MakeService(window);
  NetServerOptions server_opt;
  server_opt.poll_tick = std::chrono::milliseconds(1);
  server_opt.server_threads = server_threads;
  TcpServer server(*service, server_opt);
  if (!server.Start().ok()) std::abort();
  const std::uint16_t port = server.port();

  // Register each client's queries over the wire before the stream.
  std::uint64_t query_seed = 1;
  for (int c = 0; c < clients; ++c) {
    auto sub = MonitorClient::Connect("127.0.0.1", port,
                                      "client-" + std::to_string(c),
                                      /*resume=*/false);
    if (!sub.ok()) std::abort();
    for (std::size_t q = 0; q < kQueriesPerClient; ++q) {
      QuerySpec spec;
      spec.k = kK;
      Rng rng(query_seed++);
      spec.function = MakeRandomFunction(FunctionFamily::kLinear, kDim,
                                         [&rng] { return rng.Uniform(); });
      if (!(*sub)->Register(spec).ok()) std::abort();
    }
    (void)(*sub)->Close(/*close_session=*/false);
  }

  const std::size_t total =
      static_cast<std::size_t>(clients) * records_per_client;
  std::vector<double> push_wall(total + 1, 0.0);
  std::atomic<Timestamp> clock{1};
  Stopwatch watch;

  // One subscriber thread per client session, resuming it by label over
  // its own connection and long-polling the delta stream.
  std::atomic<bool> done{false};
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  std::vector<std::thread> subscribers;
  for (int c = 0; c < clients; ++c) {
    subscribers.emplace_back([&, c] {
      auto client = MonitorClient::Connect("127.0.0.1", port,
                                           "client-" + std::to_string(c),
                                           /*resume=*/true);
      if (!client.ok() || !(*client)->resumed()) std::abort();
      while (true) {
        auto events =
            (*client)->PollDeltas(4096, std::chrono::milliseconds(20));
        if (!events.ok()) std::abort();
        const double now = watch.ElapsedSeconds();
        for (const DeltaEvent& e : *events) {
          const Timestamp when = e.delta.when;
          if (when >= 1 && static_cast<std::size_t>(when) <= total) {
            latencies[static_cast<std::size_t>(c)].push_back(
                now - push_wall[static_cast<std::size_t>(when)]);
          }
        }
        if (events->empty() && done.load()) break;
      }
      (void)(*client)->Close(/*close_session=*/false);
    });
  }

  // Producer threads: batched wire ingest on their own connections.
  std::vector<std::thread> producers;
  for (int c = 0; c < clients; ++c) {
    producers.emplace_back([&, c] {
      auto client = MonitorClient::Connect("127.0.0.1", port,
                                           "prod-" + std::to_string(c),
                                           /*resume=*/false);
      if (!client.ok()) std::abort();
      auto gen = MakeGenerator(Distribution::kIndependent, kDim,
                               1000 + static_cast<std::uint64_t>(c));
      std::size_t sent = 0;
      while (sent < records_per_client) {
        std::vector<Record> batch;
        const std::size_t n =
            std::min(kWireBatch, records_per_client - sent);
        batch.reserve(n);
        const double pushed_at = watch.ElapsedSeconds();
        for (std::size_t i = 0; i < n; ++i) {
          const Timestamp ts = clock.fetch_add(1);
          push_wall[static_cast<std::size_t>(ts)] = pushed_at;
          batch.emplace_back(0, gen->NextPoint(), ts);
        }
        IngestPaced(**client, batch);
        sent += n;
      }
      (void)(*client)->Close(/*close_session=*/false);
    });
  }
  for (std::thread& t : producers) t.join();
  if (!service->Flush().ok()) std::abort();
  const double wall = watch.ElapsedSeconds();
  done.store(true);
  for (std::thread& t : subscribers) t.join();
  server.Stop();
  const ServiceStats stats = service->stats();
  service->Shutdown();

  RunResult out;
  out.wall_seconds = wall;
  out.throughput = static_cast<double>(total) / wall;
  std::vector<double> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  out.events = all.size();
  out.p50_ms = Percentile(all, 0.50) * 1e3;
  out.p99_ms = Percentile(all, 0.99) * 1e3;
  out.cycles = stats.cycles;
  out.dropped = stats.deltas_dropped;
  return out;
}

int Main() {
  const Scale scale = GetScale();
  std::size_t records_per_client = 40000;
  std::size_t window = 10000;
  if (scale == Scale::kSmoke) {
    records_per_client = 2000;
    window = 1000;
  } else if (scale == Scale::kPaper) {
    records_per_client = 200000;
    window = 50000;
  }

  std::printf(
      "Binary TCP front-end: wire ingest throughput and ingest->delta "
      "latency\nrecords/client=%zu  window=N=%zu  queries/client=%zu  "
      "k=%d  wire batch=%zu  scale=%s\n\n",
      records_per_client, window, kQueriesPerClient, kK, kWireBatch,
      ScaleName(scale));

  TablePrinter table({"transport", "srv thr", "clients",
                      "ingest [rec/s]", "wall [s]", "p50 lat [ms]",
                      "p99 lat [ms]", "delta events", "cycles"});
  BenchResultWriter json("net_throughput");
  json.Config("records_per_client", static_cast<double>(records_per_client));
  json.Config("window", static_cast<double>(window));
  json.Config("queries_per_client", static_cast<double>(kQueriesPerClient));
  json.Config("k", static_cast<double>(kK));
  json.Config("wire_batch", static_cast<double>(kWireBatch));
  auto record_row = [&json](const std::string& label, const RunResult& r,
                            const std::string& transport, int threads,
                            int clients) {
    BenchResultWriter::Row& row = json.AddRow(label);
    row.tags["transport"] = transport;
    row.metrics["server_threads"] = threads;
    row.metrics["clients"] = clients;
    row.metrics["ingest_rec_per_s"] = r.throughput;
    row.metrics["wall_s"] = r.wall_seconds;
    row.metrics["p50_latency_ms"] = r.p50_ms;
    row.metrics["p99_latency_ms"] = r.p99_ms;
    row.metrics["delta_events"] = static_cast<double>(r.events);
    row.metrics["cycles"] = static_cast<double>(r.cycles);
  };
  const RunResult base = RunInProcessBaseline(records_per_client, window);
  record_row("in-process", base, "in-process", 0, 1);
  table.AddRow({"in-process", "-", TablePrinter::Int(1),
                TablePrinter::Num(base.throughput, 5),
                TablePrinter::Num(base.wall_seconds, 4),
                TablePrinter::Num(base.p50_ms, 4),
                TablePrinter::Num(base.p99_ms, 4),
                TablePrinter::Int(static_cast<std::int64_t>(base.events)),
                TablePrinter::Int(static_cast<std::int64_t>(base.cycles))});
  RunResult wire1;
  for (int clients : {1, 2, 4, 8}) {
    const RunResult r =
        RunWireClients(clients, records_per_client, window,
                       /*server_threads=*/1);
    if (clients == 1) wire1 = r;
    record_row("tcp-1thr-" + std::to_string(clients) + "cli", r, "tcp", 1,
               clients);
    table.AddRow({"tcp", TablePrinter::Int(1), TablePrinter::Int(clients),
                  TablePrinter::Num(r.throughput, 5),
                  TablePrinter::Num(r.wall_seconds, 4),
                  TablePrinter::Num(r.p50_ms, 4),
                  TablePrinter::Num(r.p99_ms, 4),
                  TablePrinter::Int(static_cast<std::int64_t>(r.events)),
                  TablePrinter::Int(static_cast<std::int64_t>(r.cycles))});
  }
  // The --server_threads sweep: fixed 4-client load, 1 -> 2 -> 4 poll
  // loops. With spare cores this is the aggregate-ingest scaling row
  // set recorded in bench/README.md; on a starved box it shows the
  // sharding costs nothing when there is nothing to parallelize.
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    const RunResult r =
        RunWireClients(4, records_per_client, window, threads);
    record_row("tcp-" + std::to_string(threads) + "thr-4cli", r, "tcp",
               static_cast<int>(threads), 4);
    table.AddRow({"tcp", TablePrinter::Int(static_cast<int>(threads)),
                  TablePrinter::Int(4),
                  TablePrinter::Num(r.throughput, 5),
                  TablePrinter::Num(r.wall_seconds, 4),
                  TablePrinter::Num(r.p50_ms, 4),
                  TablePrinter::Num(r.p99_ms, 4),
                  TablePrinter::Int(static_cast<std::int64_t>(r.events)),
                  TablePrinter::Int(static_cast<std::int64_t>(r.cycles))});
  }
  table.Print(std::cout);
  json.Write();
  std::printf(
      "\nwire/in-process single-client ingest ratio: %.2f (target: >= "
      "0.50)\n",
      base.throughput > 0.0 ? wire1.throughput / base.throughput : 0.0);
  PrintExpectation(
      "batched span-encoded ingest keeps the single-client wire rate "
      "within a small factor of in-process ingest (the frame/CRC cost "
      "amortizes over the batch), and multi-client wire throughput holds "
      "roughly flat while p99 ingest->delta latency absorbs the server's "
      "poll tick on top of the cycle cadence");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace topkmon

int main() { return topkmon::bench::Main(); }
