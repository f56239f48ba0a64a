// Service demo: the monitoring engines behind a multi-client service —
// in-process, or split across processes over the binary TCP protocol.
//
// Five modes (--mode=local is the default):
//   * local  — everything in one process: 3 producer threads stream
//     tuples through the batching ingest queue while 2 client sessions
//     hold continuous top-k queries and long-poll their delta streams.
//   * serve  — starts the TCP front-end on --port and blocks serving
//     remote clients until the process is killed (or --serve_seconds
//     elapses). Combine with --journal=DIR for a durable server that
//     recovers sessions and queries across restarts — and that
//     followers can replicate from.
//   * client — connects to --host:--port, registers --queries top-k
//     queries under a session labeled --label (resuming it if the
//     server already knows the label), streams --records tuples through
//     batched wire ingest, and prints the deltas it long-polls. Run
//     several concurrently; re-run with the same --label to see
//     gap-free resume (sequence numbers continue where they stopped).
//   * cluster — the horizontal tier in one process: --partitions
//     independent leaders (each behind a real TCP socket, each
//     announcing its partition index as the Welcome server_tag), a
//     routed producer per --producers thread hash-splitting its tuples
//     across the partitions, and a subscriber router that merges the
//     per-partition delta streams into one gap-free sequence and
//     k-merges the per-partition top-k into the global answer. With
//     --journal=DIR each partition journals under DIR/p<i>.
//   * follower — warm standby: ships the journal of the leader at
//     --host:--port into --journal=DIR (required), continuously replays
//     it, and serves *read-only* clients on --listen (snapshots carry a
//     staleness bound; writes are refused with a redirect). Prints the
//     apply lag once a second. With --promote_seconds=N the follower
//     promotes itself after N seconds — kill the leader first and watch
//     the standby take over writes with the same sessions and queries.
//
// With --journal=DIR the service write-ahead-journals every cycle and
// recovers the directory on startup: run twice with the same DIR and
// the second run prints the recovery summary, re-adopts the first run's
// sessions by label, and continues their queries.
//
// Replication quickstart (three terminals):
//   service_demo --mode=serve --journal=/tmp/leaderj --port=4585
//   service_demo --mode=follower --journal=/tmp/replj --port=4585 --listen=4586
//   service_demo --mode=client --port=4585 --label=dash   # writes
//   service_demo --mode=client --port=4586 --label=dash --records=0
//                                       # reads the replica's stream
//
// With --workload=NAME (local mode) the demo is driven by a named
// generator from the workload registry instead of the built-in random
// queries and clustered producers: the workload schedules the query
// register/unregister mix and the per-cycle arrival batches, and the
// service ingests them through the same pipeline. --workload=list
// prints every registered name with its tunable parameters (see
// docs/WORKLOADS.md).
//
// Flags: --mode=local|serve|client|follower|cluster --host=H --port=P
//        --listen=P --label=NAME --producers=N --records=N --queries=N
//        --k=N --window=N --serve_seconds=N --promote_seconds=N
//        --journal=DIR --sync=none|interval|always --server_threads=N
//        (0 = min(4, cores); with >= 2 threads and a journal, the last
//        poll loop is dedicated to replication fetches)
//        --partitions=N (cluster mode) --server_tag=I (serve mode: the
//        operator-assigned partition index announced in Welcome when
//        this server is one leader of a cluster; see docs/CLUSTER.md)
//        --workload=NAME|list --workload_seed=S (local mode)
//        --admin_port=P (serve/follower modes: read-only HTTP admin
//        plane on 127.0.0.1:P — /metrics, /statusz, /healthz; 0 binds
//        an ephemeral port, omit to disable; see docs/ADMIN.md)
//        --dump_metrics (prints every metric name a full node — leader,
//        TCP server, replica follower, failover agent — registers, one
//        per line, and exits; tools/check_metrics.py diffs this against
//        the docs/ADMIN.md catalog)

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <stdlib.h>

#include "cluster/local_cluster.h"
#include "cluster/router.h"
#include "core/sharded_engine.h"
#include "core/tma_engine.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "replica/failover.h"
#include "replica/follower.h"
#include "service/monitor_service.h"
#include "stream/generators.h"
#include "util/flags.h"
#include "util/rng.h"
#include "workload/workload.h"

using namespace topkmon;

namespace {

/// Shared engine factory of every serving mode.
std::function<std::unique_ptr<MonitorEngine>()> EngineFactory(
    std::size_t window) {
  return [window] {
    return std::unique_ptr<MonitorEngine>(new ShardedEngine(
        2,
        [window] {
          GridEngineOptions opt;
          opt.dim = 2;
          opt.window = WindowSpec::Count(window);
          return std::unique_ptr<MonitorEngine>(new TmaEngine(opt));
        }));
  };
}

/// Builds the service (recovering --journal if given) shared by the
/// local and serve modes.
std::unique_ptr<MonitorService> MakeService(std::size_t window,
                                            const std::string& journal_dir,
                                            SyncPolicy sync,
                                            long admin_port = -1) {
  ServiceOptions options;
  options.ingest.slack = 4;
  options.drain_wait = std::chrono::milliseconds(2);
  options.journal.dir = journal_dir;
  options.journal.sync = sync;
  // Leave the previous segment for attached followers to finish.
  options.journal.retain_segment_count = 2;
  if (admin_port >= 0) {
    options.admin.enabled = true;
    options.admin.port = static_cast<std::uint16_t>(admin_port);
  }
  const auto engine_factory = EngineFactory(window);
  if (journal_dir.empty()) {
    return std::make_unique<MonitorService>(engine_factory(), options);
  }
  auto opened = MonitorService::Open(engine_factory, options);
  if (!opened.ok()) {
    std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
    return nullptr;
  }
  std::printf("journal: %s\n", (*opened)->recovery().ToString().c_str());
  return std::move(*opened);
}

/// First unlabeled sample named `name` in a scrape, or 0 — the demo's
/// summary lines only need the node-wide series.
double SampleValue(const MetricsSnapshot& snap, const char* name) {
  for (const MetricSample& s : snap.samples) {
    if (s.name == name && s.labels.empty()) return s.value;
  }
  return 0.0;
}

/// Announces the admin plane (if the service managed to bind it) right
/// after startup, so operators can copy-paste the scrape URL.
void PrintAdminEndpoint(const MonitorService& service) {
  if (service.admin_port() != 0) {
    std::printf("admin:   http://127.0.0.1:%u/metrics (also /statusz, "
                "/healthz)\n",
                service.admin_port());
  } else if (!service.admin_status().ok()) {
    std::fprintf(stderr, "admin plane disabled: %s\n",
                 service.admin_status().ToString().c_str());
  }
}

/// The periodic serve-mode summary, sourced from the metrics registry —
/// the same numbers a /metrics scrape sees, proving the registry is the
/// one place the node's health lives. `interval` is the seconds since
/// `last_ingested` was sampled.
void PrintStatsLine(MonitorService& service, std::uint64_t* last_ingested,
                    long interval) {
  const MetricsSnapshot snap = service.metrics().Snapshot();
  const auto ingested = static_cast<std::uint64_t>(
      SampleValue(snap, "topkmon_records_ingested_total"));
  const double rate =
      interval > 0
          ? static_cast<double>(ingested - *last_ingested) /
                static_cast<double>(interval)
          : 0.0;
  *last_ingested = ingested;
  std::printf(
      "stats:   %.0f rec/s  queue depth %.0f (pressure %.0f)  "
      "sessions %.0f  staleness %.0f  %s epoch %.0f\n",
      rate, SampleValue(snap, "topkmon_ingest_queue_depth"),
      SampleValue(snap, "topkmon_ingest_queue_pressure"),
      SampleValue(snap, "topkmon_open_sessions"),
      SampleValue(snap, "topkmon_replication_staleness"),
      SampleValue(snap, "topkmon_fenced") != 0.0
          ? "FENCED"
          : SampleValue(snap, "topkmon_is_leader") != 0.0 ? "leader"
                                                          : "follower",
      SampleValue(snap, "topkmon_fencing_epoch"));
}

int RunServe(std::size_t window, const std::string& journal_dir,
             SyncPolicy sync, std::uint16_t port, long serve_seconds,
             std::size_t server_threads, std::uint32_t server_tag,
             long admin_port) {
  auto service = MakeService(window, journal_dir, sync, admin_port);
  if (service == nullptr) return 1;
  NetServerOptions net;
  net.port = port;
  net.server_threads = server_threads;
  net.server_tag = server_tag;
  TcpServer server(*service, net);
  if (const Status st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (server_tag != kNoServerTag) {
    std::printf("cluster partition %u — routers will refuse this server "
                "at any other index of their endpoint list\n", server_tag);
  }
  std::printf("serving on 127.0.0.1:%u with %zu poll loop(s)%s — "
              "connect with --mode=client --port=%u (ctrl-C to stop)\n",
              server.port(), server.loop_count(),
              server.replication_loop() < server.loop_count()
                  ? " (last one dedicated to replication)"
                  : "",
              server.port());
  PrintAdminEndpoint(*service);
  long elapsed = 0;
  std::uint64_t last_ingested = 0;
  while (serve_seconds <= 0 || elapsed < serve_seconds) {
    std::this_thread::sleep_for(std::chrono::seconds(1));
    ++elapsed;
    if (elapsed % 10 == 0) {
      PrintStatsLine(*service, &last_ingested, /*interval=*/10);
    }
  }
  server.Stop();
  service->Shutdown();
  std::printf("net:     %s\nservice: %s\n",
              server.stats().ToString().c_str(),
              service->stats().ToString().c_str());
  return 0;
}

int RunFollower(std::size_t window, const std::string& journal_dir,
                const std::string& leader_host, std::uint16_t leader_port,
                std::uint16_t listen_port, long serve_seconds,
                long promote_seconds, std::size_t server_threads,
                long admin_port) {
  if (journal_dir.empty()) {
    std::fprintf(stderr,
                 "--mode=follower needs --journal=DIR (the local "
                 "directory the leader's journal is shipped into)\n");
    return 1;
  }
  ServiceOptions options;
  options.journal.dir = journal_dir;
  if (admin_port >= 0) {
    options.admin.enabled = true;
    options.admin.port = static_cast<std::uint16_t>(admin_port);
  }
  ReplicaFollowerOptions fopt;
  fopt.leader_host = leader_host;
  fopt.leader_port = leader_port;
  auto follower = ReplicaFollower::Open(EngineFactory(window), options,
                                        fopt);
  if (!follower.ok()) {
    std::fprintf(stderr, "%s\n", follower.status().ToString().c_str());
    return 1;
  }
  NetServerOptions net;
  net.port = listen_port;
  net.server_threads = server_threads;
  TcpServer server((*follower)->service(), net);
  if (const Status st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf(
      "read-only follower of %s:%u serving on 127.0.0.1:%u — reads "
      "(snapshots, delta polls) welcome; writes are redirected\n",
      leader_host.c_str(), leader_port, server.port());
  PrintAdminEndpoint((*follower)->service());
  bool promoted = false;
  long elapsed = 0;
  std::uint64_t last_ingested = 0;
  while (serve_seconds <= 0 || elapsed < serve_seconds) {
    std::this_thread::sleep_for(std::chrono::seconds(1));
    ++elapsed;
    if (!promoted) {
      const ReplicaFollowerStats stats = (*follower)->stats();
      std::printf(
          "lag: %lld cycle-ts (applied %lld / leader %lld)  shipped %llu "
          "bytes  segment %llu  resyncs %llu%s\n",
          static_cast<long long>(stats.LagTs()),
          static_cast<long long>(stats.applied_cycle_ts),
          static_cast<long long>(stats.leader_cycle_ts),
          static_cast<unsigned long long>(stats.bytes_shipped),
          static_cast<unsigned long long>(stats.current_segment),
          static_cast<unsigned long long>(stats.restarts),
          stats.connected ? "" : "  [leader unreachable]");
    }
    if (!promoted && promote_seconds > 0 && elapsed >= promote_seconds) {
      if (const Status st = (*follower)->Promote(); !st.ok()) {
        std::fprintf(stderr, "promotion failed: %s\n",
                     st.ToString().c_str());
        return 1;
      }
      promoted = true;
      std::printf(
          "PROMOTED: now the leader — writes accepted, journaling into "
          "%s\n",
          journal_dir.c_str());
    }
    if (elapsed % 10 == 0) {
      PrintStatsLine((*follower)->service(), &last_ingested,
                     /*interval=*/10);
    }
  }
  server.Stop();
  (*follower)->Stop();
  (*follower)->service().Shutdown();
  return 0;
}

int RunClient(const std::string& host, std::uint16_t port,
              const std::string& label, std::size_t records,
              std::size_t queries, int k) {
  auto client = MonitorClient::Connect(host, port, label, /*resume=*/true);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }
  std::printf("[%s] %s session %llu\n", label.c_str(),
              (*client)->resumed() ? "resumed" : "opened",
              static_cast<unsigned long long>((*client)->session()));
  Rng rng(static_cast<std::uint64_t>((*client)->session()) * 7919);
  if (!(*client)->resumed()) {
    for (std::size_t q = 0; q < queries; ++q) {
      QuerySpec spec;  // the service assigns the id
      spec.k = k;
      spec.function = MakeRandomFunction(
          FunctionFamily::kLinear, 2, [&rng] { return rng.Uniform(); });
      const auto id = (*client)->Register(spec);
      if (!id.ok()) {
        std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
        return 1;
      }
      std::printf("[%s] registered query %u: top-%d under %s\n",
                  label.c_str(), *id, k, spec.function->ToString().c_str());
    }
  }

  // A second connection (same label, resumed) long-polls the deltas the
  // ingest below triggers — the two-connection shape real dashboards use.
  std::atomic<bool> done{false};
  std::thread subscriber([&] {
    auto sub = MonitorClient::Connect(host, port, label, /*resume=*/true);
    if (!sub.ok()) return;
    std::uint64_t printed = 0;
    while (true) {
      auto events = (*sub)->PollDeltas(64, std::chrono::milliseconds(50));
      if (!events.ok()) break;
      for (const DeltaEvent& e : *events) {
        if (++printed <= 8) {
          std::printf("[%s] seq=%llu t=%lld query=%u +%zu -%zu\n",
                      label.c_str(),
                      static_cast<unsigned long long>(e.seq),
                      static_cast<long long>(e.delta.when), e.delta.query,
                      e.delta.added.size(), e.delta.removed.size());
        }
      }
      if (events->empty() && done.load()) break;
    }
    std::printf("[%s] received %llu delta events (last seq %llu)\n",
                label.c_str(), static_cast<unsigned long long>(printed),
                static_cast<unsigned long long>((*sub)->last_seq()));
    (void)(*sub)->Close();
  });

  auto gen = MakeGenerator(Distribution::kClustered, 2,
                           rng.NextUint64());
  const Timestamp base =
      static_cast<Timestamp>((*client)->session()) * 1000000;
  std::size_t sent = 0;
  while (sent < records) {
    std::vector<Record> batch;
    for (std::size_t i = 0; i < 256 && sent < records; ++i, ++sent) {
      batch.emplace_back(0, gen->NextPoint(),
                         base + static_cast<Timestamp>(sent));
    }
    // Hint-paced ingest: a RESOURCE_EXHAUSTED refusal means the server's
    // queue filled mid-batch — the accepted tuples are the batch prefix,
    // so back off (scaled by the queue hint) and resend the suffix.
    std::size_t offset = 0;
    while (offset < batch.size()) {
      std::vector<Record> part(batch.begin() + static_cast<long>(offset),
                               batch.end());
      const auto ack = (*client)->Ingest(std::move(part));
      if (!ack.ok()) {
        std::fprintf(stderr, "%s\n", ack.status().ToString().c_str());
        done.store(true);
        subscriber.join();
        return 1;
      }
      offset += ack->accepted;
      if (ack->rejected == 0) break;
      if (ack->first_error.code() == StatusCode::kResourceExhausted) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(1 + ack->queue_hint / 32));
        continue;
      }
      std::printf("[%s] %u tuples rejected: %s\n", label.c_str(),
                  ack->rejected, ack->first_error.ToString().c_str());
      break;
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  done.store(true);
  subscriber.join();
  return (*client)->Close().ok() ? 0 : 1;
}

int RunCluster(std::size_t partitions, int producers, std::size_t records,
               std::size_t queries, int k, std::size_t window,
               const std::string& journal_dir, SyncPolicy sync) {
  // 1. The cluster: N independent leaders in this process, each with its
  //    own engine, driver and (optionally) journal under DIR/p<i>, each
  //    behind a real TCP socket announcing its partition index.
  LocalClusterOptions copt;
  copt.partitions = partitions;
  copt.engine_factory = EngineFactory(window);
  copt.service.ingest.slack = 4;
  copt.service.drain_wait = std::chrono::milliseconds(2);
  copt.service.journal.dir = journal_dir;
  copt.service.journal.sync = sync;
  auto cluster = LocalCluster::Start(copt);
  if (!cluster.ok()) {
    std::fprintf(stderr, "%s\n", cluster.status().ToString().c_str());
    return 1;
  }
  const PartitionMap& map = (*cluster)->map();
  std::printf("cluster: %zu partitions up —", partitions);
  for (std::size_t i = 0; i < partitions; ++i) {
    std::printf(" %s", map.Describe(i).c_str());
  }
  std::printf("%s\n", journal_dir.empty()
                          ? ""
                          : "  (journaling per partition)");

  // 2. The subscriber router owns the queries and the merged stream.
  //    Register scatters each spec to every partition; the per-partition
  //    delta streams merge into one gap-free sequence below.
  auto sub = ClusterRouter::Connect(map, "dash");
  if (!sub.ok()) {
    std::fprintf(stderr, "%s\n", sub.status().ToString().c_str());
    return 1;
  }
  Rng rng(2024);
  std::vector<QueryId> qids;
  for (std::size_t q = 0; q < queries; ++q) {
    QuerySpec spec;  // the router assigns the global id
    spec.k = k;
    spec.function = MakeRandomFunction(
        FunctionFamily::kLinear, 2, [&rng] { return rng.Uniform(); });
    const auto id = (*sub)->Register(spec);
    if (!id.ok()) {
      std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
      return 1;
    }
    qids.push_back(*id);
    std::printf("[dash] registered global query %u on all %zu "
                "partitions: top-%d under %s\n",
                *id, partitions, k, spec.function->ToString().c_str());
  }

  // 3. The subscriber thread drains the merged stream while producers
  //    run. It owns the router exclusively until joined (routers, like
  //    clients, are single-threaded).
  std::atomic<bool> done{false};
  std::uint64_t printed = 0;
  std::thread subscriber([&] {
    while (true) {
      const auto events =
          (*sub)->PollDeltas(256, std::chrono::milliseconds(20));
      if (!events.ok()) break;
      for (const DeltaEvent& e : *events) {
        if (++printed <= 8) {
          std::printf("[dash] seq=%llu t=%lld query=%u +%zu -%zu "
                      "(as_of %lld)\n",
                      static_cast<unsigned long long>(e.seq),
                      static_cast<long long>(e.delta.when), e.delta.query,
                      e.delta.added.size(), e.delta.removed.size(),
                      static_cast<long long>((*sub)->deltas_as_of()));
        }
      }
      if (events->empty() && done.load()) break;
    }
  });

  // 4. Routed producers: every thread dials its own router and assigns
  //    its own object ids — ownership (splitmix64(id) mod N) is computed
  //    client-side, so each batch splits into per-partition sub-batches
  //    with per-partition backpressure pacing. The clock resumes past
  //    the newest cycle any partition recovered.
  Timestamp recovered_ts = 0;
  for (std::size_t i = 0; i < partitions; ++i) {
    recovered_ts = std::max(
        recovered_ts, (*cluster)->service(i)->recovery().last_cycle_ts);
  }
  std::atomic<Timestamp> clock{recovered_ts + 1};
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected{0};
  std::vector<std::thread> workers;
  const std::size_t per_producer =
      records / static_cast<std::size_t>(producers > 0 ? producers : 1);
  for (int p = 0; p < producers; ++p) {
    workers.emplace_back([&, p] {
      auto feed = ClusterRouter::Connect(
          map, "feed-" + std::to_string(p));
      if (!feed.ok()) {
        std::fprintf(stderr, "%s\n", feed.status().ToString().c_str());
        return;
      }
      auto gen = MakeGenerator(Distribution::kClustered, 2,
                               77 + static_cast<std::uint64_t>(p));
      std::size_t sent = 0;
      while (sent < per_producer) {
        std::vector<Record> batch;
        for (std::size_t i = 0; i < 256 && sent < per_producer;
             ++i, ++sent) {
          batch.emplace_back(next_id.fetch_add(1), gen->NextPoint(),
                             clock.fetch_add(1));
        }
        const auto report = (*feed)->Ingest(batch);
        if (!report.ok()) {
          std::fprintf(stderr, "%s\n",
                       report.status().ToString().c_str());
          return;
        }
        accepted.fetch_add(report->accepted);
        if (report->rejected != 0) {
          rejected.fetch_add(report->rejected);
          std::printf("[feed-%d] %llu tuples rejected: %s\n", p,
                      static_cast<unsigned long long>(report->rejected),
                      report->first_error.ToString().c_str());
        }
      }
      (void)(*feed)->Close();
    });
  }
  for (std::thread& t : workers) t.join();

  // 5. Fence every partition (all accepted records applied, all deltas
  //    published), let the subscriber drain, then flush the merge's
  //    buffered tail — Finalize is safe exactly because the cluster is
  //    quiescent here.
  if (const Status st = (*cluster)->FlushAll(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  done.store(true);
  subscriber.join();
  const std::size_t tail = (*sub)->FinalizeDeltas().size();
  std::printf("[dash] merged %llu delta events gap-free (+%zu finalized "
              "from the frontier buffer), as_of %lld, %llu partition "
              "restarts\n",
              static_cast<unsigned long long>((*sub)->merged_events()),
              tail, static_cast<long long>((*sub)->deltas_as_of()),
              static_cast<unsigned long long>(
                  (*sub)->partition_restarts()));
  std::printf("ingest: %llu accepted / %llu rejected across %zu "
              "partitions\n",
              static_cast<unsigned long long>(accepted.load()),
              static_cast<unsigned long long>(rejected.load()),
              partitions);

  // 6. The global answer: per-partition top-k gathered and k-merged
  //    under namespaced ids; as_of is the min across partitions.
  for (const QueryId q : qids) {
    const auto result = (*sub)->CurrentResult(q);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("query %u global top-%d (as_of %lld, stale_by %lld):",
                q, k, static_cast<long long>((*sub)->snapshot_as_of()),
                static_cast<long long>((*sub)->snapshot_stale_by()));
    for (const ResultEntry& e : *result) {
      std::printf(" %llu=%.4f", static_cast<unsigned long long>(e.id),
                  e.score);
    }
    std::printf("\n");
  }
  for (std::size_t i = 0; i < partitions; ++i) {
    if (MonitorService* svc = (*cluster)->service(i)) {
      std::printf("p%zu: %s\n", i, svc->stats().ToString().c_str());
    }
  }
  (void)(*sub)->Close();
  (*cluster)->Stop();
  return 0;
}

int PrintWorkloads() {
  std::printf("named workloads (--workload=NAME):\n");
  for (const WorkloadInfo& info : ListWorkloads()) {
    std::printf("  %-18s %s\n", info.name.c_str(),
                info.description.c_str());
    const auto workload = MakeWorkload(info.name, WorkloadOptions{});
    if (!workload.ok()) continue;
    for (const WorkloadParam& p : (*workload)->Params()) {
      std::printf("      %s=%g  (%s)\n", p.name.c_str(), p.value,
                  p.description.c_str());
    }
  }
  return 0;
}

int RunWorkloadDriven(const std::string& name, std::uint64_t seed,
                      std::size_t records, std::size_t queries, int k,
                      std::size_t window, const std::string& journal_dir,
                      SyncPolicy sync) {
  auto owned_service = MakeService(window, journal_dir, sync);
  if (owned_service == nullptr) return 1;
  MonitorService& service = *owned_service;
  WorkloadOptions wopt;
  wopt.dim = 2;
  wopt.seed = seed;
  wopt.k = k;
  wopt.num_queries = queries;
  // After a recovery the workload's clock resumes past the last
  // recovered cycle.
  wopt.start = service.recovery().last_cycle_ts + 1;
  auto workload = MakeWorkload(name, wopt);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 1;
  }

  // One session owns every workload-scheduled query. After a journal
  // recovery the session is adopted by label and keeps the previous
  // run's queries alongside the ones this run registers.
  SessionId session;
  if (const auto adopted = service.FindSession(name); adopted.ok()) {
    std::printf("[%s] adopted recovered session %llu\n", name.c_str(),
                static_cast<unsigned long long>(*adopted));
    session = *adopted;
  } else {
    const auto opened = service.OpenSession(name);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return 1;
    }
    session = *opened;
  }

  std::atomic<bool> done{false};
  std::thread subscriber([&service, &done, &name, session] {
    std::uint64_t printed = 0;
    std::vector<DeltaEvent> events;
    while (true) {
      events.clear();
      const std::size_t n = service.WaitDeltas(
          session, 64, std::chrono::milliseconds(20), &events);
      for (const DeltaEvent& e : events) {
        if (++printed <= 8) {
          std::printf("[%s] seq=%llu t=%lld query=%u +%zu -%zu\n",
                      name.c_str(),
                      static_cast<unsigned long long>(e.seq),
                      static_cast<long long>(e.delta.when), e.delta.query,
                      e.delta.added.size(), e.delta.removed.size());
        }
      }
      if (n == 0 && done.load()) break;
    }
    std::printf("[%s] received %llu delta events (%llu dropped)\n",
                name.c_str(), static_cast<unsigned long long>(printed),
                static_cast<unsigned long long>(
                    service.DroppedDeltas(session)));
  });

  // The service assigns its own query ids, so workload-scheduled
  // unregisters are translated through this map.
  std::map<QueryId, QueryId> id_map;
  std::size_t sent = 0;
  std::size_t registered = 0;
  std::size_t unregistered = 0;
  while (sent < records) {
    const WorkloadStep step = (*workload)->NextStep();
    for (const QueryEvent& ev : step.query_events) {
      if (ev.kind == QueryEvent::kRegister) {
        QuerySpec spec = ev.spec;
        spec.id = 0;  // the service assigns the id
        const auto id = service.Register(session, spec);
        if (!id.ok()) {
          std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
          done.store(true);
          subscriber.join();
          return 1;
        }
        id_map[ev.id] = *id;
        ++registered;
        if (registered <= 8) {
          std::printf("[%s] cycle %llu: registered query %u: top-%d "
                      "under %s\n",
                      name.c_str(),
                      static_cast<unsigned long long>(step.cycle), *id,
                      spec.k, spec.function->ToString().c_str());
        }
      } else {
        const auto it = id_map.find(ev.id);
        if (it == id_map.end()) continue;  // registered before recovery
        if (const Status st = service.Unregister(session, it->second);
            !st.ok()) {
          std::fprintf(stderr, "%s\n", st.ToString().c_str());
        }
        id_map.erase(it);
        ++unregistered;
      }
    }
    for (const Record& r : step.arrivals) {
      if (const Status st = service.Ingest(r.position, r.arrival);
          !st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        done.store(true);
        subscriber.join();
        return 1;
      }
      ++sent;
    }
  }

  if (const Status st = service.Flush(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  service.Shutdown();
  done.store(true);
  subscriber.join();

  std::printf("\nworkload '%s' (seed %llu): %zu records, %zu queries "
              "registered, %zu unregistered, %zu live\n",
              name.c_str(), static_cast<unsigned long long>(seed), sent,
              registered, unregistered, id_map.size());
  std::size_t shown = 0;
  for (const auto& [workload_id, service_id] : id_map) {
    if (++shown > 4) break;
    const auto result = service.CurrentResult(service_id);
    if (!result.ok()) continue;
    std::printf("query %u top-%d:", service_id, k);
    for (const ResultEntry& e : *result) {
      std::printf(" %llu=%.4f", static_cast<unsigned long long>(e.id),
                  e.score);
    }
    std::printf("\n");
  }
  std::printf("service: %s\n", service.stats().ToString().c_str());
  std::printf("engine:  %s over %s\n", service.engine_name().c_str(),
              service.EngineCounters().ToString().c_str());
  return 0;
}

int RunLocal(int producers, std::size_t records,
             std::size_t queries_per_session, int k, std::size_t window,
             const std::string& journal_dir, SyncPolicy sync) {
  // 1. Engine + service. The service owns the cycle-driver thread; we
  //    never call the engine directly again.
  auto owned_service = MakeService(window, journal_dir, sync);
  if (owned_service == nullptr) return 1;
  MonitorService& service = *owned_service;

  // 2. Two client sessions, each holding continuous queries. After a
  //    recovery the sessions already exist (adopted by label) and keep
  //    the previous run's queries.
  const char* names[2] = {"alice", "bob"};
  std::vector<SessionId> sessions;
  Rng rng(2024);
  for (const char* name : names) {
    if (const auto adopted = service.FindSession(name); adopted.ok()) {
      std::printf("[%s] adopted recovered session %llu\n", name,
                  static_cast<unsigned long long>(*adopted));
      sessions.push_back(*adopted);
      continue;
    }
    const auto session = service.OpenSession(name);
    if (!session.ok()) {
      std::fprintf(stderr, "%s\n", session.status().ToString().c_str());
      return 1;
    }
    sessions.push_back(*session);
    for (std::size_t q = 0; q < queries_per_session; ++q) {
      QuerySpec spec;  // the service assigns the id
      spec.k = k;
      spec.function = MakeRandomFunction(
          FunctionFamily::kLinear, 2, [&rng] { return rng.Uniform(); });
      const auto id = service.Register(*session, spec);
      if (!id.ok()) {
        std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
        return 1;
      }
      std::printf("[%s] registered query %u: top-%d under %s\n", name, *id,
                  k, spec.function->ToString().c_str());
    }
  }

  // 3. Subscriber threads long-poll their session's delta stream.
  std::atomic<bool> done{false};
  std::vector<std::thread> subscribers;
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    subscribers.emplace_back([&service, &done, &names, &sessions, s] {
      std::uint64_t printed = 0;
      std::vector<DeltaEvent> events;
      while (true) {
        events.clear();
        const std::size_t n = service.WaitDeltas(
            sessions[s], 64, std::chrono::milliseconds(20), &events);
        for (const DeltaEvent& e : events) {
          // Print only a prefix per session to keep the demo readable.
          if (++printed <= 8) {
            std::printf("[%s] seq=%llu t=%lld query=%u +%zu -%zu\n",
                        names[s],
                        static_cast<unsigned long long>(e.seq),
                        static_cast<long long>(e.delta.when),
                        e.delta.query, e.delta.added.size(),
                        e.delta.removed.size());
          }
        }
        if (n == 0 && done.load()) break;
      }
      std::printf("[%s] received %llu delta events (%llu dropped)\n",
                  names[s], static_cast<unsigned long long>(printed),
                  static_cast<unsigned long long>(
                      service.DroppedDeltas(sessions[s])));
    });
  }

  // 4. Producer threads ingest concurrently; a shared atomic clock keeps
  //    timestamps globally unique (the ingest queue re-sorts stragglers).
  //    After a recovery it resumes past the last recovered cycle, so no
  //    record lands behind the window and gets coerced forward.
  std::atomic<Timestamp> clock{service.recovery().last_cycle_ts + 1};
  std::vector<std::thread> workers;
  for (int p = 0; p < producers; ++p) {
    workers.emplace_back([&service, &clock, records, p] {
      auto gen = MakeGenerator(Distribution::kClustered, 2,
                               77 + static_cast<std::uint64_t>(p));
      for (std::size_t i = 0; i < records; ++i) {
        const Timestamp ts = clock.fetch_add(1);
        if (!service.Ingest(gen->NextPoint(), ts).ok()) return;
      }
    });
  }
  for (std::thread& t : workers) t.join();

  // 5. Drain and stop: Flush guarantees every pushed record was applied,
  //    Shutdown joins the driver; buffered deltas stay pollable.
  if (const Status st = service.Flush(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  service.Shutdown();
  done.store(true);
  for (std::thread& t : subscribers) t.join();

  std::printf("\nservice: %s\n", service.stats().ToString().c_str());
  std::printf("engine:  %s over %s\n", service.engine_name().c_str(),
              service.EngineCounters().ToString().c_str());
  std::printf("memory:  %s\n", service.Memory().ToString().c_str());
  return 0;
}

/// --dump_metrics: boots the fullest node shape this binary can build —
/// a journaled leader behind a TcpServer, a replica follower shipping
/// from it, and a failover agent riding the follower — snapshots both
/// services' registries and prints the union of registered metric
/// names, one per line, sorted. tools/check_metrics.py diffs this list
/// against the docs/ADMIN.md catalog, so a metric added in code
/// without a catalog row (or vice versa) fails CI.
int DumpMetrics() {
  char leader_tmpl[] = "/tmp/topkmon_dump_leader_XXXXXX";
  char replica_tmpl[] = "/tmp/topkmon_dump_replica_XXXXXX";
  if (::mkdtemp(leader_tmpl) == nullptr ||
      ::mkdtemp(replica_tmpl) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  const std::string leader_dir = leader_tmpl;
  const std::string replica_dir = replica_tmpl;
  int rc = 1;
  {
    ServiceOptions lopt;
    lopt.journal.dir = leader_dir;
    auto leader = MonitorService::Open(EngineFactory(500), lopt);
    if (!leader.ok()) {
      std::fprintf(stderr, "%s\n", leader.status().ToString().c_str());
      return 1;
    }
    NetServerOptions net;
    net.port = 0;
    TcpServer server(**leader, net);
    if (const Status st = server.Start(); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    ServiceOptions fopt_service;
    fopt_service.journal.dir = replica_dir;
    ReplicaFollowerOptions fopt;
    fopt.leader_host = "127.0.0.1";
    fopt.leader_port = server.port();
    auto follower =
        ReplicaFollower::Open(EngineFactory(500), fopt_service, fopt);
    if (!follower.ok()) {
      std::fprintf(stderr, "%s\n", follower.status().ToString().c_str());
      server.Stop();
      (*leader)->Shutdown();
      return 1;
    }
    {
      // The agent only needs to *register* its metrics; a day-long
      // election timeout keeps it from ever probing.
      FailoverOptions agent_options;
      agent_options.self_endpoint = "127.0.0.1:1";
      agent_options.election_timeout = std::chrono::hours(24);
      FailoverAgent agent(follower->get(), agent_options);

      std::set<std::string> names;
      for (const MetricsSnapshot& snap :
           {(*leader)->metrics().Snapshot(),
            (*follower)->service().metrics().Snapshot()}) {
        for (const MetricSample& s : snap.samples) names.insert(s.name);
      }
      for (const std::string& name : names) {
        std::printf("%s\n", name.c_str());
      }
      agent.Stop();
    }
    (*follower)->Stop();
    (*follower)->service().Shutdown();
    server.Stop();
    (*leader)->Shutdown();
    rc = 0;
  }
  for (const std::string& dir : {leader_dir, replica_dir}) {
    const std::string cmd = "rm -rf '" + dir + "'";
    if (std::system(cmd.c_str()) != 0) {
      std::fprintf(stderr, "warning: failed to clean %s\n", dir.c_str());
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 1;
  }
  const auto mode_flag = flags->GetString("mode", "local");
  const auto host_flag = flags->GetString("host", "127.0.0.1");
  const auto label_flag = flags->GetString("label", "demo-client");
  const auto port_flag = flags->GetInt("port", 4585);
  const auto producers_flag = flags->GetInt("producers", 3);
  const auto records_flag = flags->GetInt("records", 5000);
  const auto queries_flag = flags->GetInt("queries", 2);
  const auto k_flag = flags->GetInt("k", 3);
  const auto window_flag = flags->GetInt("window", 2000);
  const auto serve_seconds_flag = flags->GetInt("serve_seconds", 0);
  const auto listen_flag = flags->GetInt("listen", 4586);
  const auto promote_seconds_flag = flags->GetInt("promote_seconds", 0);
  const auto server_threads_flag = flags->GetInt("server_threads", 0);
  const auto partitions_flag = flags->GetInt("partitions", 3);
  // -1 = untagged (standalone); 0..N-1 = this server's partition index.
  const auto server_tag_flag = flags->GetInt("server_tag", -1);
  // -1 = admin plane off; 0 = ephemeral port; >0 = fixed port.
  const auto admin_port_flag = flags->GetInt("admin_port", -1);
  for (const auto* f : {&producers_flag, &records_flag, &queries_flag,
                        &k_flag, &window_flag, &port_flag,
                        &serve_seconds_flag, &listen_flag,
                        &promote_seconds_flag, &server_threads_flag,
                        &partitions_flag, &server_tag_flag,
                        &admin_port_flag}) {
    if (!f->ok()) {
      std::fprintf(stderr, "%s\n", f->status().ToString().c_str());
      return 1;
    }
  }
  // One range check for every port flag; --admin_port also takes -1.
  const struct {
    const char* name;
    std::int64_t value;
    std::int64_t min;
  } port_flags[] = {{"port", *port_flag, 0},
                    {"listen", *listen_flag, 0},
                    {"admin_port", *admin_port_flag, -1}};
  for (const auto& f : port_flags) {
    if (f.value < f.min || f.value > 65535) {
      std::fprintf(stderr,
                   "INVALID_ARGUMENT: flag --%s expects a port in "
                   "[%lld, 65535], got %lld\n",
                   f.name, static_cast<long long>(f.min),
                   static_cast<long long>(f.value));
      return 1;
    }
  }
  const auto journal_flag = flags->GetString("journal", "");
  const auto sync_flag = flags->GetString("sync", "none");
  const auto workload_flag = flags->GetString("workload", "");
  const auto workload_seed_flag = flags->GetInt("workload_seed", 42);
  if (!mode_flag.ok() || !host_flag.ok() || !label_flag.ok() ||
      !journal_flag.ok() || !sync_flag.ok() || !workload_flag.ok() ||
      !workload_seed_flag.ok()) {
    std::fprintf(stderr, "bad string flag\n");
    return 1;
  }
  if (*workload_flag == "list" || *workload_flag == "help") {
    return PrintWorkloads();
  }
  const auto dump_metrics_flag = flags->GetBool("dump_metrics", false);
  if (!dump_metrics_flag.ok()) {
    std::fprintf(stderr, "%s\n",
                 dump_metrics_flag.status().ToString().c_str());
    return 1;
  }
  if (*dump_metrics_flag) return DumpMetrics();
  const auto sync_policy = ParseSyncPolicy(*sync_flag);
  if (!sync_policy.ok()) {
    std::fprintf(stderr, "%s\n", sync_policy.status().ToString().c_str());
    return 1;
  }
  const std::size_t window = static_cast<std::size_t>(*window_flag);
  const std::uint16_t port = static_cast<std::uint16_t>(*port_flag);

  if (*mode_flag == "serve") {
    return RunServe(window, *journal_flag, *sync_policy, port,
                    static_cast<long>(*serve_seconds_flag),
                    static_cast<std::size_t>(*server_threads_flag),
                    *server_tag_flag < 0
                        ? kNoServerTag
                        : static_cast<std::uint32_t>(*server_tag_flag),
                    static_cast<long>(*admin_port_flag));
  }
  if (*mode_flag == "cluster") {
    if (*partitions_flag < 1) {
      std::fprintf(stderr, "--partitions must be >= 1\n");
      return 1;
    }
    return RunCluster(static_cast<std::size_t>(*partitions_flag),
                      static_cast<int>(*producers_flag),
                      static_cast<std::size_t>(*records_flag),
                      static_cast<std::size_t>(*queries_flag),
                      static_cast<int>(*k_flag), window, *journal_flag,
                      *sync_policy);
  }
  if (*mode_flag == "client") {
    return RunClient(*host_flag, port, *label_flag,
                     static_cast<std::size_t>(*records_flag),
                     static_cast<std::size_t>(*queries_flag),
                     static_cast<int>(*k_flag));
  }
  if (*mode_flag == "follower") {
    return RunFollower(window, *journal_flag, *host_flag, port,
                       static_cast<std::uint16_t>(*listen_flag),
                       static_cast<long>(*serve_seconds_flag),
                       static_cast<long>(*promote_seconds_flag),
                       static_cast<std::size_t>(*server_threads_flag),
                       static_cast<long>(*admin_port_flag));
  }
  if (*mode_flag == "local" && !workload_flag->empty()) {
    return RunWorkloadDriven(
        *workload_flag,
        static_cast<std::uint64_t>(*workload_seed_flag),
        static_cast<std::size_t>(*records_flag),
        static_cast<std::size_t>(*queries_flag),
        static_cast<int>(*k_flag), window, *journal_flag, *sync_policy);
  }
  if (*mode_flag == "local") {
    return RunLocal(static_cast<int>(*producers_flag),
                    static_cast<std::size_t>(*records_flag),
                    static_cast<std::size_t>(*queries_flag),
                    static_cast<int>(*k_flag), window, *journal_flag,
                    *sync_policy);
  }
  std::fprintf(
      stderr,
      "unknown --mode '%s' (local|serve|client|follower|cluster)\n",
      mode_flag->c_str());
  return 1;
}
