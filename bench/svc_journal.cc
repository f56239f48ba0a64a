// Journal-overhead and recovery-time benchmark.
//
// Two questions a durable deployment asks of the cycle journal:
//   1. What does write-ahead journaling cost on the ingest path? Measured
//      two ways:
//      (a) pipeline throughput — the driver loop distilled: identical
//          fixed-size batches pushed through AppendCycle + ProcessCycle
//          for every configuration, so the journal cost is isolated from
//          batch-formation dynamics. The acceptance bar for this repo:
//          < 15% regression at the default policy (sync=none). Snapshot
//          rotations anchor on the engine as the service does (the
//          window is encoded straight from the grid), and the table
//          reports their mean wall time.
//      (b) service end-to-end — one producer through a journaled
//          MonitorService vs the unjournaled baseline (best of 3 runs;
//          the ingest queue's slack-gate batching makes single runs
//          noisy).
//   2. How long does recovery take, and how well do snapshots bound it?
//      The journals written in part 1a are replayed into fresh engines —
//      with frequent snapshot rotation (bounded tail replay) and
//      anchored only by the initial empty snapshot (full replay).

#include <stdlib.h>

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/common/harness.h"
#include "core/tma_engine.h"
#include "journal/recovery.h"
#include "service/monitor_service.h"
#include "stream/generators.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table_printer.h"

namespace topkmon {
namespace bench {
namespace {

constexpr std::size_t kBatchSize = 512;

struct BenchConfig {
  std::size_t records = 0;
  std::size_t window = 0;
  std::size_t queries = 4;
  int k = 10;
};

/// mkdtemp wrapper; aborts on failure (benches have no recovery path).
std::string MakeTempDir() {
  char tmpl[] = "/tmp/topkmon_bench_journal_XXXXXX";
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

std::unique_ptr<MonitorEngine> MakeTma(const BenchConfig& config) {
  GridEngineOptions opt;
  opt.dim = 2;
  opt.window = WindowSpec::Count(config.window);
  return std::make_unique<TmaEngine>(opt);
}

std::vector<QuerySpec> BenchQueries(const BenchConfig& config) {
  std::vector<QuerySpec> out;
  Rng rng(99);
  for (std::size_t q = 0; q < config.queries; ++q) {
    QuerySpec spec;
    spec.id = static_cast<QueryId>(q + 1);
    spec.k = config.k;
    spec.function = MakeRandomFunction(FunctionFamily::kLinear, 2,
                                       [&rng] { return rng.Uniform(); });
    out.push_back(std::move(spec));
  }
  return out;
}

// ---- part 1a: deterministic pipeline throughput ------------------------

struct PipelineRun {
  double throughput = 0.0;  ///< records / second through the driver loop
  std::uint64_t journal_bytes = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t rotations = 0;  ///< snapshot rotations after the first
  double rotate_seconds = 0.0;  ///< wall time spent in those rotations
  std::string dir;  ///< journal dir (empty for the baseline)

  /// Mean wall time of one rotation, or 0 without rotations.
  double RotateMs() const {
    return rotations == 0 ? 0.0 : 1e3 * rotate_seconds / rotations;
  }
};

/// Drives identical batches through AppendCycle + ProcessCycle. With
/// `journal` null this is the unjournaled baseline.
PipelineRun RunPipeline(const BenchConfig& config,
                        const JournalOptions* journal) {
  PipelineRun run;
  auto engine = MakeTma(config);
  const std::vector<QuerySpec> queries = BenchQueries(config);
  std::vector<JournaledQuery> live;
  std::unique_ptr<CycleJournalWriter> writer;
  if (journal != nullptr) {
    run.dir = journal->dir;
    auto opened =
        CycleJournalWriter::Open(*journal, SnapshotAnchor{*engine, 0, 1, live});
    if (!opened.ok()) {
      std::fprintf(stderr, "journal open failed: %s\n",
                   opened.status().ToString().c_str());
      std::abort();
    }
    writer = std::move(*opened);
  }
  for (const QuerySpec& spec : queries) {
    live.push_back({spec, "bench"});
    if (writer != nullptr && !writer->AppendRegister(live.back()).ok()) {
      std::abort();
    }
    if (!engine->RegisterQuery(spec).ok()) std::abort();
  }
  RecordSource source(MakeGenerator(Distribution::kIndependent, 2, 1234));
  const std::size_t cycles = config.records / kBatchSize;
  Stopwatch watch;
  for (std::size_t c = 1; c <= cycles; ++c) {
    const Timestamp ts = static_cast<Timestamp>(c);
    const std::vector<Record> batch = source.NextBatch(kBatchSize, ts);
    if (writer != nullptr && !writer->AppendCycle(ts, batch).ok()) {
      std::abort();
    }
    if (!engine->ProcessCycle(ts, batch).ok()) std::abort();
    if (writer != nullptr && writer->SnapshotDue()) {
      Stopwatch rotate;
      const SnapshotAnchor anchor{*engine, batch.back().id + 1,
                                  config.queries + 1, live};
      if (!writer->RotateWithSnapshot(anchor).ok()) std::abort();
      run.rotate_seconds += rotate.ElapsedSeconds();
      ++run.rotations;
    }
  }
  const double wall = watch.ElapsedSeconds();
  if (writer != nullptr) {
    if (!writer->Close().ok()) std::abort();
    run.journal_bytes = writer->stats().bytes_written;
    run.snapshots = writer->stats().snapshots_written;
  }
  run.throughput =
      static_cast<double>(cycles * kBatchSize) / std::max(wall, 1e-9);
  return run;
}

// ---- part 1b: service end-to-end ---------------------------------------

/// One producer streaming through the full service; returns end-to-end
/// throughput (push to fully applied). Best of `repeats` runs.
double RunService(const BenchConfig& config, bool journaled, int repeats) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    ServiceOptions options;
    options.ingest.slack = 8;
    options.ingest.max_batch = 4096;
    options.hub.buffer_capacity = 64;  // subscribers absent; cap buffers
    options.session.max_queries_per_session =
        static_cast<int>(config.queries);
    options.drain_wait = std::chrono::milliseconds(2);
    std::string dir;
    if (journaled) {
      dir = MakeTempDir();
      options.journal.dir = dir;
      options.journal.snapshot_on_shutdown = false;
    }
    {
      MonitorService service(MakeTma(config), options);
      const SessionId session = *service.OpenSession("bench");
      for (const QuerySpec& spec : BenchQueries(config)) {
        QuerySpec s = spec;  // the service assigns ids
        if (!service.Register(session, s).ok()) std::abort();
      }
      auto gen = MakeGenerator(Distribution::kIndependent, 2, 1234);
      Stopwatch watch;
      for (std::size_t i = 0; i < config.records; ++i) {
        if (!service.Ingest(gen->NextPoint(),
                            static_cast<Timestamp>(i + 1)).ok()) {
          std::abort();
        }
      }
      if (!service.Flush().ok()) std::abort();
      const double wall = watch.ElapsedSeconds();
      service.Shutdown();
      if (!service.journal_status().ok()) std::abort();
      best = std::max(best, static_cast<double>(config.records) / wall);
    }
    if (!dir.empty()) RemoveDirRecursive(dir);
  }
  return best;
}

// ---- part 2: recovery --------------------------------------------------

struct RecoveryRun {
  double seconds = 0.0;
  std::uint64_t cycles_replayed = 0;
  std::size_t window = 0;
};

RecoveryRun RunRecovery(const BenchConfig& config, const std::string& dir) {
  auto engine = MakeTma(config);
  Stopwatch watch;
  auto report = RecoveryDriver::Replay(dir, *engine);
  const double wall = watch.ElapsedSeconds();
  if (!report.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 report.status().ToString().c_str());
    std::abort();
  }
  return RecoveryRun{wall, report->cycles_replayed, report->window_size};
}

int Main() {
  const Scale scale = GetScale();
  BenchConfig config;
  config.records = 400000;
  config.window = 10000;
  int repeats = 3;
  if (scale == Scale::kSmoke) {
    config.records = 20000;
    config.window = 1000;
    repeats = 2;
  } else if (scale == Scale::kPaper) {
    config.records = 2000000;
    config.window = 50000;
  }

  std::printf(
      "Durable cycle journal: write-ahead overhead and recovery time\n"
      "records=%zu  batch=%zu  window=N=%zu  queries=%zu  k=%d  "
      "engine=TMA  scale=%s\n\n",
      config.records, kBatchSize, config.window, config.queries, config.k,
      ScaleName(scale));

  BenchResultWriter json("svc_journal");
  json.Config("records", static_cast<double>(config.records));
  json.Config("batch", static_cast<double>(kBatchSize));
  json.Config("window", static_cast<double>(config.window));
  json.Config("queries", static_cast<double>(config.queries));
  json.Config("k", static_cast<double>(config.k));
  json.Config("engine", "TMA");

  struct Variant {
    const char* label;
    SyncPolicy sync;
    std::uint64_t snapshot_every_cycles;
    std::uint64_t sync_interval_cycles;
    std::chrono::milliseconds sync_interval_ms;
  };
  const Variant variants[] = {
      {"journal sync=none (default)", SyncPolicy::kNone, 0, 0,
       std::chrono::milliseconds(0)},
      {"journal sync=none +snapshots", SyncPolicy::kNone, 100, 0,
       std::chrono::milliseconds(0)},
      {"journal sync=interval", SyncPolicy::kInterval, 0, 0,
       std::chrono::milliseconds(0)},
      // Group commit: one fdatasync covers 8 cycles (or 5 ms, whichever
      // first) — the durability/throughput middle ground between
      // interval-by-records and always.
      {"journal group-commit 8cyc/5ms", SyncPolicy::kInterval, 0, 8,
       std::chrono::milliseconds(5)},
      {"journal sync=always", SyncPolicy::kAlways, 0, 0,
       std::chrono::milliseconds(0)},
  };

  std::printf(
      "Pipeline (identical %zu-record batches per cycle, best of %d "
      "runs):\n",
      kBatchSize, repeats);
  PipelineRun baseline;
  for (int r = 0; r < repeats; ++r) {
    const PipelineRun run = RunPipeline(config, nullptr);
    if (run.throughput > baseline.throughput) baseline = run;
  }
  TablePrinter pipeline_table({"configuration", "ingest [rec/s]",
                               "overhead [%]", "journal [MiB]",
                               "snapshots", "rotate [ms]"});
  pipeline_table.AddRow({"no journal (baseline)",
                         TablePrinter::Num(baseline.throughput, 5), "-",
                         "-", "-", "-"});
  json.AddRow("pipeline/no-journal").metrics["ingest_rec_per_s"] =
      baseline.throughput;
  std::vector<std::pair<std::string, std::string>> journals;  // label, dir
  for (const Variant& v : variants) {
    PipelineRun best;
    for (int r = 0; r < repeats; ++r) {
      JournalOptions jopt;
      jopt.dir = MakeTempDir();
      jopt.sync = v.sync;
      jopt.snapshot_every_cycles = v.snapshot_every_cycles;
      jopt.sync_interval_cycles = v.sync_interval_cycles;
      jopt.sync_interval_ms = v.sync_interval_ms;
      jopt.segment_bytes = 1u << 30;  // rotate on the cycle interval only
      const PipelineRun run = RunPipeline(config, &jopt);
      if (run.throughput > best.throughput) {
        if (!best.dir.empty()) RemoveDirRecursive(best.dir);
        best = run;
      } else {
        RemoveDirRecursive(run.dir);
      }
    }
    const double overhead =
        100.0 * (baseline.throughput - best.throughput) /
        baseline.throughput;
    pipeline_table.AddRow(
        {v.label, TablePrinter::Num(best.throughput, 5),
         TablePrinter::Num(overhead, 3),
         TablePrinter::Num(
             static_cast<double>(best.journal_bytes) / (1024.0 * 1024.0), 4),
         TablePrinter::Int(static_cast<std::int64_t>(best.snapshots)),
         best.rotations == 0 ? "-" : TablePrinter::Num(best.RotateMs(), 3)});
    BenchResultWriter::Row& row =
        json.AddRow(std::string("pipeline/") + v.label);
    row.metrics["ingest_rec_per_s"] = best.throughput;
    row.metrics["overhead_pct"] = overhead;
    row.metrics["journal_mib"] =
        static_cast<double>(best.journal_bytes) / (1024.0 * 1024.0);
    row.metrics["snapshots"] = static_cast<double>(best.snapshots);
    if (best.rotations > 0) row.metrics["rotate_ms"] = best.RotateMs();
    journals.emplace_back(v.label, best.dir);
  }
  pipeline_table.Print(std::cout);

  std::printf(
      "\nService end-to-end (1 producer, best of %d runs; slack-gate "
      "batching makes single runs noisy):\n",
      repeats);
  const double svc_base = RunService(config, /*journaled=*/false, repeats);
  const double svc_journaled =
      RunService(config, /*journaled=*/true, repeats);
  TablePrinter service_table(
      {"configuration", "ingest [rec/s]", "overhead [%]"});
  service_table.AddRow(
      {"no journal", TablePrinter::Num(svc_base, 5), "-"});
  service_table.AddRow(
      {"journal sync=none", TablePrinter::Num(svc_journaled, 5),
       TablePrinter::Num(100.0 * (svc_base - svc_journaled) / svc_base,
                         3)});
  service_table.Print(std::cout);
  json.AddRow("service/no-journal").metrics["ingest_rec_per_s"] = svc_base;
  {
    BenchResultWriter::Row& row = json.AddRow("service/journal-sync-none");
    row.metrics["ingest_rec_per_s"] = svc_journaled;
    row.metrics["overhead_pct"] =
        100.0 * (svc_base - svc_journaled) / svc_base;
  }

  std::printf("\nRecovery (replay each journal into a fresh TMA engine):\n");
  TablePrinter recovery_table(
      {"journal", "recover [ms]", "cycles replayed", "window"});
  for (const auto& [label, dir] : journals) {
    const RecoveryRun run = RunRecovery(config, dir);
    recovery_table.AddRow(
        {label, TablePrinter::Num(run.seconds * 1e3, 4),
         TablePrinter::Int(static_cast<std::int64_t>(run.cycles_replayed)),
         TablePrinter::Int(static_cast<std::int64_t>(run.window))});
    BenchResultWriter::Row& row = json.AddRow("recovery/" + label);
    row.metrics["recover_ms"] = run.seconds * 1e3;
    row.metrics["cycles_replayed"] =
        static_cast<double>(run.cycles_replayed);
    row.metrics["window"] = static_cast<double>(run.window);
    RemoveDirRecursive(dir);
  }
  recovery_table.Print(std::cout);
  json.Write();

  PrintExpectation(
      "service-level ingest throughput regresses well under 15% at the "
      "default sync=none policy (~25 ns/record of delta-encoded append + "
      "hardware CRC against ~350 ns/record of queue + cycle work); the "
      "journal-less pipeline lens is stricter because the bare engine "
      "runs at ~130 ns/record; sync=interval/always add real fdatasync "
      "stalls and show it, with group-commit (several cycles per sync, "
      "time-bounded) recovering most of the sync=always gap at a bounded "
      "loss window; snapshot rotation bounds recovery to the tail "
      "after the last anchor, so the '+snapshots' journal recovers in a "
      "fraction of the full-replay time at the cost of periodic snapshot "
      "writes");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace topkmon

int main() { return topkmon::bench::Main(); }
