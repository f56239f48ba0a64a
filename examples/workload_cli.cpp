// workload_cli — run any engine on any workload from the command line.
//
//   workload_cli --engine=sma --dist=ant --dim=4 --n=100000 --r=1000
//                --q=100 --k=20 --cycles=50 --family=linear [--csv]
//
// (one command line, wrapped here).
//
// Prints the simulation report (timings, counters, memory breakdown) and,
// with --compare, runs TMA, SMA, TSL and the brute-force oracle on the
// identical stream and prints a comparison table. With --csv the report
// is emitted as a single CSV row for scripting.

#include <cstdio>
#include <iostream>

#include "core/brute_force_engine.h"
#include "core/simulation.h"
#include "core/sma_engine.h"
#include "core/tma_engine.h"
#include "tsl/tsl_engine.h"
#include "util/flags.h"
#include "util/table_printer.h"

using namespace topkmon;

namespace {

constexpr const char* kUsage = R"(usage: workload_cli [flags]
  --engine=tma|sma|tsl|brute   engine to run (default sma)
  --compare                    run all four engines and compare
  --dist=ind|ant|clu           data distribution (default ind)
  --family=linear|product|squares   scoring functions (default linear)
  --window=count|time          window kind (default count)
  --dim=D                      dimensionality 1..8 (default 4)
  --n=N                        window size in tuples (default 100000)
  --r=R                        arrivals per timestamp (default 1000)
  --q=Q                        number of continuous queries (default 100)
  --k=K                        result size (default 20)
  --cycles=C                   measured timestamps (default 50)
  --seed=S                     RNG seed (default 42)
  --csv                        emit one CSV row instead of a report
)";

std::unique_ptr<MonitorEngine> MakeEngineByName(const std::string& name,
                                                const WorkloadSpec& spec) {
  if (name == "tma") {
    GridEngineOptions opt;
    opt.dim = spec.dim;
    opt.window = spec.MakeWindowSpec();
    return std::make_unique<TmaEngine>(opt);
  }
  if (name == "sma") {
    GridEngineOptions opt;
    opt.dim = spec.dim;
    opt.window = spec.MakeWindowSpec();
    return std::make_unique<SmaEngine>(opt);
  }
  if (name == "tsl") {
    TslOptions opt;
    opt.dim = spec.dim;
    opt.window = spec.MakeWindowSpec();
    return std::make_unique<TslEngine>(opt);
  }
  if (name == "brute") {
    return std::make_unique<BruteForceEngine>(spec.dim,
                                              spec.MakeWindowSpec());
  }
  return nullptr;
}

void PrintReport(const SimulationReport& report, const WorkloadSpec& spec,
                 bool csv) {
  if (csv) {
    std::printf(
        "engine,dim,dist,N,r,Q,k,cycles,warmup_s,register_s,monitor_s,"
        "recomputes,result_changes,memory_mib\n");
    std::printf("%s,%d,%s,%zu,%zu,%zu,%d,%d,%.6f,%.6f,%.6f,%llu,%llu,%.3f\n",
                report.engine.c_str(), spec.dim,
                DistributionName(spec.distribution), spec.window_size,
                spec.arrivals_per_cycle, spec.num_queries, spec.k,
                spec.num_cycles, report.warmup_seconds,
                report.register_seconds, report.monitor_seconds,
                static_cast<unsigned long long>(report.stats.recomputations),
                static_cast<unsigned long long>(
                    report.stats.result_changes),
                report.memory.TotalMiB());
    return;
  }
  std::printf("engine:    %s\n", report.engine.c_str());
  std::printf("warmup:    %.4f s (window fill, unmeasured in the paper)\n",
              report.warmup_seconds);
  std::printf("register:  %.4f s (%zu initial top-k computations)\n",
              report.register_seconds, spec.num_queries);
  std::printf("monitor:   %.4f s over %d cycles (%.1f us/cycle/query)\n",
              report.monitor_seconds, spec.num_cycles,
              1e6 * report.monitor_seconds /
                  static_cast<double>(spec.num_cycles) /
                  static_cast<double>(spec.num_queries));
  std::printf("cycle lat: mean=%.3f ms  max=%.3f ms (worst client stall)\n",
              1e3 * report.cycle_seconds.mean(),
              1e3 * report.cycle_seconds.max());
  std::printf("counters:  %s\n", report.stats.ToString().c_str());
  std::printf("memory:    %s\n", report.memory.ToString().c_str());
}

int Run(const Flags& flags) {
  WorkloadSpec spec;
  const auto engine_name = flags.GetString("engine", "sma");
  const auto dist = flags.GetString("dist", "ind");
  const auto family = flags.GetString("family", "linear");
  const auto window = flags.GetString("window", "count");
  const auto dim = flags.GetInt("dim", 4);
  const auto n = flags.GetInt("n", 100000);
  const auto r = flags.GetInt("r", 1000);
  const auto q = flags.GetInt("q", 100);
  const auto k = flags.GetInt("k", 20);
  const auto cycles = flags.GetInt("cycles", 50);
  const auto seed = flags.GetInt("seed", 42);
  const auto csv = flags.GetBool("csv", false);
  const auto compare = flags.GetBool("compare", false);
  for (const Status& st :
       {engine_name.ok() ? Status::Ok() : engine_name.status(),
        dist.ok() ? Status::Ok() : dist.status(),
        family.ok() ? Status::Ok() : family.status(),
        window.ok() ? Status::Ok() : window.status()}) {
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n%s", st.ToString().c_str(), kUsage);
      return 2;
    }
  }
  const Result<Distribution> parsed_dist = ParseDistribution(*dist);
  const Result<FunctionFamily> parsed_family = ParseFunctionFamily(*family);
  if (!parsed_dist.ok() || !parsed_family.ok() ||
      (*window != "count" && *window != "time")) {
    std::fprintf(stderr, "bad --dist/--family/--window value\n%s", kUsage);
    return 2;
  }
  spec.dim = static_cast<int>(*dim);
  spec.distribution = *parsed_dist;
  spec.family = *parsed_family;
  spec.window_kind =
      *window == "count" ? WindowKind::kCountBased : WindowKind::kTimeBased;
  spec.window_size = static_cast<std::size_t>(*n);
  spec.arrivals_per_cycle = static_cast<std::size_t>(*r);
  spec.num_queries = static_cast<std::size_t>(*q);
  spec.k = static_cast<int>(*k);
  spec.num_cycles = static_cast<int>(*cycles);
  spec.seed = static_cast<std::uint64_t>(*seed);

  for (const std::string& name : flags.UnreadFlags()) {
    std::fprintf(stderr, "warning: unknown flag --%s ignored\n",
                 name.c_str());
  }

  if (*compare) {
    TablePrinter table({"engine", "monitor [s]", "recomputes",
                        "result changes", "memory [MiB]"});
    for (const char* name : {"brute", "tsl", "tma", "sma"}) {
      auto engine = MakeEngineByName(name, spec);
      const Result<SimulationReport> report = RunWorkload(*engine, spec);
      if (!report.ok()) {
        std::fprintf(stderr, "%s failed: %s\n", name,
                     report.status().ToString().c_str());
        return 1;
      }
      table.AddRow({report->engine,
                    TablePrinter::Num(report->monitor_seconds, 4),
                    TablePrinter::Int(static_cast<std::int64_t>(
                        report->stats.recomputations)),
                    TablePrinter::Int(static_cast<std::int64_t>(
                        report->stats.result_changes)),
                    TablePrinter::Num(report->memory.TotalMiB(), 4)});
    }
    table.Print(std::cout);
    return 0;
  }

  auto engine = MakeEngineByName(*engine_name, spec);
  if (engine == nullptr) {
    std::fprintf(stderr, "unknown engine '%s'\n%s", engine_name->c_str(),
                 kUsage);
    return 2;
  }
  const Result<SimulationReport> report = RunWorkload(*engine, spec);
  if (!report.ok()) {
    std::fprintf(stderr, "workload failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  PrintReport(*report, spec, *csv);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Result<Flags> flags = Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n%s", flags.status().ToString().c_str(),
                 kUsage);
    return 2;
  }
  return Run(*flags);
}
