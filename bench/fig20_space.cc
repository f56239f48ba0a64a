// Figure 20: space requirements versus k, IND and ANT.
//
// TSL pays for d extra sorted lists over the whole window; TMA and SMA
// pay for the grid plus per-cell book-keeping. All methods grow with k
// (bigger result lists / views and larger influence lists), and SMA sits
// slightly above TMA (skybands store dominance counters and a few extra
// entries).
//
// Two long runs follow: 50 window turnovers of IND d=2 under TMA and ANT
// d=4 under SMA. Per-cell counts fluctuate, so a point list sized by its
// cell's all-time peak would keep growing with the turnovers; one sized
// by its live count stays within a constant factor of the 8 + 8d bytes a
// live entry needs. They report the point lists' bytes per valid record
// and how often a list's block was reallocated, per 1k records over the
// whole run.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/common/harness.h"
#include "core/sma_engine.h"
#include "core/tma_engine.h"

namespace topkmon {
namespace bench {
namespace {

// Point lists after many window turnovers, one row per (engine, d, dist).
void RunLongRuns(const WorkloadSpec& base, BenchResultWriter* json) {
  constexpr int kTurnovers = 50;
  struct LongRun {
    EngineKind engine;
    Distribution dist;
    int dim;
  };
  std::printf("--- long run: %d window turnovers ---\n", kTurnovers);
  TablePrinter table({"run", "point lists [B/rec]", "live entry [B]",
                      "resizes [per 1k rec]", "engine [MiB]"});
  for (const LongRun& run :
       {LongRun{EngineKind::kTma, Distribution::kIndependent, 2},
        LongRun{EngineKind::kSma, Distribution::kAntiCorrelated, 4}}) {
    WorkloadSpec spec = base;
    spec.distribution = run.dist;
    spec.dim = run.dim;
    spec.num_cycles = kTurnovers * spec.WarmupCycles();
    const std::unique_ptr<MonitorEngine> engine = MakeEngine(run.engine, spec);
    const Result<SimulationReport> report = RunWorkload(*engine, spec);
    if (!report.ok()) {
      std::fprintf(stderr, "long run failed: %s\n",
                   report.status().ToString().c_str());
      std::abort();
    }
    const Grid& grid =
        run.engine == EngineKind::kTma
            ? dynamic_cast<const TmaEngine&>(*engine).grid()
            : dynamic_cast<const SmaEngine&>(*engine).grid();
    const double records =
        static_cast<double>(spec.WarmupCycles() + spec.num_cycles) *
        static_cast<double>(spec.arrivals_per_cycle);
    const double bytes_per_record =
        static_cast<double>(report->memory.Bytes("point_lists")) /
        static_cast<double>(spec.window_size);
    const double resizes_per_krec =
        1000.0 * static_cast<double>(grid.point_list_resizes()) / records;
    const std::string label = std::string("long/") + EngineName(run.engine) +
                              "/" + DistributionName(run.dist) + "/d" +
                              std::to_string(run.dim);
    table.AddRow({label, TablePrinter::Num(bytes_per_record, 4),
                  TablePrinter::Int(8 + 8 * run.dim),
                  TablePrinter::Num(resizes_per_krec, 4),
                  TablePrinter::Num(report->memory.TotalMiB(), 4)});
    BenchResultWriter::Row& row = json->AddRow(label);
    row.tags["dist"] = DistributionName(run.dist);
    row.tags["engine"] = EngineName(run.engine);
    row.metrics["dim"] = static_cast<double>(run.dim);
    row.metrics["turnovers"] = kTurnovers;
    row.metrics["point_list_bytes_per_record"] = bytes_per_record;
    row.metrics["point_list_resizes_per_krec"] = resizes_per_krec;
    row.metrics["engine_mib"] = report->memory.TotalMiB();
  }
  table.Print(std::cout);
  std::printf("\n");
}

int Main() {
  const Scale scale = GetScale();
  WorkloadSpec base = BaselineSpec(scale);
  // Per-cell point lists reach steady state only once every cell has seen
  // expirations, so measure after two full window turnovers.
  const std::size_t turnover_cycles =
      (base.window_size + base.arrivals_per_cycle - 1) /
      base.arrivals_per_cycle;
  base.num_cycles = static_cast<int>(2 * turnover_cycles);
  PrintPreamble("Figure 20: space requirements vs k",
                "Figure 20(a)+(b) of Mouratidis et al., SIGMOD 2006", base);

  const std::vector<int> ks = {1, 5, 10, 20, 50, 100};
  // Rows by whether the paper's ordering (TSL > TMA, SMA >= TMA) holds.
  std::vector<std::string> on_shape;
  std::vector<std::string> off_shape;
  BenchResultWriter json("fig20_space");
  json.Config("dim", static_cast<double>(base.dim));
  json.Config("window", static_cast<double>(base.window_size));
  json.Config("queries", static_cast<double>(base.num_queries));
  for (Distribution dist :
       {Distribution::kIndependent, Distribution::kAntiCorrelated}) {
    std::printf("--- %s ---\n", DistributionName(dist));
    TablePrinter table({"k", "TSL [MiB]", "TMA [MiB]", "SMA [MiB]",
                        "TSL sorted lists [MiB]", "TMA+SMA grid [MiB]",
                        "point lists [B/rec]"});
    for (int k : ks) {
      WorkloadSpec spec = base;
      spec.distribution = dist;
      spec.k = k;
      const SimulationReport tsl = RunEngine(EngineKind::kTsl, spec);
      const SimulationReport tma = RunEngine(EngineKind::kTma, spec);
      const SimulationReport sma = RunEngine(EngineKind::kSma, spec);
      const double grid_mib =
          static_cast<double>(tma.memory.Bytes("grid_directory") +
                              tma.memory.Bytes("point_lists") +
                              tma.memory.Bytes("influence_lists")) /
          (1024.0 * 1024.0);
      // Index bytes per valid record: 8 + 8d at best (id plus SoA lanes).
      const double point_list_bytes_per_record =
          static_cast<double>(tma.memory.Bytes("point_lists")) /
          static_cast<double>(spec.window_size);
      table.AddRow(
          {TablePrinter::Int(k),
           TablePrinter::Num(tsl.memory.TotalMiB(), 4),
           TablePrinter::Num(tma.memory.TotalMiB(), 4),
           TablePrinter::Num(sma.memory.TotalMiB(), 4),
           TablePrinter::Num(static_cast<double>(tsl.memory.Bytes(
                                 "sorted_lists")) /
                                 (1024.0 * 1024.0),
                             4),
           TablePrinter::Num(grid_mib, 4),
           TablePrinter::Num(point_list_bytes_per_record, 4)});
      const std::string label =
          std::string(DistributionName(dist)) + "/k" + std::to_string(k);
      const bool holds = tsl.memory.TotalMiB() > tma.memory.TotalMiB() &&
                         sma.memory.TotalMiB() >= tma.memory.TotalMiB();
      (holds ? on_shape : off_shape).push_back(label);
      BenchResultWriter::Row& row = json.AddRow(label);
      row.tags["dist"] = DistributionName(dist);
      row.metrics["k"] = static_cast<double>(k);
      row.metrics["tsl_mib"] = tsl.memory.TotalMiB();
      row.metrics["tma_mib"] = tma.memory.TotalMiB();
      row.metrics["sma_mib"] = sma.memory.TotalMiB();
      row.metrics["tsl_sorted_lists_mib"] =
          static_cast<double>(tsl.memory.Bytes("sorted_lists")) /
          (1024.0 * 1024.0);
      row.metrics["grid_mib"] = grid_mib;
      row.metrics["point_list_bytes_per_record"] = point_list_bytes_per_record;
      row.metrics["paper_shape_holds"] = holds ? 1.0 : 0.0;
    }
    table.Print(std::cout);
    std::printf("\n");
  }
  RunLongRuns(base, &json);
  json.Write();
  PrintExpectation(
      "TSL consumes the most space (d sorted lists over the window); TMA "
      "and SMA grow mildly with k (influence lists + result state) with "
      "SMA slightly above TMA.");
  auto print_rows = [](const char* verdict,
                       const std::vector<std::string>& labels) {
    std::printf("TSL > TMA and SMA >= TMA %s on %zu rows:", verdict,
                labels.size());
    for (const std::string& label : labels) std::printf(" %s", label.c_str());
    std::printf("\n");
  };
  print_rows("hold", on_shape);
  print_rows("fail", off_shape);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace topkmon

int main() { return topkmon::bench::Main(); }
