// Figure 18: CPU time versus query cardinality Q (100 .. 5K), IND and ANT.
//
// Running time scales linearly with Q for all methods; the relative
// ordering (TSL >> TMA > SMA) is unchanged. The sweep also reports TMA's
// and SMA's cost per query registration (the first top-k computation plus
// influence-list book-keeping), which should stay flat in Q.

#include <iostream>

#include "bench/common/harness.h"

namespace topkmon {
namespace bench {
namespace {

int Main() {
  const Scale scale = GetScale();
  WorkloadSpec base = BaselineSpec(scale);
  PrintPreamble("Figure 18: CPU time vs number of queries",
                "Figure 18(a)+(b) of Mouratidis et al., SIGMOD 2006", base);

  // Paper Q values relative to the default 1K: 0.1x, 0.5x, 1x, 2x, 5x.
  const std::vector<double> q_multipliers = {0.1, 0.5, 1.0, 2.0, 5.0};
  BenchResultWriter json("fig18_query_cardinality");
  json.Config("dim", static_cast<double>(base.dim));
  json.Config("window", static_cast<double>(base.window_size));
  for (Distribution dist :
       {Distribution::kIndependent, Distribution::kAntiCorrelated}) {
    std::printf("--- %s ---\n", DistributionName(dist));
    TablePrinter table({"Q", "TSL [s]", "TMA [s]", "SMA [s]", "TSL/SMA",
                        "TMA reg [us/q]", "SMA reg [us/q]"});
    for (double mult : q_multipliers) {
      WorkloadSpec spec = base;
      spec.distribution = dist;
      spec.num_queries = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 mult * static_cast<double>(base.num_queries)));
      const SimulationReport tsl = RunEngine(EngineKind::kTsl, spec);
      const SimulationReport tma = RunEngine(EngineKind::kTma, spec);
      const SimulationReport sma = RunEngine(EngineKind::kSma, spec);
      const double q = static_cast<double>(spec.num_queries);
      const double tma_register_us = tma.register_seconds / q * 1e6;
      const double sma_register_us = sma.register_seconds / q * 1e6;
      table.AddRow(
          {TablePrinter::Int(static_cast<std::int64_t>(spec.num_queries)),
           TablePrinter::Num(tsl.monitor_seconds, 4),
           TablePrinter::Num(tma.monitor_seconds, 4),
           TablePrinter::Num(sma.monitor_seconds, 4),
           TablePrinter::Num(tsl.monitor_seconds / sma.monitor_seconds, 3),
           TablePrinter::Num(tma_register_us),
           TablePrinter::Num(sma_register_us)});
      BenchResultWriter::Row& row =
          json.AddRow(std::string(DistributionName(dist)) + "/Q" +
                      std::to_string(spec.num_queries));
      row.tags["dist"] = DistributionName(dist);
      row.metrics["queries"] = static_cast<double>(spec.num_queries);
      row.metrics["tsl_seconds"] = tsl.monitor_seconds;
      row.metrics["tma_seconds"] = tma.monitor_seconds;
      row.metrics["sma_seconds"] = sma.monitor_seconds;
      row.metrics["tma_register_us_per_query"] = tma_register_us;
      row.metrics["sma_register_us_per_query"] = sma_register_us;
    }
    table.Print(std::cout);
    std::printf("\n");
  }
  json.Write();
  PrintExpectation(
      "near-linear growth in Q for every method; relative performance "
      "unchanged (TSL >> TMA > SMA); cost per registration flat in Q.");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace topkmon

int main() { return topkmon::bench::Main(); }
