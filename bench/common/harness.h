// Shared scaffolding for the paper-figure benchmark binaries.
//
// Every binary under bench/ regenerates one table or figure of the paper
// (Section 8). Because the original testbed is a 2006-era Pentium and the
// paper-scale workloads (N up to 5M tuples, Q up to 5K queries) take many
// minutes per sweep point for the TSL baseline, the benches run a
// proportionally scaled-down workload by default and accept the
// TOPKMON_SCALE environment variable:
//   TOPKMON_SCALE=smoke    tiny workload (seconds; CI smoke run)
//   TOPKMON_SCALE=default  1/10 of the paper's parameters (the default)
//   TOPKMON_SCALE=paper    the paper's Table 1 parameters
// The reproduction target is the *shape* of each figure (who wins, by what
// factor, where trends bend), not absolute 2006 CPU seconds.

#ifndef TOPKMON_BENCH_COMMON_HARNESS_H_
#define TOPKMON_BENCH_COMMON_HARNESS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/simulation.h"
#include "net/client.h"
#include "util/table_printer.h"
#include "workload/workload.h"

namespace topkmon {
namespace bench {

/// Workload scale selected via TOPKMON_SCALE.
enum class Scale { kSmoke, kDefault, kPaper };

/// Reads TOPKMON_SCALE (defaults to kDefault; unknown values warn and
/// fall back).
Scale GetScale();

const char* ScaleName(Scale scale);

/// The Table 1 defaults at the selected scale: d=4, N, r, Q, k=20,
/// linear functions, count-based window, 100 (scaled) timestamps.
WorkloadSpec BaselineSpec(Scale scale);

/// Engines under comparison.
enum class EngineKind { kTma, kSma, kTsl, kBrute };

const char* EngineName(EngineKind kind);

/// Instantiates an engine for the given workload. `cell_budget` applies to
/// the grid-based engines (default: the tuned ~12^4 cells of Figure 14);
/// `kmax_override` applies to TSL (0 = the paper's fine-tuned kmax).
std::unique_ptr<MonitorEngine> MakeEngine(EngineKind kind,
                                          const WorkloadSpec& spec,
                                          std::size_t cell_budget = 20736,
                                          int kmax_override = 0);

/// Runs `kind` through `spec` and returns the report (aborts with a
/// diagnostic on Status errors — benches have no recovery path).
SimulationReport RunEngine(EngineKind kind, const WorkloadSpec& spec,
                           std::size_t cell_budget = 20736,
                           int kmax_override = 0);

/// Prints the standard bench preamble: what paper artifact this
/// reproduces, the scale, and the workload parameters.
void PrintPreamble(const std::string& title, const std::string& paper_ref,
                   const WorkloadSpec& base);

/// Prints a closing note (expected qualitative shape from the paper).
void PrintExpectation(const std::string& note);

/// The p-quantile (0 <= p <= 1) of `samples` by nth_element; reorders
/// the vector. 0.0 on empty input. One definition shared by the
/// latency benches so their percentiles stay comparable.
double Percentile(std::vector<double>& samples, double p);

/// Sends `batch` over `client`, paced by backpressure (protocol v3): a
/// RESOURCE_EXHAUSTED ack means the server queue filled mid-batch and
/// accepted a prefix, so back off by the ack's queue hint and resend
/// the suffix. Aborts on any other failure, like RunEngine.
void IngestPaced(MonitorClient& client, const std::vector<Record>& batch);

/// A named-workload selection parsed from argv. Benches that can drive
/// their engines from src/workload/ call ParseWorkloadFlags and, when
/// `requested`, replay the named generator instead of (or alongside)
/// the Table 1 stream.
struct WorkloadSelection {
  bool requested = false;  ///< a --workload=<name> flag was present
  std::string name;
  WorkloadOptions options;  ///< seed/k/mean_batch defaults + overrides
};

/// Parses `--workload=<name>`, `--workload-seed=<n>` and repeated
/// `--workload-param=<key>=<value>` flags. `--workload=list` prints the
/// registry with each workload's parameter listing and exits(0);
/// malformed flags print a diagnostic and exit(2). Unrelated flags are
/// ignored so benches can layer their own parsing on top.
WorkloadSelection ParseWorkloadFlags(int argc, char** argv);

/// Prints every registered workload name, description and parameters.
void PrintWorkloadRegistry();

/// Counters from replaying a named workload through an engine.
struct NamedWorkloadRun {
  double seconds = 0.0;      ///< wall time inside ProcessCycle + events
  std::size_t cycles = 0;
  std::size_t records = 0;
  std::size_t registers = 0;
  std::size_t unregisters = 0;
};

/// Drives `engine` through `cycles` steps of the named workload,
/// applying its query register/unregister schedule in-stream. Aborts
/// with a diagnostic on Status errors, like RunEngine.
NamedWorkloadRun RunNamedWorkload(MonitorEngine& engine,
                                  const std::string& name,
                                  const WorkloadOptions& options,
                                  std::size_t cycles);

/// Machine-readable bench output alongside the human tables.
///
/// Collects a flat config plus labelled rows of numeric metrics and
/// writes `BENCH_<name>.json` into $TOPKMON_BENCH_JSON_DIR (or the
/// working directory when unset). CI runs the benches at smoke scale and
/// validates every emitted file with tools/check_bench_json.py, so a
/// bench that silently produces garbage numbers fails the build instead
/// of polluting bench/results/. Non-finite metrics are serialized as
/// JSON `null` — faithfully recorded, rejected by the validator.
class BenchResultWriter {
 public:
  /// `name` keys the output file; it must be a [A-Za-z0-9_]+ slug.
  explicit BenchResultWriter(std::string name);

  /// Records one workload-level parameter (window size, k, ...).
  void Config(const std::string& key, const std::string& value);
  void Config(const std::string& key, double value);

  /// One measured configuration: a label plus its metrics. Tags carry
  /// non-numeric dimensions (engine name, transport, ...).
  struct Row {
    std::string label;
    std::map<std::string, double> metrics;
    std::map<std::string, std::string> tags;
  };
  Row& AddRow(const std::string& label);

  /// Serializes and writes the file; returns false (with a stderr
  /// diagnostic) when the file cannot be written. Safe to call once at
  /// the end of main — benches do not treat a failed write as fatal.
  bool Write() const;

  /// The output path Write() will use.
  std::string path() const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> config_;  // pre-encoded
  std::vector<Row> rows_;
};

}  // namespace bench
}  // namespace topkmon

#endif  // TOPKMON_BENCH_COMMON_HARNESS_H_
