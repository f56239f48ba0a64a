#include "bench/common/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "core/brute_force_engine.h"
#include "core/sma_engine.h"
#include "core/tma_engine.h"
#include "tsl/tsl_engine.h"
#include "util/stats.h"

namespace topkmon {
namespace bench {

Scale GetScale() {
  const char* env = std::getenv("TOPKMON_SCALE");
  if (env == nullptr || std::strcmp(env, "default") == 0) {
    return Scale::kDefault;
  }
  if (std::strcmp(env, "smoke") == 0) return Scale::kSmoke;
  if (std::strcmp(env, "paper") == 0) return Scale::kPaper;
  std::fprintf(stderr,
               "warning: unknown TOPKMON_SCALE '%s', using 'default'\n",
               env);
  return Scale::kDefault;
}

const char* ScaleName(Scale scale) {
  switch (scale) {
    case Scale::kSmoke:
      return "smoke";
    case Scale::kDefault:
      return "default";
    case Scale::kPaper:
      return "paper";
  }
  return "?";
}

WorkloadSpec BaselineSpec(Scale scale) {
  WorkloadSpec spec;
  spec.dim = 4;
  spec.distribution = Distribution::kIndependent;
  spec.window_kind = WindowKind::kCountBased;
  spec.family = FunctionFamily::kLinear;
  spec.k = 20;
  spec.seed = 20060627;  // SIGMOD 2006, day one
  switch (scale) {
    case Scale::kSmoke:
      spec.window_size = 20000;
      spec.arrivals_per_cycle = 200;
      spec.num_queries = 20;
      spec.num_cycles = 10;
      break;
    case Scale::kDefault:
      spec.window_size = 100000;
      spec.arrivals_per_cycle = 1000;
      spec.num_queries = 100;
      spec.num_cycles = 50;
      break;
    case Scale::kPaper:
      spec.window_size = 1000000;
      spec.arrivals_per_cycle = 10000;
      spec.num_queries = 1000;
      spec.num_cycles = 100;
      break;
  }
  return spec;
}

const char* EngineName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kTma:
      return "TMA";
    case EngineKind::kSma:
      return "SMA";
    case EngineKind::kTsl:
      return "TSL";
    case EngineKind::kBrute:
      return "BRUTE";
  }
  return "?";
}

std::unique_ptr<MonitorEngine> MakeEngine(EngineKind kind,
                                          const WorkloadSpec& spec,
                                          std::size_t cell_budget,
                                          int kmax_override) {
  switch (kind) {
    case EngineKind::kTma: {
      GridEngineOptions opt;
      opt.dim = spec.dim;
      opt.window = spec.MakeWindowSpec();
      opt.cell_budget = cell_budget;
      return std::make_unique<TmaEngine>(opt);
    }
    case EngineKind::kSma: {
      GridEngineOptions opt;
      opt.dim = spec.dim;
      opt.window = spec.MakeWindowSpec();
      opt.cell_budget = cell_budget;
      return std::make_unique<SmaEngine>(opt);
    }
    case EngineKind::kTsl: {
      TslOptions opt;
      opt.dim = spec.dim;
      opt.window = spec.MakeWindowSpec();
      opt.kmax_override = kmax_override;
      return std::make_unique<TslEngine>(opt);
    }
    case EngineKind::kBrute:
      return std::make_unique<BruteForceEngine>(spec.dim,
                                                spec.MakeWindowSpec());
  }
  return nullptr;
}

SimulationReport RunEngine(EngineKind kind, const WorkloadSpec& spec,
                           std::size_t cell_budget, int kmax_override) {
  std::unique_ptr<MonitorEngine> engine =
      MakeEngine(kind, spec, cell_budget, kmax_override);
  Result<SimulationReport> report = RunWorkload(*engine, spec);
  if (!report.ok()) {
    std::fprintf(stderr, "bench workload failed for %s: %s\n",
                 EngineName(kind), report.status().ToString().c_str());
    std::abort();
  }
  return *std::move(report);
}

void PrintPreamble(const std::string& title, const std::string& paper_ref,
                   const WorkloadSpec& base) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf(
      "scale=%s  d=%d N=%zu r=%zu Q=%zu k=%d cycles=%d window=%s\n\n",
      ScaleName(GetScale()), base.dim, base.window_size,
      base.arrivals_per_cycle, base.num_queries, base.k, base.num_cycles,
      base.window_kind == WindowKind::kCountBased ? "count" : "time");
}

void PrintExpectation(const std::string& note) {
  std::printf("\npaper shape: %s\n\n", note.c_str());
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

BenchResultWriter::BenchResultWriter(std::string name)
    : name_(std::move(name)) {
  for (const char c : name_) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    if (!ok) {
      std::fprintf(stderr, "bench json: invalid name '%s'\n", name_.c_str());
      std::abort();
    }
  }
}

void BenchResultWriter::Config(const std::string& key,
                               const std::string& value) {
  config_.emplace_back(key, "\"" + JsonEscape(value) + "\"");
}

void BenchResultWriter::Config(const std::string& key, double value) {
  config_.emplace_back(key, JsonNumber(value));
}

BenchResultWriter::Row& BenchResultWriter::AddRow(const std::string& label) {
  rows_.push_back(Row{label, {}, {}});
  return rows_.back();
}

std::string BenchResultWriter::path() const {
  const char* dir = std::getenv("TOPKMON_BENCH_JSON_DIR");
  std::string out = (dir != nullptr && dir[0] != '\0') ? dir : ".";
  if (out.back() != '/') out += '/';
  return out + "BENCH_" + name_ + ".json";
}

bool BenchResultWriter::Write() const {
  std::string json = "{\n  \"name\": \"" + JsonEscape(name_) + "\",\n";
  json += "  \"scale\": \"" + std::string(ScaleName(GetScale())) + "\",\n";
  json += "  \"config\": {";
  for (std::size_t i = 0; i < config_.size(); ++i) {
    if (i > 0) json += ",";
    json += "\n    \"" + JsonEscape(config_[i].first) +
            "\": " + config_[i].second;
  }
  json += config_.empty() ? "},\n" : "\n  },\n";
  json += "  \"rows\": [";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const Row& row = rows_[r];
    if (r > 0) json += ",";
    json += "\n    {\"label\": \"" + JsonEscape(row.label) + "\"";
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto& [key, value] : row.metrics) {
      if (!first) json += ", ";
      first = false;
      json += "\"" + JsonEscape(key) + "\": " + JsonNumber(value);
    }
    json += "}";
    if (!row.tags.empty()) {
      json += ", \"tags\": {";
      first = true;
      for (const auto& [key, value] : row.tags) {
        if (!first) json += ", ";
        first = false;
        json += "\"" + JsonEscape(key) + "\": \"" + JsonEscape(value) + "\"";
      }
      json += "}";
    }
    json += "}";
  }
  json += rows_.empty() ? "]\n}\n" : "\n  ]\n}\n";

  const std::string file = path();
  std::FILE* f = std::fopen(file.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench json: cannot open %s for writing\n",
                 file.c_str());
    return false;
  }
  const bool ok =
      std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  if (!ok) {
    std::fprintf(stderr, "bench json: short write to %s\n", file.c_str());
    return false;
  }
  std::printf("bench json: wrote %s\n", file.c_str());
  return true;
}

double Percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t idx = std::min(
      samples.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(samples.size())));
  std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
  return samples[idx];
}

void PrintWorkloadRegistry() {
  std::printf("registered workloads (--workload=<name>):\n");
  WorkloadOptions probe;
  for (const WorkloadInfo& info : ListWorkloads()) {
    std::printf("  %-18s %s\n", info.name.c_str(),
                info.description.c_str());
    const auto workload = MakeWorkload(info.name, probe);
    if (!workload.ok()) continue;
    for (const WorkloadParam& p : (*workload)->Params()) {
      std::printf("    --workload-param=%s=<v>  %s (default %g)\n",
                  p.name.c_str(), p.description.c_str(), p.value);
    }
  }
}

void IngestPaced(MonitorClient& client, const std::vector<Record>& batch) {
  std::size_t off = 0;
  while (off < batch.size()) {
    std::vector<Record> part(batch.begin() + static_cast<long>(off),
                             batch.end());
    const auto ack = client.Ingest(std::move(part));
    if (!ack.ok()) std::abort();
    off += ack->accepted;
    if (ack->rejected == 0) break;
    if (ack->first_error.code() != StatusCode::kResourceExhausted) {
      std::abort();
    }
    std::this_thread::sleep_for(
        std::chrono::microseconds(100 + 4u * ack->queue_hint));
  }
}

WorkloadSelection ParseWorkloadFlags(int argc, char** argv) {
  WorkloadSelection sel;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--workload=", 0) == 0) {
      sel.name = arg.substr(std::strlen("--workload="));
      if (sel.name == "list" || sel.name == "help") {
        PrintWorkloadRegistry();
        std::exit(0);
      }
      sel.requested = true;
    } else if (arg.rfind("--workload-seed=", 0) == 0) {
      sel.options.seed =
          std::strtoull(arg.c_str() + std::strlen("--workload-seed="),
                        nullptr, 10);
    } else if (arg.rfind("--workload-param=", 0) == 0) {
      const std::string kv = arg.substr(std::strlen("--workload-param="));
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::fprintf(stderr,
                     "bad --workload-param '%s' (want key=value)\n",
                     kv.c_str());
        std::exit(2);
      }
      sel.options.params[kv.substr(0, eq)] =
          std::strtod(kv.c_str() + eq + 1, nullptr);
    }
  }
  if (sel.requested) {
    // Validate the selection eagerly so a typo fails before the bench
    // spends minutes on its baseline sweep.
    const auto workload = MakeWorkload(sel.name, sel.options);
    if (!workload.ok()) {
      std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
      std::exit(2);
    }
  }
  return sel;
}

NamedWorkloadRun RunNamedWorkload(MonitorEngine& engine,
                                  const std::string& name,
                                  const WorkloadOptions& options,
                                  std::size_t cycles) {
  auto workload = MakeWorkload(name, options);
  if (!workload.ok()) {
    std::fprintf(stderr, "bench workload '%s' failed: %s\n", name.c_str(),
                 workload.status().ToString().c_str());
    std::abort();
  }
  NamedWorkloadRun run;
  Stopwatch watch;
  for (std::size_t c = 0; c < cycles; ++c) {
    const WorkloadStep step = (*workload)->NextStep();
    for (const QueryEvent& ev : step.query_events) {
      Status st = ev.kind == QueryEvent::kRegister
                      ? engine.RegisterQuery(ev.spec)
                      : engine.UnregisterQuery(ev.id);
      if (!st.ok()) {
        std::fprintf(stderr, "bench workload '%s' query event failed: %s\n",
                     name.c_str(), st.ToString().c_str());
        std::abort();
      }
      ++(ev.kind == QueryEvent::kRegister ? run.registers
                                          : run.unregisters);
    }
    const Status st = engine.ProcessCycle(step.now, step.arrivals);
    if (!st.ok()) {
      std::fprintf(stderr, "bench workload '%s' cycle failed: %s\n",
                   name.c_str(), st.ToString().c_str());
      std::abort();
    }
    ++run.cycles;
    run.records += step.arrivals.size();
  }
  run.seconds = watch.ElapsedSeconds();
  return run;
}

}  // namespace bench
}  // namespace topkmon
