// The system under test: one MonitorService + TcpServer in a child
// process, forked and then exec'd from the benchmark binary itself
// (`bench_e2e --sut ...`), so it holds nothing of the load generator.
//
// The child runs one unsharded engine behind the service (drain_wait
// 2 ms, max_batch 4096, slack 2, 64Ki-event delta buffers, admin plane
// on) and a one-loop TcpServer (1 ms poll tick) on ephemeral ports,
// which it reports over a pipe. It then serves commands from the parent:
// leg marks (snapshots of EngineCounters, CPU time, allocations and
// VmHWM), tracing on/off, and quit — on which it shuts the service down
// and writes its spans to a file.

#ifndef TOPKMON_E2EBENCH_SUT_H_
#define TOPKMON_E2EBENCH_SUT_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "e2ebench/analysis.h"
#include "e2ebench/common.h"

namespace e2e {

/// What the child reports at a leg mark.
struct ChildSnap {
  double cycles = 0;
  double arrivals = 0;
  double recomputations = 0;
  double cells_visited = 0;
  double points_scored = 0;
  double skyband_ops = 0;
  double cpu_us = 0;
  double allocs = 0;
  double alloc_bytes = 0;
  double hwm_kib = 0;
  double engine_bytes = 0;  ///< MonitorService::Memory(), final mark only
};

/// A fresh engine of the workload's kind over the N-record window.
std::unique_ptr<topkmon::MonitorEngine> MakeEngine(const Workload& w);

/// Entry point of the exec'd child (`bench_e2e --sut ...`); returns an
/// exit code only when the child fails.
int SutMain(int argc, char** argv);

class LineReader;

/// Parent-side handle of one system under test. Forks and execs in the
/// constructor (call it while the process has a single thread) and
/// kills and reaps the child in the destructor unless it quit.
class Child {
 public:
  /// `journal_dir` is used by journaled workloads; `spans_path` receives
  /// the child's spans when `trace` is set.
  Child(const Workload& w, bool trace, const std::string& journal_dir,
        const std::string& spans_path);
  ~Child();

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  std::uint16_t data_port() const { return data_port_; }
  std::uint16_t admin_port() const { return admin_port_; }

  /// Snapshot at a leg boundary. Only the `final` one measures engine
  /// memory, which holds the engine lock while it walks the engine.
  ChildSnap Mark(bool final = false);
  void SetTracing(bool on);
  /// Graceful stop; returns the child's spans (empty unless traced).
  std::vector<Span> Quit();
  void Kill();

 private:
  std::string Command(const std::string& cmd);
  void Reap();

  std::string journal_dir_;
  std::string spans_path_;
  pid_t pid_ = -1;
  int cmd_fd_ = -1;
  int reply_fd_ = -1;
  std::unique_ptr<LineReader> reader_;
  std::uint16_t data_port_ = 0;
  std::uint16_t admin_port_ = 0;
};

}  // namespace e2e

#endif  // TOPKMON_E2EBENCH_SUT_H_
