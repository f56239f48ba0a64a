// Shared definitions of the end-to-end benchmark: the workload table,
// run constants, failure reporting and CPU placement.

#ifndef TOPKMON_E2EBENCH_COMMON_H_
#define TOPKMON_E2EBENCH_COMMON_H_

#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>

#include "stream/generators.h"

namespace e2e {

/// Count-based window of every workload.
inline constexpr std::size_t kWindow = 100000;
/// Records per wire frame.
inline constexpr std::size_t kFrame = 512;

struct Workload {
  const char* name;
  bool sma;  ///< SMA engine, else TMA
  topkmon::Distribution dist;
  int dim;
  std::size_t queries;
  int k;
  bool journal;  ///< kInterval group commit on the local disk
  double rate_lo;
  double rate_hi;
  double replace_per_s;  ///< control traffic: unregister + register
  double reads_per_s;    ///< control traffic: CurrentResult

  /// Whether control traffic runs alongside the records.
  bool control() const { return replace_per_s > 0; }
};

/// The four workloads (why each exists: e2ebench/README.md). Returns
/// nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);

inline std::uint64_t PositionSeed(std::uint64_t seed) {
  return seed * 0x9E3779B97F4A7C15ULL + 11;
}
inline std::uint64_t QuerySeed(std::uint64_t seed) {
  return seed * 1000003 + 7;
}
inline std::uint64_t ControlSeed(std::uint64_t seed) {
  return seed * 7919 + 3;
}

/// Any failure of a run: it aborts the run, which then reports nothing.
class BenchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

[[noreturn]] inline void Fail(const std::string& msg) { throw BenchError(msg); }

/// Sleeps until `t` nanoseconds after the run epoch.
void SleepUntilNs(std::int64_t t);

// CPU placement. The system under test's driver thread (with its admin
// thread), its network loop, the producer and the subscriber each get a
// CPU of their own when at least four are available. Threads are pinned
// because here a new thread runs on its creator's CPU until the load
// balancer moves it — after about a second for a busy thread, maybe
// never for a bursty one — and unpinned runs came out bimodal.
enum CpuSlot { kCpuDriver = 0, kCpuNet, kCpuProducer, kCpuSubscriber };

/// Records the CPUs this process may use.
void InitPlacement();
bool Pinned();
/// Restricts the calling thread, and threads it creates from now on, to
/// the given slots; a no-op with fewer than four CPUs.
void PinThread(std::initializer_list<CpuSlot> slots);
/// Lets the calling thread run on every CPU InitPlacement found again.
void UnpinThread();

}  // namespace e2e

#endif  // TOPKMON_E2EBENCH_COMMON_H_
