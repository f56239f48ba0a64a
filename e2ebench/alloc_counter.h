// Allocation counting for benchmark binaries.
//
// alloc_counter.cc replaces the global operator new/delete with
// malloc/free wrappers that count allocations and requested bytes in
// relaxed atomics while counting is switched on (one relaxed load per
// allocation while off). Link it into a binary to count that binary's
// allocations.

#ifndef TOPKMON_E2EBENCH_ALLOC_COUNTER_H_
#define TOPKMON_E2EBENCH_ALLOC_COUNTER_H_

#include <atomic>
#include <cstdint>

namespace e2e {

struct AllocCounters {
  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> bytes{0};
};

inline AllocCounters g_alloc_counters;

}  // namespace e2e

#endif  // TOPKMON_E2EBENCH_ALLOC_COUNTER_H_
