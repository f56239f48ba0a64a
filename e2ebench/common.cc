#include "e2ebench/common.h"

#include <sched.h>

#include <chrono>
#include <thread>
#include <vector>

#include "e2ebench/trace.h"

namespace e2e {

using topkmon::Distribution;

namespace {

// Only churn carries control traffic while records flow, so the other
// three isolate the data path.
const Workload kWorkloads[] = {
    {"ingest", false, Distribution::kIndependent, 2, 16, 10, false, 1.0e6,
     2.5e6, 0, 0},
    {"durable", false, Distribution::kIndependent, 2, 16, 10, true, 1.0e6,
     1.5e6, 0, 0},
    {"queries", true, Distribution::kAntiCorrelated, 4, 512, 20, false,
     2.5e5, 6.0e5, 0, 0},
    {"churn", false, Distribution::kIndependent, 2, 64, 10, false, 5.0e5,
     2.0e6, 150, 300},
};

std::vector<int> g_cpus;

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

void SleepUntilNs(std::int64_t t) {
  std::this_thread::sleep_until(EpochTime() + std::chrono::nanoseconds(t));
}

void InitPlacement() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) g_cpus.push_back(c);
  }
}

bool Pinned() { return g_cpus.size() >= 4; }

void PinThread(std::initializer_list<CpuSlot> slots) {
  if (!Pinned()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (CpuSlot slot : slots) {
    CPU_SET(g_cpus[static_cast<std::size_t>(slot)], &set);
  }
  ::sched_setaffinity(0, sizeof(set), &set);
}

void UnpinThread() {
  if (g_cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : g_cpus) CPU_SET(c, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace e2e
