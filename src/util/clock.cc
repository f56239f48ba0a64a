#include "util/clock.h"

#include <cassert>

namespace topkmon {

Clock::time_point Clock::Now() const {
  const duration::rep frozen = frozen_at_.load(std::memory_order_relaxed);
  if (frozen != kRunning) return time_point(duration(frozen));
  return RealNow();
}

Clock::time_point Clock::RealNow() { return std::chrono::steady_clock::now(); }

void Clock::Freeze() {
  // The reading taken here is no earlier than any Now() already
  // returned, so freezing never moves time back.
  duration::rep running = kRunning;
  frozen_at_.compare_exchange_strong(running,
                                     RealNow().time_since_epoch().count(),
                                     std::memory_order_relaxed);
}

void Clock::Advance(duration by) {
  assert(by.count() >= 0);
  Freeze();
  frozen_at_.fetch_add(by.count(), std::memory_order_relaxed);
}

}  // namespace topkmon
