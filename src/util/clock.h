// The one module that reads the clock. It has two reads, one to decide
// and one to measure:
//
//   Now()      a node's decision read. Lease start, renewal and expiry,
//              the follower's election silence, the session token
//              buckets and the journal's group-commit interval read it.
//              MonitorService owns one Clock per node. A test can Freeze
//              it at its current reading and Advance it; frozen or not,
//              it never runs backwards. Unfrozen, a read costs one
//              relaxed atomic load and one steady_clock read.
//   RealNow()  the measuring and waiting read: latency histograms, the
//              queue's and hub's stamps, socket deadlines and idle
//              sweeps, test waits and Stopwatch. Nothing moves it.
//
// The split is what lets a test freeze one node's decisions without
// freezing its sockets: a leader whose clock stands still must still
// time out its parked long-polls, or its followers' fetches would stall
// and their agents hold an election nobody asked for.

#ifndef TOPKMON_UTIL_CLOCK_H_
#define TOPKMON_UTIL_CLOCK_H_

#include <atomic>
#include <chrono>
#include <limits>

namespace topkmon {

class Clock {
 public:
  using duration = std::chrono::steady_clock::duration;
  using time_point = std::chrono::steady_clock::time_point;

  /// The decision read: the frozen reading, else the monotonic clock.
  time_point Now() const;

  /// The real monotonic clock, which no test can move.
  static time_point RealNow();

  /// Pins Now() at its current reading; a no-op on a frozen clock.
  void Freeze();

  /// Freezes the clock if it runs, then moves it forward by `by` (>= 0).
  void Advance(duration by);

 private:
  static constexpr duration::rep kRunning =
      std::numeric_limits<duration::rep>::min();
  /// The frozen reading's ticks since the steady_clock epoch, or
  /// kRunning.
  std::atomic<duration::rep> frozen_at_{kRunning};
};

}  // namespace topkmon

#endif  // TOPKMON_UTIL_CLOCK_H_
