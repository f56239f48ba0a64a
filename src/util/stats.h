// Measurement utilities: wall-clock timers, running statistics, and the
// per-cycle counters reported by the experimental evaluation (Section 8).

#ifndef TOPKMON_UTIL_STATS_H_
#define TOPKMON_UTIL_STATS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "util/clock.h"

namespace topkmon {

/// Monotonic stopwatch measuring elapsed seconds.
class Stopwatch {
 public:
  Stopwatch() { Restart(); }

  /// Resets the epoch to now.
  void Restart() { start_ = Clock::RealNow(); }

  /// Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::RealNow() - start_).count();
  }

 private:
  Clock::time_point start_;
};

/// Streaming mean / variance / min / max over a sequence of samples
/// (Welford's algorithm; numerically stable).
class RunningStat {
 public:
  void Add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  std::uint64_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  void Reset() { *this = RunningStat(); }

  /// "mean=... stddev=... min=... max=... n=..."
  std::string ToString() const;

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Counters accumulated by a monitoring engine over a simulation run; the
/// experimental section's cost model in terms of observable events.
struct EngineStats {
  std::uint64_t cycles = 0;              ///< processing cycles executed
  std::uint64_t arrivals = 0;            ///< records inserted
  std::uint64_t expirations = 0;         ///< records evicted
  std::uint64_t cells_visited = 0;       ///< cells processed by top-k search
  std::uint64_t points_scored = 0;       ///< score evaluations
  std::uint64_t recomputations = 0;      ///< from-scratch top-k computations
                                         ///< triggered by maintenance
  std::uint64_t initial_computations = 0;///< top-k computations at query
                                         ///< registration time
  std::uint64_t result_changes = 0;      ///< reported top-k deltas
  std::uint64_t skyband_insertions = 0;  ///< SMA only
  std::uint64_t skyband_evictions = 0;   ///< SMA only (dominance cnt == k)
  std::uint64_t view_refills = 0;        ///< TSL only (view dropped below k)
  double maintenance_seconds = 0.0;      ///< time in ProcessCycle

  /// Empirical probability that a maintenance cycle recomputed a query from
  /// scratch (Prrec of Section 6): recomputations / (cycles * queries).
  double RecomputationRate(std::uint64_t num_queries) const {
    const double denom =
        static_cast<double>(cycles) * static_cast<double>(num_queries);
    return denom > 0 ? static_cast<double>(recomputations) / denom : 0.0;
  }

  EngineStats& operator+=(const EngineStats& o);
  std::string ToString() const;
};

/// Field-wise difference a - b; used to isolate one measurement phase from
/// an engine's cumulative counters. Requires a >= b field-wise.
EngineStats Subtract(const EngineStats& a, const EngineStats& b);

}  // namespace topkmon

#endif  // TOPKMON_UTIL_STATS_H_
