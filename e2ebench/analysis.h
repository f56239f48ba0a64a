// Analysis primitives of the end-to-end benchmark: percentiles, admin
// plane scrape parsing, span self time, the freshness decomposition and
// the top-k result checker. Everything here is a pure function over
// recorded data, so `bench_e2e --self-test` can pin it on canned inputs.

#ifndef TOPKMON_E2EBENCH_ANALYSIS_H_
#define TOPKMON_E2EBENCH_ANALYSIS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/geometry.h"
#include "core/query.h"

namespace e2e {

// ------------------------------------------------------------ percentiles

/// Nearest-rank p-quantile (0 < p <= 1): the smallest sample with at
/// least ceil(p * n) samples at or below it. Reorders `samples`; 0 when
/// empty.
double NearestRank(std::vector<double>& samples, double p);

/// True when at least ten samples lie beyond the nearest-rank
/// p-quantile of n samples — the highest percentile a sample of size n
/// may report.
bool PercentileSupported(std::size_t n, double p);

/// Median of a small set of per-run values (mean of the middle two for
/// an even count); 0 when empty.
double Median(std::vector<double> values);

// ------------------------------------------------------ /metrics scrapes

/// One parsed Prometheus text scrape: series (name plus its label block,
/// exactly as rendered) to value.
class MetricsText {
 public:
  static MetricsText Parse(const std::string& text);

  /// Value of `series` ("name" or "name{labels}"); 0 when absent.
  double Value(const std::string& series) const;

  /// Adds, for every series of `to`, its gain since `from`: summed
  /// over several intervals, the text then holds what the counters and
  /// histograms gained in all of them.
  void Accumulate(const MetricsText& from, const MetricsText& to);

  /// Cumulative buckets of histogram `name` (unlabelled), ordered by
  /// bound; the +Inf bucket carries an infinite bound.
  std::vector<std::pair<double, double>> Histogram(
      const std::string& name) const;

 private:
  std::map<std::string, double> values_;
};

/// b − a of one counter series.
double CounterDelta(const MetricsText& a, const MetricsText& b,
                    const std::string& series);

/// p-quantile of histogram `name` in `m` (a scrape, or gains summed by
/// Accumulate): the nearest-rank sample's bucket, interpolated linearly
/// between the bucket's bounds by rank (the lower bound of the +Inf
/// bucket when it falls there). *count receives the number of samples;
/// 0 when there is none.
double HistogramQuantile(const MetricsText& m, const std::string& name,
                         double p, std::uint64_t* count);

// ------------------------------------------------------------------ spans

inline constexpr std::uint32_t kNoSpan = 0xFFFFFFFFu;

/// One timed interval, in nanoseconds since the run epoch. `parent`
/// indexes the enclosing span in the same buffer (kNoSpan at the root).
/// `trace_id` groups the spans of one request: the cycle timestamp on
/// the data path, the query id on the control path. `aux` carries the
/// span's work count (records of a cycle or frame, events of a poll).
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t trace_id = 0;
  std::uint32_t name = 0;
  std::uint32_t parent = kNoSpan;
  std::uint32_t aux = 0;
  std::uint32_t reserved = 0;  ///< explicit padding: the child writes spans raw
};

/// Duration of [start, end) minus the part of it covered by the union
/// of `children` (each clipped to the parent interval).
std::int64_t SelfTimeNs(std::int64_t start, std::int64_t end,
                        std::vector<std::pair<std::int64_t, std::int64_t>>
                            children);

// ------------------------------------------------ freshness decomposition

/// One traced engine cycle: the drain boundary (cycle observer), the
/// ProcessCycle entry and exit, and the hub publish time inside it.
struct CycleTiming {
  std::int64_t ts = 0;
  std::int64_t observer_ns = 0;
  std::int64_t enter_ns = 0;
  std::int64_t exit_ns = 0;
  std::int64_t publish_ns = 0;
  std::uint32_t records = 0;
};

/// One delivered delta: its cycle timestamp, the due instant of the
/// newest record of that cycle, and the instant the subscriber got it.
struct FreshEvent {
  std::int64_t when = 0;
  std::int64_t due_ns = 0;
  std::int64_t receipt_ns = 0;
};

/// The five telescoping parts of a freshness sample, in nanoseconds:
/// due → drain → ProcessCycle entry → (engine self + hub publish) →
/// ProcessCycle exit → receipt.
struct FreshParts {
  double to_drain = 0;
  double pre_apply = 0;
  double engine_self = 0;
  double hub_publish = 0;
  double to_client = 0;

  double Sum() const {
    return to_drain + pre_apply + engine_self + hub_publish + to_client;
  }
};

struct Decomposition {
  std::size_t events = 0;      ///< events offered
  std::size_t attributed = 0;  ///< events matched to a traced cycle
  double mean_fresh_ns = 0;    ///< over all offered events
  FreshParts mean;             ///< over attributed events
  double p99_fresh_ns = 0;     ///< nearest-rank, over attributed events
  std::size_t tail_events = 0;
  FreshParts tail_mean;        ///< over attributed events >= p99
  /// |Σ mean parts − mean freshness| / mean freshness.
  double reconcile_err = 0;
};

/// Attributes every event to the latest cycle with its `when` that was
/// entered before the receipt (cycle timestamps can repeat) and splits
/// its freshness into the five parts. Deltas are published inside
/// ProcessCycle, and a parked poll can be answered before the cycle
/// returns: such an event's to_client part is negative, and the parts
/// still sum to its freshness.
Decomposition Decompose(const std::vector<CycleTiming>& cycles,
                        const std::vector<FreshEvent>& events);

// ---------------------------------------------------------- result check

/// Position of a record id in the generated stream; nullptr when the id
/// is not in the window.
using PositionLookup =
    std::function<const topkmon::Point*(topkmon::RecordId)>;

/// Empty when `got` and `want` hold the same (score, position) multiset,
/// else a description of the first difference. Engines may break exact
/// score ties differently, so entries are compared as multisets.
std::string CheckTopK(const std::vector<topkmon::ResultEntry>& got,
                      const std::vector<topkmon::ResultEntry>& want,
                      const PositionLookup& position);

}  // namespace e2e

#endif  // TOPKMON_E2EBENCH_ANALYSIS_H_
