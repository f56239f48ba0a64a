// `bench_e2e --self-test`: pins the analysis code on canned inputs. The
// set runner runs it first and refuses to report when it fails.

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "e2ebench/analysis.h"

namespace e2e {

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-9 * (1 + std::fabs(b)); }

void Percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  Expect(NearestRank(v, 0.50) == 50, "nearest-rank p50 of 1..100 is 50");
  Expect(NearestRank(v, 0.99) == 99, "nearest-rank p99 of 1..100 is 99");
  Expect(NearestRank(v, 1.0) == 100, "nearest-rank p100 is the maximum");
  std::vector<double> small = {5, 1, 3};
  Expect(NearestRank(small, 0.5) == 3, "nearest-rank p50 of {5,1,3} is 3");
  std::vector<double> empty;
  Expect(NearestRank(empty, 0.5) == 0, "empty sample reads 0");
  Expect(PercentileSupported(1000, 0.99),
         "p99 of 1000 samples has ten beyond it");
  Expect(!PercentileSupported(999, 0.99),
         "p99 of 999 samples has fewer than ten beyond it");
  Expect(PercentileSupported(20, 0.5) && !PercentileSupported(19, 0.5),
         "p50 needs 20 samples");
  Expect(Median({3, 1, 2}) == 2 && Median({4, 1, 3, 2}) == 2.5,
         "median of odd and even sets");
}

const char* kScrapeA =
    "# HELP topkmon_records_applied_total records applied\n"
    "# TYPE topkmon_records_applied_total counter\n"
    "topkmon_records_applied_total 1.23457e+07\n"
    "topkmon_net_loop_connections{loop=\"0\"} 3\n"
    "# TYPE topkmon_delta_delivery_latency_seconds histogram\n"
    "topkmon_delta_delivery_latency_seconds_bucket{le=\"1e-06\"} 0\n"
    "topkmon_delta_delivery_latency_seconds_bucket{le=\"0.001024\"} 10\n"
    "topkmon_delta_delivery_latency_seconds_bucket{le=\"0.002048\"} 20\n"
    "topkmon_delta_delivery_latency_seconds_bucket{le=\"0.004096\"} 20\n"
    "topkmon_delta_delivery_latency_seconds_bucket{le=\"+Inf\"} 20\n"
    "topkmon_delta_delivery_latency_seconds_sum 0.02\n"
    "topkmon_delta_delivery_latency_seconds_count 20\n";

// 100 samples gained: 90 <= 1.024 ms, 9 in (1.024, 2.048], 1 in
// (2.048, 4.096].
const char* kScrapeB =
    "topkmon_records_applied_total 1.33457e+07\n"
    "topkmon_net_loop_connections{loop=\"0\"} 4\n"
    "topkmon_delta_delivery_latency_seconds_bucket{le=\"1e-06\"} 0\n"
    "topkmon_delta_delivery_latency_seconds_bucket{le=\"0.001024\"} 100\n"
    "topkmon_delta_delivery_latency_seconds_bucket{le=\"0.002048\"} 119\n"
    "topkmon_delta_delivery_latency_seconds_bucket{le=\"0.004096\"} 120\n"
    "topkmon_delta_delivery_latency_seconds_bucket{le=\"+Inf\"} 120\n"
    "topkmon_delta_delivery_latency_seconds_sum 0.2\n"
    "topkmon_delta_delivery_latency_seconds_count 120\n";

void Scrapes() {
  const MetricsText a = MetricsText::Parse(kScrapeA);
  const MetricsText b = MetricsText::Parse(kScrapeB);
  Expect(Near(CounterDelta(a, b, "topkmon_records_applied_total"), 1e6),
         "counter delta across scrapes");
  Expect(b.Value("topkmon_net_loop_connections{loop=\"0\"}") == 4,
         "labelled series keep their label block");
  Expect(a.Value("topkmon_missing_total") == 0, "absent series read 0");
  const auto buckets = b.Histogram("topkmon_delta_delivery_latency_seconds");
  Expect(buckets.size() == 5 && std::isinf(buckets.back().first) &&
             buckets.back().second == 120,
         "histogram buckets parsed in bound order with +Inf last");
  const std::string h = "topkmon_delta_delivery_latency_seconds";
  MetricsText gained;
  gained.Accumulate(a, b);
  Expect(Near(gained.Value("topkmon_records_applied_total"), 1e6),
         "accumulated gains hold the counter delta");
  std::uint64_t n = 0;
  const double p50 = HistogramQuantile(gained, h, 0.50, &n);
  Expect(n == 100 && Near(p50, 1e-6 + (0.001024 - 1e-6) * 50 / 90),
         "histogram delta p50 interpolates rank 50 of 90 in (1 us, 1.024 ms] "
         "(n=100)");
  Expect(Near(HistogramQuantile(gained, h, 0.95, &n),
              0.001024 + 0.001024 * 5 / 9),
         "histogram delta p95 interpolates rank 95 in (1.024, 2.048] ms");
  Expect(Near(HistogramQuantile(gained, h, 1.0, &n), 0.004096),
         "histogram delta p100 is the 4.096 ms bound");
  const MetricsText c = MetricsText::Parse(
      "topkmon_delta_delivery_latency_seconds_bucket{le=\"1e-06\"} 0\n"
      "topkmon_delta_delivery_latency_seconds_bucket{le=\"0.001024\"} 100\n"
      "topkmon_delta_delivery_latency_seconds_bucket{le=\"0.002048\"} 119\n"
      "topkmon_delta_delivery_latency_seconds_bucket{le=\"0.004096\"} 120\n"
      "topkmon_delta_delivery_latency_seconds_bucket{le=\"+Inf\"} 130\n");
  MetricsText overflow;
  overflow.Accumulate(b, c);
  Expect(Near(HistogramQuantile(overflow, h, 0.99, &n), 0.004096) && n == 10,
         "a quantile in the +Inf bucket reads its lower bound");
  gained.Accumulate(b, c);
  Expect(Near(HistogramQuantile(gained, h, 1.0, &n), 0.004096) && n == 110,
         "gains of two intervals add up");
  MetricsText none;
  none.Accumulate(b, b);
  Expect(HistogramQuantile(none, h, 0.5, &n) == 0 && n == 0,
         "no samples gained reads 0");
}

void SelfTime() {
  Expect(SelfTimeNs(0, 100, {}) == 100, "a span without children is all self");
  Expect(SelfTimeNs(0, 100, {{10, 20}, {15, 30}, {50, 60}, {90, 120}}) == 60,
         "self time subtracts the union of overlapping, clipped children");
  Expect(SelfTimeNs(0, 100, {{0, 100}, {20, 30}}) == 0,
         "a child covering its parent leaves no self time");
}

void FreshnessDecomposition() {
  // Two cycles share timestamp 7; the event received at 1000 belongs to
  // the later one entered before it (entered at 600), not the one
  // entered after the receipt (at 1010).
  std::vector<CycleTiming> cycles = {
      {7, 100, 150, 400, 50, 10},
      {7, 500, 600, 900, 100, 10},
      {7, 1005, 1010, 1100, 0, 10},
      {9, 1200, 1210, 1300, 40, 10},
  };
  std::vector<FreshEvent> events = {
      {7, 0, 1000},     // parts 500, 100, 200, 100, 100
      {9, 1000, 1500},  // parts 200, 10, 50, 40, 200
  };
  Decomposition d = Decompose(cycles, events);
  Expect(d.attributed == 2, "both events attributed");
  Expect(Near(d.mean.to_drain, 350) && Near(d.mean.pre_apply, 55) &&
             Near(d.mean.engine_self, 125) && Near(d.mean.hub_publish, 70) &&
             Near(d.mean.to_client, 150),
         "mean parts of the attributed cycles");
  Expect(Near(d.mean.Sum(), d.mean_fresh_ns) && d.reconcile_err < 1e-12,
         "parts telescope to mean freshness");
  Expect(d.tail_events == 1 && Near(d.tail_mean.to_drain, 500),
         "the p99 tail is the slowest event");
  // Delivered while cycle 9 still runs (receipt 1250 < exit 1300).
  d = Decompose(cycles, {{9, 1000, 1250}});
  Expect(d.attributed == 1 && Near(d.mean.to_client, -50) &&
             d.reconcile_err < 1e-12,
         "an event received before its cycle returns has a negative "
         "to_client part and still telescopes");
  events.push_back({42, 0, 100});  // no traced cycle
  d = Decompose(cycles, events);
  Expect(d.attributed == 2 && d.events == 3 && d.reconcile_err > 0.01,
         "an unattributed event shows as reconcile error");
}

void ResultCheck() {
  using topkmon::Point;
  using topkmon::ResultEntry;
  const std::vector<Point> points = {Point({0.1, 0.9}), Point({0.5, 0.5}),
                                     Point({0.9, 0.1}), Point({0.3, 0.3})};
  const PositionLookup position = [&points](topkmon::RecordId id) {
    return id < points.size() ? &points[id] : nullptr;
  };
  const std::vector<ResultEntry> want = {{0, 1.0}, {1, 1.0}, {2, 0.9}};
  Expect(CheckTopK(want, want, position).empty(), "identical results pass");
  Expect(CheckTopK({{2, 0.9}, {1, 1.0}, {0, 1.0}}, want, position).empty(),
         "order and tie order do not matter");
  Expect(!CheckTopK({{0, 1.0}, {1, 1.0}, {3, 0.9}}, want, position).empty(),
         "a different record with an equal score is rejected");
  Expect(!CheckTopK({{0, 1.0}, {1, 1.0}, {2, 0.8}}, want, position).empty(),
         "a different score is rejected");
  Expect(!CheckTopK({{0, 1.0}, {1, 1.0}}, want, position).empty(),
         "a short result is rejected");
  Expect(!CheckTopK({{0, 1.0}, {1, 1.0}, {7, 0.9}}, want, position).empty(),
         "a record outside the window is rejected");
}

}  // namespace

int RunSelfTest() {
  Percentiles();
  Scrapes();
  SelfTime();
  FreshnessDecomposition();
  ResultCheck();
  std::printf("self-test: %s (%d failed)\n", g_failures ? "FAILED" : "passed",
              g_failures);
  return g_failures ? 1 : 0;
}

}  // namespace e2e
