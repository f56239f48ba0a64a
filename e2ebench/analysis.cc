#include "e2ebench/analysis.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <unordered_map>

namespace e2e {

using topkmon::Point;
using topkmon::RecordId;
using topkmon::ResultEntry;

double NearestRank(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t n = samples.size();
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::min(std::max<std::size_t>(rank, 1), n);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

bool PercentileSupported(std::size_t n, double p) {
  const std::size_t rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return n >= rank + 10;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

MetricsText MetricsText::Parse(const std::string& text) {
  MetricsText out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // The value follows the last space; label values never hold one.
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) continue;
    const std::string value = line.substr(space + 1);
    double v = 0.0;
    if (value == "+Inf") {
      v = std::numeric_limits<double>::infinity();
    } else {
      char* end = nullptr;
      v = std::strtod(value.c_str(), &end);
      if (end == value.c_str()) continue;
    }
    out.values_[line.substr(0, space)] = v;
  }
  return out;
}

double MetricsText::Value(const std::string& series) const {
  const auto it = values_.find(series);
  return it == values_.end() ? 0.0 : it->second;
}

void MetricsText::Accumulate(const MetricsText& from, const MetricsText& to) {
  for (const auto& [series, value] : to.values_) {
    values_[series] += value - from.Value(series);
  }
}

std::vector<std::pair<double, double>> MetricsText::Histogram(
    const std::string& name) const {
  const std::string prefix = name + "_bucket{le=\"";
  std::vector<std::pair<double, double>> out;
  for (auto it = values_.lower_bound(prefix);
       it != values_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    const std::string le =
        it->first.substr(prefix.size(), it->first.size() - prefix.size() - 2);
    const double bound = le == "+Inf"
                             ? std::numeric_limits<double>::infinity()
                             : std::strtod(le.c_str(), nullptr);
    out.emplace_back(bound, it->second);
  }
  std::sort(out.begin(), out.end());
  return out;
}

double CounterDelta(const MetricsText& a, const MetricsText& b,
                    const std::string& series) {
  return b.Value(series) - a.Value(series);
}

double HistogramQuantile(const MetricsText& m, const std::string& name,
                         double p, std::uint64_t* count) {
  const auto buckets = m.Histogram(name);
  *count = 0;
  if (buckets.empty() || buckets.back().second <= 0) return 0.0;
  const double total = buckets.back().second;
  *count = static_cast<std::uint64_t>(total);
  const double rank = std::max(1.0, std::ceil(p * total));
  double lower = 0.0;
  double below = 0.0;
  for (const auto& [upper, cumulative] : buckets) {
    if (cumulative >= rank) {
      if (std::isinf(upper)) return lower;
      return lower + (upper - lower) * (rank - below) / (cumulative - below);
    }
    lower = upper;
    below = cumulative;
  }
  return lower;
}

std::int64_t SelfTimeNs(
    std::int64_t start, std::int64_t end,
    std::vector<std::pair<std::int64_t, std::int64_t>> children) {
  for (auto& c : children) {
    c.first = std::max(c.first, start);
    c.second = std::min(c.second, end);
  }
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t reach = start;
  for (const auto& c : children) {
    if (c.second <= reach) continue;
    covered += c.second - std::max(c.first, reach);
    reach = c.second;
  }
  return (end - start) - covered;
}

namespace {

void AddParts(FreshParts* sum, const FreshParts& p) {
  sum->to_drain += p.to_drain;
  sum->pre_apply += p.pre_apply;
  sum->engine_self += p.engine_self;
  sum->hub_publish += p.hub_publish;
  sum->to_client += p.to_client;
}

FreshParts Scaled(const FreshParts& p, double n) {
  if (n <= 0) return FreshParts{};
  return FreshParts{p.to_drain / n, p.pre_apply / n, p.engine_self / n,
                    p.hub_publish / n, p.to_client / n};
}

}  // namespace

Decomposition Decompose(const std::vector<CycleTiming>& cycles,
                        const std::vector<FreshEvent>& events) {
  std::unordered_map<std::int64_t, std::vector<const CycleTiming*>> by_ts;
  for (const CycleTiming& c : cycles) by_ts[c.ts].push_back(&c);
  for (auto& entry : by_ts) {
    std::sort(entry.second.begin(), entry.second.end(),
              [](const CycleTiming* a, const CycleTiming* b) {
                return a->enter_ns < b->enter_ns;
              });
  }

  Decomposition out;
  out.events = events.size();
  std::vector<std::pair<double, FreshParts>> parts;
  parts.reserve(events.size());
  double fresh_sum = 0;
  for (const FreshEvent& e : events) {
    fresh_sum += static_cast<double>(e.receipt_ns - e.due_ns);
    const auto it = by_ts.find(e.when);
    if (it == by_ts.end()) continue;
    const CycleTiming* match = nullptr;
    for (const CycleTiming* c : it->second) {
      if (c->enter_ns > e.receipt_ns) break;
      match = c;
    }
    if (match == nullptr) continue;
    FreshParts p;
    p.to_drain = static_cast<double>(match->observer_ns - e.due_ns);
    p.pre_apply = static_cast<double>(match->enter_ns - match->observer_ns);
    p.hub_publish = static_cast<double>(match->publish_ns);
    p.engine_self = static_cast<double>(match->exit_ns - match->enter_ns) -
                    p.hub_publish;
    p.to_client = static_cast<double>(e.receipt_ns - match->exit_ns);
    parts.emplace_back(static_cast<double>(e.receipt_ns - e.due_ns), p);
  }
  out.attributed = parts.size();
  if (events.empty()) return out;
  out.mean_fresh_ns = fresh_sum / static_cast<double>(events.size());
  FreshParts sum;
  std::vector<double> fresh;
  fresh.reserve(parts.size());
  for (const auto& fp : parts) {
    AddParts(&sum, fp.second);
    fresh.push_back(fp.first);
  }
  out.mean = Scaled(sum, static_cast<double>(parts.size()));
  out.p99_fresh_ns = NearestRank(fresh, 0.99);
  FreshParts tail;
  for (const auto& fp : parts) {
    if (fp.first < out.p99_fresh_ns) continue;
    AddParts(&tail, fp.second);
    ++out.tail_events;
  }
  out.tail_mean = Scaled(tail, static_cast<double>(out.tail_events));
  out.reconcile_err =
      out.mean_fresh_ns > 0
          ? std::fabs(out.mean.Sum() - out.mean_fresh_ns) / out.mean_fresh_ns
          : 0.0;
  return out;
}

std::string CheckTopK(const std::vector<ResultEntry>& got,
                      const std::vector<ResultEntry>& want,
                      const PositionLookup& position) {
  if (got.size() != want.size()) {
    return "result holds " + std::to_string(got.size()) + " entries, want " +
           std::to_string(want.size());
  }
  using Keyed = std::pair<double, std::vector<double>>;
  auto keyed = [&position](const std::vector<ResultEntry>& entries,
                           std::vector<Keyed>* out) -> std::string {
    for (const ResultEntry& e : entries) {
      const Point* p = position(e.id);
      if (p == nullptr) {
        return "record " + std::to_string(e.id) + " is not in the window";
      }
      out->emplace_back(e.score, std::vector<double>(p->data(),
                                                     p->data() + p->dim()));
    }
    std::sort(out->begin(), out->end());
    return "";
  };
  std::vector<Keyed> g;
  std::vector<Keyed> w;
  std::string err = keyed(got, &g);
  if (err.empty()) err = keyed(want, &w);
  if (!err.empty()) return err;
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (g[i] != w[i]) {
      std::ostringstream msg;
      msg.precision(17);
      msg << "entry " << i << " (by score) has score " << g[i].first
          << ", want " << w[i].first;
      if (g[i].first == w[i].first) msg << " at a different position";
      return msg.str();
    }
  }
  return "";
}

}  // namespace e2e
