#include "tsl/tsl_engine.h"

namespace topkmon {

TslEngine::TslEngine(const TslOptions& options)
    : dim_(options.dim),
      kmax_override_(options.kmax_override),
      window_(options.window),
      lists_(options.dim),
      table_(name(), options.dim, this) {}

void TslEngine::AddEntry(const QuerySpec& spec) {
  const int kmax =
      kmax_override_ > 0 ? std::max(kmax_override_, spec.k)
                         : DefaultKmax(spec.k);
  auto [it, inserted] = queries_.emplace(spec.id, QueryState(spec, kmax));
  ++stats_.initial_computations;
  Refill(it->second);
}

bool TslEngine::AppendTopK(QueryId id, std::vector<ResultEntry>* out) const {
  auto it = queries_.find(id);
  if (it == queries_.end()) return false;
  const std::vector<ResultEntry> entries = it->second.view.TopK();
  out->insert(out->end(), entries.begin(), entries.end());
  return true;
}

void TslEngine::ReportEntries(QueryTable& table, Timestamp now) const {
  for (const auto& [qid, state] : queries_) {
    if (IsInternalQueryId(qid)) continue;  // reported through its parent
    table.ReportEntry(qid, now, state.view.TopK());
  }
}

Status TslEngine::ProcessCycle(Timestamp now, RecordSpan arrivals) {
  Stopwatch watch;
  ++stats_.cycles;
  // Arrivals: update the d sorted lists, then probe every view — TSL has
  // no influence regions, so each arrival costs one score evaluation per
  // registered query (Figure 3).
  for (const Record& p : arrivals) {
    TOPKMON_RETURN_IF_ERROR(ValidatePoint(p.position, dim_));
    TOPKMON_RETURN_IF_ERROR(window_.Append(p));
    lists_.Insert(p);
    ++stats_.arrivals;
    for (auto& [qid, state] : queries_) {
      if (state.spec.constraint.has_value() &&
          !state.spec.constraint->Contains(p.position)) {
        continue;  // constrained query: arrival outside R (Section 7)
      }
      ++stats_.points_scored;
      const double score = state.spec.function->Score(p.position);
      if (state.view.OnArrival(p.id, score)) ++stats_.result_changes;
    }
  }
  // Expirations: remove from the sorted lists and from any view that
  // contains the record; refills are deferred to the end of the cycle so
  // a burst of expirations triggers at most one TA run per query.
  for (const Record& p : window_.EvictExpired(now)) {
    TOPKMON_RETURN_IF_ERROR(lists_.Erase(p));
    ++stats_.expirations;
    for (auto& [qid, state] : queries_) {
      if (state.spec.constraint.has_value() &&
          !state.spec.constraint->Contains(p.position)) {
        continue;  // never entered this view
      }
      ++stats_.points_scored;
      const double score = state.spec.function->Score(p.position);
      if (state.view.OnExpiry(p.id, score)) ++stats_.result_changes;
    }
  }
  for (auto& [qid, state] : queries_) {
    // Refill once per cycle when the view dropped below k and the window
    // actually holds records the view is missing.
    if (state.view.NeedsRefill() && window_.size() > state.view.size()) {
      ++stats_.view_refills;
      ++stats_.recomputations;
      Refill(state);
    }
  }
  last_cycle_ = now;
  table_.ReportCycle(now);
  stats_.maintenance_seconds += watch.ElapsedSeconds();
  return Status::Ok();
}

void TslEngine::Refill(QueryState& state) {
  const Rect* constraint = state.spec.constraint.has_value()
                               ? &*state.spec.constraint
                               : nullptr;
  const TaResult ta = RunThresholdAlgorithm(
      lists_, *state.spec.function, state.view.kmax(),
      [this](RecordId id) -> const Record& { return window_.Get(id); },
      constraint);
  sorted_accesses_ += ta.sorted_accesses;
  random_accesses_ += ta.random_accesses;
  stats_.points_scored += ta.random_accesses;
  state.view.Refill(ta.result);
}

MemoryBreakdown TslEngine::Memory() const {
  MemoryBreakdown mb;
  mb.Add("window", window_.MemoryBytes());
  mb.Add("sorted_lists", lists_.MemoryBytes());
  std::size_t view_bytes = 0;
  for (const auto& [qid, state] : queries_) {
    view_bytes += sizeof(QueryState) + state.view.MemoryBytes() +
                  static_cast<std::size_t>(dim_) * sizeof(double);
  }
  mb.Add("views", view_bytes);
  return mb;
}

double TslEngine::AverageViewSize() const {
  if (queries_.empty()) return 0.0;
  double total = 0.0;
  for (const auto& [qid, state] : queries_) {
    total += static_cast<double>(state.view.size());
  }
  return total / static_cast<double>(queries_.size());
}

}  // namespace topkmon
