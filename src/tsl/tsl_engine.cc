#include "tsl/tsl_engine.h"

namespace topkmon {

TslEngine::TslEngine(const TslOptions& options)
    : dim_(options.dim),
      kmax_override_(options.kmax_override),
      window_(options.window),
      lists_(options.dim) {}

Status TslEngine::RegisterQuery(const QuerySpec& spec) {
  TOPKMON_RETURN_IF_ERROR(spec.Validate(dim_));
  if (IsInternalQueryId(spec.id)) {
    return Status::InvalidArgument(
        "query id " + std::to_string(spec.id) +
        " is in the range reserved for engine-internal sub-queries");
  }
  if (queries_.count(spec.id) > 0 || piecewise_.count(spec.id) > 0) {
    return Status::AlreadyExists("query id " + std::to_string(spec.id) +
                                 " already registered");
  }
  if (!spec.function->IsMonotone()) {
    const auto* fn =
        dynamic_cast<const PiecewiseFunction*>(spec.function.get());
    if (fn == nullptr) {
      return Status::Unimplemented(
          "TSL requires a per-dimension monotone or piecewise-monotone "
          "scoring function; got '" + spec.function->ToString() + "'");
    }
    return RegisterPiecewise(spec, *fn);
  }
  return RegisterMonotone(spec, /*report_delta=*/true);
}

Status TslEngine::RegisterMonotone(const QuerySpec& spec, bool report_delta) {
  const int kmax =
      kmax_override_ > 0 ? std::max(kmax_override_, spec.k)
                         : DefaultKmax(spec.k);
  auto [it, inserted] = queries_.emplace(spec.id, QueryState(spec, kmax));
  ++stats_.initial_computations;
  Refill(it->second);
  if (report_delta) {
    delta_.Report(spec.id, last_cycle_, it->second.view.TopK());
  }
  return Status::Ok();
}

Status TslEngine::RegisterPiecewise(const QuerySpec& spec,
                                    const PiecewiseFunction& fn) {
  Result<std::vector<QuerySpec>> subs =
      DecomposePiecewise(spec, fn, &next_internal_id_);
  if (!subs.ok()) return subs.status();
  PiecewiseBook book;
  book.k = spec.k;
  book.subs.reserve(subs->size());
  for (const QuerySpec& sub : *subs) {
    const Status st = RegisterMonotone(sub, /*report_delta=*/false);
    if (!st.ok()) {
      for (QueryId sid : book.subs) (void)RemoveMonotone(sid);
      return st;
    }
    book.subs.push_back(sub.id);
  }
  auto [it, inserted] = piecewise_.emplace(spec.id, std::move(book));
  delta_.Report(spec.id, last_cycle_, MergedPiecewise(it->second));
  return Status::Ok();
}

Status TslEngine::UnregisterQuery(QueryId id) {
  auto pit = piecewise_.find(id);
  if (pit != piecewise_.end()) {
    for (QueryId sid : pit->second.subs) (void)RemoveMonotone(sid);
    piecewise_.erase(pit);
    delta_.Forget(id);
    return Status::Ok();
  }
  if (IsInternalQueryId(id)) {
    return Status::NotFound("query id " + std::to_string(id) +
                            " not registered");
  }
  return RemoveMonotone(id);
}

Status TslEngine::RemoveMonotone(QueryId id) {
  if (queries_.erase(id) == 0) {
    return Status::NotFound("query id " + std::to_string(id) +
                            " not registered");
  }
  delta_.Forget(id);
  return Status::Ok();
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
  if (delta_.enabled()) {
    for (const auto& [qid, state] : queries_) {
      if (IsInternalQueryId(qid)) continue;  // only parents are reported
      delta_.Report(qid, now, state.view.TopK());
    }
    for (const auto& [pid, book] : piecewise_) {
      delta_.Report(pid, now, MergedPiecewise(book));
    }
  }
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

Result<std::vector<ResultEntry>> TslEngine::CurrentResult(QueryId id) const {
  auto pit = piecewise_.find(id);
  if (pit != piecewise_.end()) return MergedPiecewise(pit->second);
  auto it = queries_.find(id);
  if (it == queries_.end() || IsInternalQueryId(id)) {
    return Status::NotFound("query id " + std::to_string(id) +
                            " not registered");
  }
  return it->second.view.TopK();
}

std::vector<ResultEntry> TslEngine::MergedPiecewise(
    const PiecewiseBook& book) const {
  std::vector<ResultEntry> merged;
  for (QueryId sid : book.subs) {
    const std::vector<ResultEntry> entries = queries_.at(sid).view.TopK();
    merged.insert(merged.end(), entries.begin(), entries.end());
  }
  return MergePiecewiseTopK(book.k, std::move(merged));
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
