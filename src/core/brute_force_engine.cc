#include "core/brute_force_engine.h"

#include <algorithm>
#include <limits>

namespace topkmon {

BruteForceEngine::BruteForceEngine(int dim, const WindowSpec& window)
    : dim_(dim),
      window_(window) {}

Status BruteForceEngine::RegisterQuery(const QuerySpec& spec) {
  TOPKMON_RETURN_IF_ERROR(spec.Validate(dim_));
  if (IsInternalQueryId(spec.id)) {
    // BruteForce never decomposes, but the reserved range is refused
    // uniformly so callers observe one id-space contract per engine.
    return ReservedQueryIdError(spec.id);
  }
  if (queries_.count(spec.id) > 0) {
    return DuplicateQueryIdError(spec.id);
  }
  QueryState state{spec, {}};
  Recompute(state);
  ++stats_.initial_computations;
  delta_.Report(spec.id, last_cycle_, state.result);
  queries_.emplace(spec.id, std::move(state));
  return Status::Ok();
}

Status BruteForceEngine::UnregisterQuery(QueryId id) {
  if (queries_.erase(id) == 0) {
    return UnknownQueryIdError(id);
  }
  delta_.Forget(id);
  return Status::Ok();
}

Status BruteForceEngine::ProcessCycle(Timestamp now,
                                      RecordSpan arrivals) {
  Stopwatch watch;
  ++stats_.cycles;
  for (const Record& p : arrivals) {
    TOPKMON_RETURN_IF_ERROR(ValidatePoint(p.position, dim_));
    TOPKMON_RETURN_IF_ERROR(window_.Append(p));
    ++stats_.arrivals;
  }
  stats_.expirations += window_.EvictExpired(now).size();
  for (auto& [qid, state] : queries_) {
    Recompute(state);
    ++stats_.recomputations;
    delta_.Report(qid, now, state.result);
  }
  last_cycle_ = now;
  stats_.maintenance_seconds += watch.ElapsedSeconds();
  return Status::Ok();
}

void BruteForceEngine::Recompute(QueryState& state) {
  TopKList top(state.spec.k);
  for (const Record& p : window_) {
    if (state.spec.constraint.has_value() &&
        !state.spec.constraint->Contains(p.position)) {
      continue;
    }
    ++stats_.points_scored;
    const double score = state.spec.function->Score(p.position);
    // A record scoring -infinity lies outside every piece of a piecewise
    // function: it is unrankable and excluded from the result entirely,
    // matching the decomposed evaluation on the grid engines (which never
    // see uncovered records at all).
    if (score == -std::numeric_limits<double>::infinity()) continue;
    top.Consider(p.id, score);
  }
  state.result = top.entries();
}

Result<std::vector<ResultEntry>> BruteForceEngine::CurrentResult(
    QueryId id) const {
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return UnknownQueryIdError(id);
  }
  return it->second.result;
}

MemoryBreakdown BruteForceEngine::Memory() const {
  MemoryBreakdown mb;
  mb.Add("window", window_.MemoryBytes());
  std::size_t query_bytes = 0;
  for (const auto& [qid, state] : queries_) {
    query_bytes += sizeof(QueryState) + VectorBytes(state.result);
  }
  mb.Add("query_table", query_bytes);
  return mb;
}

}  // namespace topkmon
