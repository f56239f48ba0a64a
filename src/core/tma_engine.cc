#include "core/tma_engine.h"

#include <cassert>
#include <cstdint>

#include "core/influence.h"

namespace topkmon {

int GridEngineOptions::ResolvedCellsPerAxis() const {
  if (cells_per_axis > 0) return cells_per_axis;
  return Grid::CellsPerAxisForBudget(dim, cell_budget);
}

void VisitGridWindow(const Grid& grid, const GridWindow& window,
                     Timestamp last_cycle, WindowVisitor& visitor) {
  visitor.Begin(last_cycle, window.size());
  // Entries of each cell already visited = index of its next one.
  std::vector<std::uint32_t> visited(grid.num_cells(), 0);
  RecordId id = window.front_id();
  for (const GridWindowEntry& e : window) {
    const PointList& points = grid.PointsIn(e.cell);
    const std::uint32_t i = visited[e.cell]++;
    assert(points.IdAt(i) == id);
    visitor.Visit(id++, points.PointAt(i), e.arrival);
  }
}

TmaEngine::TmaEngine(const GridEngineOptions& options)
    : arrivals_first_(options.arrivals_before_expirations),
      grid_(options.dim, options.ResolvedCellsPerAxis()),
      window_(options.window) {}

Status TmaEngine::RegisterQuery(const QuerySpec& spec) {
  TOPKMON_RETURN_IF_ERROR(spec.Validate(dim()));
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
          "TMA requires a per-dimension monotone or piecewise-monotone "
          "scoring function; got '" + spec.function->ToString() + "'");
    }
    return RegisterPiecewise(spec, *fn);
  }
  return RegisterMonotone(spec, /*report_delta=*/true);
}

Status TmaEngine::RegisterMonotone(const QuerySpec& spec, bool report_delta) {
  auto [it, inserted] = queries_.emplace(spec.id, QueryState(spec));
  QueryState& state = it->second;
  ++stats_.initial_computations;
  RecomputeFromScratch(spec.id, state, /*fresh=*/true);
  if (report_delta) {
    delta_.Report(spec.id, last_cycle_, state.top_list.entries());
  }
  return Status::Ok();
}

Status TmaEngine::RegisterPiecewise(const QuerySpec& spec,
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

Status TmaEngine::UnregisterQuery(QueryId id) {
  auto pit = piecewise_.find(id);
  if (pit != piecewise_.end()) {
    for (QueryId sid : pit->second.subs) (void)RemoveMonotone(sid);
    piecewise_.erase(pit);
    delta_.Forget(id);
    return Status::Ok();
  }
  if (IsInternalQueryId(id)) {
    // Internal sub-queries are invisible to callers.
    return Status::NotFound("query id " + std::to_string(id) +
                            " not registered");
  }
  return RemoveMonotone(id);
}

Status TmaEngine::RemoveMonotone(QueryId id) {
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("query id " + std::to_string(id) +
                            " not registered");
  }
  const QuerySpec& spec = it->second.spec;
  const Rect* constraint =
      spec.constraint.has_value() ? &*spec.constraint : nullptr;
  RemoveAllInfluence(grid_, *spec.function, id, &scratch_, constraint);
  queries_.erase(it);
  delta_.Forget(id);
  return Status::Ok();
}

Status TmaEngine::ProcessCycle(Timestamp now, RecordSpan arrivals) {
  Stopwatch watch;
  ++stats_.cycles;
  // Admit arrivals into the window first so that both batches (Pins and
  // Pdel) are known; their *processing* order is configurable.
  for (const Record& p : arrivals) {
    TOPKMON_RETURN_IF_ERROR(ValidatePoint(p.position, dim()));
    TOPKMON_RETURN_IF_ERROR(
        window_.Push(p.id, {p.arrival, grid_.LocateCell(p.position)}));
  }
  const auto expire = [this](RecordId id, const GridWindowEntry& e) {
    HandleExpiry(id, e.cell);
  };
  if (!arrivals_first_) {
    // Ablation order: expirations first mark queries affected even when an
    // arrival in the same cycle would have covered them. An arrival that
    // expires in its own cycle is not in the grid yet; it goes last.
    window_.PopExpired(now, expire,
                       arrivals.empty() ? kInvalidRecordId
                                        : arrivals.front().id);
  }
  // Pins before Pdel (Figure 9): an arrival that beats the expiring kth
  // record replaces it before the expiration is seen, avoiding a needless
  // recomputation (Section 4.3).
  for (const Record& p : arrivals) HandleArrival(p, window_.Get(p.id).cell);
  window_.PopExpired(now, expire);
  // -- Recompute affected queries from scratch (lines 12-21) ---------------
  for (auto& [qid, state] : queries_) {
    if (!state.affected) continue;
    state.affected = false;
    ++stats_.recomputations;
    ++stats_.result_changes;
    RecomputeFromScratch(qid, state, /*fresh=*/false);
  }
  last_cycle_ = now;
  if (delta_.enabled()) {
    for (const auto& [qid, state] : queries_) {
      if (IsInternalQueryId(qid)) continue;  // only parents are reported
      delta_.Report(qid, now, state.top_list.entries());
    }
    for (const auto& [pid, book] : piecewise_) {
      delta_.Report(pid, now, MergedPiecewise(book));
    }
  }
  stats_.maintenance_seconds += watch.ElapsedSeconds();
  return Status::Ok();
}

void TmaEngine::HandleArrival(const Record& p, CellIndex cell) {
  grid_.InsertPoint(cell, p.id, p.position);
  ++stats_.arrivals;
  for (QueryId qid : grid_.InfluenceList(cell)) {
    QueryState& state = queries_.at(qid);
    if (state.spec.constraint.has_value() &&
        !state.spec.constraint->Contains(p.position)) {
      continue;  // constrained query: update outside R (Section 7)
    }
    ++stats_.points_scored;
    const double score = state.spec.function->Score(p.position);
    if (score >= state.top_list.KthScore()) {
      if (state.top_list.Consider(p.id, score)) ++stats_.result_changes;
    }
  }
}

void TmaEngine::HandleExpiry(RecordId id, CellIndex cell) {
  grid_.ErasePointFifo(cell, id);
  ++stats_.expirations;
  for (QueryId qid : grid_.InfluenceList(cell)) {
    QueryState& state = queries_.at(qid);
    if (state.top_list.Contains(id)) state.affected = true;
  }
}

void TmaEngine::RecomputeFromScratch(QueryId id, QueryState& state,
                                     bool fresh) {
  const QuerySpec& spec = state.spec;
  const Rect* constraint =
      spec.constraint.has_value() ? &*spec.constraint : nullptr;
  const TopKComputation computation =
      ComputeTopK(grid_, *spec.function, spec.k, &scratch_, constraint);
  stats_.cells_visited += computation.processed_cells.size();
  stats_.points_scored += computation.points_scored;
  state.top_list.Clear();
  for (const ResultEntry& e : computation.result) {
    state.top_list.Consider(e.id, e.score);
  }
  if (fresh) {
    AppendInfluenceEntries(grid_, computation.processed_cells, id);
    return;
  }
  AddInfluenceEntries(grid_, computation.processed_cells, id);
  CleanupStaleInfluence(grid_, *spec.function, computation.frontier_cells,
                        id, &scratch_);
}

Result<std::vector<ResultEntry>> TmaEngine::CurrentResult(QueryId id) const {
  auto pit = piecewise_.find(id);
  if (pit != piecewise_.end()) return MergedPiecewise(pit->second);
  auto it = queries_.find(id);
  if (it == queries_.end() || IsInternalQueryId(id)) {
    return Status::NotFound("query id " + std::to_string(id) +
                            " not registered");
  }
  return it->second.top_list.entries();
}

std::vector<ResultEntry> TmaEngine::MergedPiecewise(
    const PiecewiseBook& book) const {
  std::vector<ResultEntry> merged;
  for (QueryId sid : book.subs) {
    const auto& entries = queries_.at(sid).top_list.entries();
    merged.insert(merged.end(), entries.begin(), entries.end());
  }
  return MergePiecewiseTopK(book.k, std::move(merged));
}

MemoryBreakdown TmaEngine::Memory() const {
  MemoryBreakdown mb = grid_.Memory();
  mb.Add("window", window_.MemoryBytes());
  std::size_t query_bytes = 0;
  for (const auto& [qid, state] : queries_) {
    // Scoring function parameters (O(d)) + the result list (O(2k): id and
    // score per entry) — the paper's O(d + 2k) query-table entry.
    query_bytes += sizeof(QueryState) + state.top_list.MemoryBytes() +
                   static_cast<std::size_t>(dim()) * sizeof(double);
  }
  mb.Add("query_table", query_bytes);
  mb.Add("scratch", scratch_.MemoryBytes());
  return mb;
}

}  // namespace topkmon
