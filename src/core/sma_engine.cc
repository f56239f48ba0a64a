#include "core/sma_engine.h"

#include "core/influence.h"

namespace topkmon {

SmaEngine::SmaEngine(const GridEngineOptions& options)
    : grid_(options.dim, options.ResolvedCellsPerAxis()),
      window_(options.window) {}

Status SmaEngine::RegisterQuery(const QuerySpec& spec) {
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
          "SMA requires a per-dimension monotone or piecewise-monotone "
          "scoring function; got '" + spec.function->ToString() + "'");
    }
    return RegisterPiecewise(spec, *fn);
  }
  return RegisterMonotone(spec, /*report_delta=*/true);
}

Status SmaEngine::RegisterMonotone(const QuerySpec& spec, bool report_delta) {
  auto [it, inserted] = queries_.emplace(spec.id, QueryState(spec));
  ++stats_.initial_computations;
  RecomputeFromScratch(spec.id, it->second, /*fresh=*/true);
  if (report_delta) {
    delta_.Report(spec.id, last_cycle_, it->second.skyband.TopK());
  }
  return Status::Ok();
}

Status SmaEngine::RegisterPiecewise(const QuerySpec& spec,
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

Status SmaEngine::UnregisterQuery(QueryId id) {
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

Status SmaEngine::RemoveMonotone(QueryId id) {
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

Status SmaEngine::ProcessCycle(Timestamp now, RecordSpan arrivals) {
  Stopwatch watch;
  ++stats_.cycles;
  // -- Pins (Figure 11, lines 4-11) ----------------------------------------
  for (const Record& p : arrivals) {
    TOPKMON_RETURN_IF_ERROR(ValidatePoint(p.position, dim()));
    const CellIndex cell = grid_.LocateCell(p.position);
    TOPKMON_RETURN_IF_ERROR(window_.Push(p.id, {p.arrival, cell}));
    grid_.InsertPoint(cell, p.id, p.position);
    ++stats_.arrivals;
    for (QueryId qid : grid_.InfluenceList(cell)) {
      QueryState& state = queries_.at(qid);
      if (state.spec.constraint.has_value() &&
          !state.spec.constraint->Contains(p.position)) {
        continue;
      }
      ++stats_.points_scored;
      const double score = state.spec.function->Score(p.position);
      if (score >= state.top_score) {
        stats_.skyband_evictions += state.skyband.Insert(p.id, score);
        ++stats_.skyband_insertions;
        state.changed = true;
      }
    }
  }
  // -- Pdel (lines 12-16) ----------------------------------------------------
  window_.PopExpired(now, [this](RecordId id, const GridWindowEntry& e) {
    grid_.ErasePointFifo(e.cell, id);
    ++stats_.expirations;
    for (QueryId qid : grid_.InfluenceList(e.cell)) {
      QueryState& state = queries_.at(qid);
      // An expiring record found in the skyband is necessarily its
      // earliest-arrival entry and a member of the current top-k
      // (Section 5, footnote 5); its removal affects no dominance counter.
      if (state.skyband.Remove(id)) state.changed = true;
    }
  });
  // -- Report / refill (lines 17-22) ----------------------------------------
  for (auto& [qid, state] : queries_) {
    if (!state.changed) continue;
    state.changed = false;
    ++stats_.result_changes;
    if (state.skyband.size() < static_cast<std::size_t>(state.spec.k) &&
        window_.size() > 0) {
      ++stats_.recomputations;
      RecomputeFromScratch(qid, state, /*fresh=*/false);
    }
  }
  last_cycle_ = now;
  if (delta_.enabled()) {
    for (const auto& [qid, state] : queries_) {
      if (IsInternalQueryId(qid)) continue;  // only parents are reported
      delta_.Report(qid, now, state.skyband.TopK());
    }
    for (const auto& [pid, book] : piecewise_) {
      delta_.Report(pid, now, MergedPiecewise(book));
    }
  }
  stats_.maintenance_seconds += watch.ElapsedSeconds();
  return Status::Ok();
}

void SmaEngine::RecomputeFromScratch(QueryId id, QueryState& state,
                                     bool fresh) {
  const QuerySpec& spec = state.spec;
  const Rect* constraint =
      spec.constraint.has_value() ? &*spec.constraint : nullptr;
  const TopKComputation computation =
      ComputeTopK(grid_, *spec.function, spec.k, &scratch_, constraint);
  stats_.cells_visited += computation.processed_cells.size();
  stats_.points_scored += computation.points_scored;
  state.skyband.Rebuild(computation.result);
  state.top_score = computation.KthScore(spec.k);
  if (fresh) {
    AppendInfluenceEntries(grid_, computation.processed_cells, id);
    return;
  }
  AddInfluenceEntries(grid_, computation.processed_cells, id);
  CleanupStaleInfluence(grid_, *spec.function, computation.frontier_cells,
                        id, &scratch_);
}

Result<std::vector<ResultEntry>> SmaEngine::CurrentResult(QueryId id) const {
  auto pit = piecewise_.find(id);
  if (pit != piecewise_.end()) return MergedPiecewise(pit->second);
  auto it = queries_.find(id);
  if (it == queries_.end() || IsInternalQueryId(id)) {
    return Status::NotFound("query id " + std::to_string(id) +
                            " not registered");
  }
  return it->second.skyband.TopK();
}

std::vector<ResultEntry> SmaEngine::MergedPiecewise(
    const PiecewiseBook& book) const {
  std::vector<ResultEntry> merged;
  for (QueryId sid : book.subs) {
    const std::vector<ResultEntry> entries = queries_.at(sid).skyband.TopK();
    merged.insert(merged.end(), entries.begin(), entries.end());
  }
  return MergePiecewiseTopK(book.k, std::move(merged));
}

MemoryBreakdown SmaEngine::Memory() const {
  MemoryBreakdown mb = grid_.Memory();
  mb.Add("window", window_.MemoryBytes());
  std::size_t query_bytes = 0;
  for (const auto& [qid, state] : queries_) {
    // O(d + 3k): function parameters plus <id, score, DC> per skyband
    // entry (Section 6).
    query_bytes += sizeof(QueryState) + state.skyband.MemoryBytes() +
                   static_cast<std::size_t>(dim()) * sizeof(double);
  }
  mb.Add("query_table", query_bytes);
  mb.Add("scratch", scratch_.MemoryBytes());
  return mb;
}

double SmaEngine::AverageSkybandSize() const {
  if (queries_.empty()) return 0.0;
  double total = 0.0;
  for (const auto& [qid, state] : queries_) {
    total += static_cast<double>(state.skyband.size());
  }
  return total / static_cast<double>(queries_.size());
}

}  // namespace topkmon
