#include "core/sma_engine.h"

#include "core/influence.h"

namespace topkmon {

SmaEngine::SmaEngine(const GridEngineOptions& options)
    : grid_(options.dim, options.ResolvedCellsPerAxis()),
      window_(options.window),
      table_(name(), options.dim, this) {}

void SmaEngine::AddEntry(const QuerySpec& spec) {
  auto [it, inserted] = queries_.emplace(spec.id, QueryState(spec));
  ++stats_.initial_computations;
  Recompute(it->second, /*fresh=*/true);
}

bool SmaEngine::RemoveEntry(QueryId id) {
  auto it = queries_.find(id);
  if (it == queries_.end()) return false;
  RemoveAllInfluence(grid_, it->second.spec, &scratch_);
  queries_.erase(it);
  return true;
}

bool SmaEngine::AppendTopK(QueryId id, std::vector<ResultEntry>* out) const {
  auto it = queries_.find(id);
  if (it == queries_.end()) return false;
  const std::vector<ResultEntry> entries = it->second.skyband.TopK();
  out->insert(out->end(), entries.begin(), entries.end());
  return true;
}

void SmaEngine::ReportEntries(QueryTable& table, Timestamp now) const {
  for (const auto& [qid, state] : queries_) {
    table.ReportEntry(qid, now, state.skyband.TopK());
  }
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
      Recompute(state, /*fresh=*/false);
    }
  }
  last_cycle_ = now;
  table_.ReportCycle(now);
  stats_.maintenance_seconds += watch.ElapsedSeconds();
  return Status::Ok();
}

void SmaEngine::Recompute(QueryState& state, bool fresh) {
  const TopKComputation computation =
      RecomputeFromScratch(grid_, state.spec, fresh, &scratch_, &stats_);
  state.skyband.Rebuild(computation.result);
  state.top_score = computation.KthScore(state.spec.k);
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
