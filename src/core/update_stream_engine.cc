#include "core/update_stream_engine.h"

#include "core/influence.h"

namespace topkmon {

UpdateStreamTmaEngine::UpdateStreamTmaEngine(const GridEngineOptions& options)
    : grid_(options.dim, options.ResolvedCellsPerAxis()) {}

Status UpdateStreamTmaEngine::RegisterQuery(const QuerySpec& spec) {
  TOPKMON_RETURN_IF_ERROR(spec.Validate(dim()));
  if (queries_.count(spec.id) > 0) {
    return DuplicateQueryIdError(spec.id);
  }
  auto [it, inserted] = queries_.emplace(spec.id, QueryState(spec));
  ++stats_.initial_computations;
  Recompute(it->second, /*fresh=*/true);
  return Status::Ok();
}

Status UpdateStreamTmaEngine::UnregisterQuery(QueryId id) {
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return UnknownQueryIdError(id);
  }
  RemoveAllInfluence(grid_, it->second.spec, &scratch_);
  queries_.erase(it);
  return Status::Ok();
}

Status UpdateStreamTmaEngine::ProcessBatch(const std::vector<UpdateOp>& ops) {
  Stopwatch watch;
  ++stats_.cycles;
  for (const UpdateOp& op : ops) {
    if (op.kind == UpdateOp::Kind::kInsert) {
      const Record& p = op.record;
      TOPKMON_RETURN_IF_ERROR(ValidatePoint(p.position, dim()));
      TOPKMON_RETURN_IF_ERROR(pool_.Insert(p));
      const CellIndex cell = grid_.LocateCell(p.position);
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
        if (score >= state.top_list.KthScore()) {
          if (state.top_list.Consider(p.id, score)) ++stats_.result_changes;
        }
      }
    } else {
      const Result<Record> found = pool_.Find(op.record.id);
      if (!found.ok()) return found.status();
      const Record p = *found;
      TOPKMON_RETURN_IF_ERROR(pool_.Erase(p.id));
      const CellIndex cell = grid_.LocateCell(p.position);
      TOPKMON_RETURN_IF_ERROR(grid_.ErasePoint(cell, p.id));
      ++stats_.expirations;
      for (QueryId qid : grid_.InfluenceList(cell)) {
        QueryState& state = queries_.at(qid);
        // Deleting a current result record invalidates the list: the
        // replacement may lie anywhere below the kth score, so the query
        // must be recomputed (Section 7). The stale list keeps serving
        // membership checks until the end-of-batch repair.
        if (state.top_list.Contains(p.id)) state.affected = true;
      }
    }
  }
  for (auto& [qid, state] : queries_) {
    if (!state.affected) continue;
    state.affected = false;
    ++stats_.recomputations;
    ++stats_.result_changes;
    Recompute(state, /*fresh=*/false);
  }
  stats_.maintenance_seconds += watch.ElapsedSeconds();
  return Status::Ok();
}

void UpdateStreamTmaEngine::Recompute(QueryState& state, bool fresh) {
  const TopKComputation computation =
      RecomputeFromScratch(grid_, state.spec, fresh, &scratch_, &stats_);
  state.top_list.Clear();
  for (const ResultEntry& e : computation.result) {
    state.top_list.Consider(e.id, e.score);
  }
}

Result<std::vector<ResultEntry>> UpdateStreamTmaEngine::CurrentResult(
    QueryId id) const {
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return UnknownQueryIdError(id);
  }
  return it->second.top_list.entries();
}

MemoryBreakdown UpdateStreamTmaEngine::Memory() const {
  MemoryBreakdown mb = grid_.Memory();
  mb.Add("record_pool", pool_.MemoryBytes());
  std::size_t query_bytes = 0;
  for (const auto& [qid, state] : queries_) {
    query_bytes += sizeof(QueryState) + state.top_list.MemoryBytes() +
                   static_cast<std::size_t>(dim()) * sizeof(double);
  }
  mb.Add("query_table", query_bytes);
  return mb;
}

}  // namespace topkmon
