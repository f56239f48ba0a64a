#include "core/update_stream_engine.h"

#include "core/influence.h"
#include "core/topk_compute.h"

namespace topkmon {

UpdateStreamTmaEngine::UpdateStreamTmaEngine(const GridEngineOptions& options)
    : grid_(options.dim, options.ResolvedCellsPerAxis()) {}

Status UpdateStreamTmaEngine::RegisterQuery(const QuerySpec& spec) {
  TOPKMON_RETURN_IF_ERROR(spec.Validate(dim()));
  if (queries_.count(spec.id) > 0) {
    return Status::AlreadyExists("query id " + std::to_string(spec.id) +
                                 " already registered");
  }
  auto [it, inserted] = queries_.emplace(spec.id, QueryState(spec));
  ++stats_.initial_computations;
  RecomputeFromScratch(spec.id, it->second, /*fresh=*/true);
  return Status::Ok();
}

Status UpdateStreamTmaEngine::UnregisterQuery(QueryId id) {
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
    RecomputeFromScratch(qid, state, /*fresh=*/false);
  }
  stats_.maintenance_seconds += watch.ElapsedSeconds();
  return Status::Ok();
}

void UpdateStreamTmaEngine::RecomputeFromScratch(QueryId id, QueryState& state,
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

Result<std::vector<ResultEntry>> UpdateStreamTmaEngine::CurrentResult(
    QueryId id) const {
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("query id " + std::to_string(id) +
                            " not registered");
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
