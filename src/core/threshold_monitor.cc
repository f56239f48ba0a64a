#include "core/threshold_monitor.h"

#include <cmath>

namespace topkmon {

Status ThresholdQuerySpec::Validate(int dim) const {
  if (function == nullptr) {
    return Status::InvalidArgument("threshold query has no scoring function");
  }
  if (function->dim() != dim) {
    return Status::InvalidArgument("scoring function dimensionality " +
                                   std::to_string(function->dim()) +
                                   " != engine dimensionality " +
                                   std::to_string(dim));
  }
  if (!std::isfinite(threshold)) {
    return Status::InvalidArgument("threshold must be finite");
  }
  return Status::Ok();
}

ThresholdMonitor::ThresholdMonitor(int dim, const WindowSpec& window,
                                   std::size_t cell_budget)
    : grid_(dim, Grid::CellsPerAxisForBudget(dim, cell_budget)),
      window_(window) {}

Status ThresholdMonitor::RegisterQuery(const ThresholdQuerySpec& spec) {
  TOPKMON_RETURN_IF_ERROR(spec.Validate(dim()));
  if (queries_.count(spec.id) > 0) {
    return DuplicateQueryIdError(spec.id);
  }
  QueryState state;
  state.spec = spec;
  // List walk over cells with maxscore above the threshold (Section 7: the
  // visiting order does not matter, so a list replaces the heap).
  ++stats_.initial_computations;
  WalkDescending(
      grid_, *spec.function, {SeedCell(grid_, *spec.function)}, &scratch_,
      [this, &spec, &state](CellIndex cell) {
        if (spec.function->MaxScore(grid_.CellBounds(cell)) <=
            spec.threshold) {
          return false;
        }
        ++stats_.cells_visited;
        grid_.AddInfluence(cell, spec.id);
        state.influence_cells.push_back(cell);
        for (RecordId id : grid_.PointsIn(cell)) {
          ++stats_.points_scored;
          const double score = spec.function->Score(window_.Get(id).position);
          if (score > spec.threshold) state.result.emplace(score, id);
        }
        return true;
      });
  queries_.emplace(spec.id, std::move(state));
  return Status::Ok();
}

Status ThresholdMonitor::UnregisterQuery(QueryId id) {
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return UnknownQueryIdError(id);
  }
  for (CellIndex cell : it->second.influence_cells) {
    grid_.RemoveInfluence(cell, id);
  }
  queries_.erase(it);
  return Status::Ok();
}

Status ThresholdMonitor::ProcessCycle(Timestamp now,
                                      const std::vector<Record>& arrivals) {
  Stopwatch watch;
  ++stats_.cycles;
  for (const Record& p : arrivals) {
    TOPKMON_RETURN_IF_ERROR(ValidatePoint(p.position, dim()));
    TOPKMON_RETURN_IF_ERROR(window_.Append(p));
    const CellIndex cell = grid_.LocateCell(p.position);
    grid_.InsertPoint(cell, p.id, p.position);
    ++stats_.arrivals;
    for (QueryId qid : grid_.InfluenceList(cell)) {
      QueryState& state = queries_.at(qid);
      ++stats_.points_scored;
      const double score = state.spec.function->Score(p.position);
      if (score > state.spec.threshold) {
        state.result.emplace(score, p.id);
        ++stats_.result_changes;
      }
    }
  }
  for (const Record& p : window_.EvictExpired(now)) {
    const CellIndex cell = grid_.LocateCell(p.position);
    grid_.ErasePointFifo(cell, p.id);
    ++stats_.expirations;
    for (QueryId qid : grid_.InfluenceList(cell)) {
      QueryState& state = queries_.at(qid);
      ++stats_.points_scored;
      const double score = state.spec.function->Score(p.position);
      if (score > state.spec.threshold) {
        state.result.erase({score, p.id});
        ++stats_.result_changes;
      }
    }
  }
  stats_.maintenance_seconds += watch.ElapsedSeconds();
  return Status::Ok();
}

Result<std::vector<ResultEntry>> ThresholdMonitor::CurrentResult(
    QueryId id) const {
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return UnknownQueryIdError(id);
  }
  std::vector<ResultEntry> out;
  out.reserve(it->second.result.size());
  for (auto rit = it->second.result.rbegin(); rit != it->second.result.rend();
       ++rit) {
    out.push_back(ResultEntry{rit->second, rit->first});
  }
  return out;
}

MemoryBreakdown ThresholdMonitor::Memory() const {
  MemoryBreakdown mb = grid_.Memory();
  mb.Add("window", window_.MemoryBytes());
  std::size_t query_bytes = 0;
  const std::size_t node_bytes =
      sizeof(std::pair<double, RecordId>) + 3 * sizeof(void*) + sizeof(long);
  for (const auto& [qid, state] : queries_) {
    query_bytes += sizeof(QueryState) + state.result.size() * node_bytes +
                   VectorBytes(state.influence_cells);
  }
  mb.Add("query_table", query_bytes);
  return mb;
}

}  // namespace topkmon
