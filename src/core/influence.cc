#include "core/influence.h"

namespace topkmon {

void AddInfluenceEntries(Grid& grid, const std::vector<CellIndex>& cells,
                         QueryId query) {
  for (CellIndex cell : cells) grid.AddInfluence(cell, query);
}

void AppendInfluenceEntries(Grid& grid, const std::vector<CellIndex>& cells,
                            QueryId query) {
  for (CellIndex cell : cells) grid.AppendInfluence(cell, query);
}

void CleanupStaleInfluence(Grid& grid, const ScoringFunction& f,
                           const std::vector<CellIndex>& seeds, QueryId query,
                           TraversalScratch* scratch) {
  WalkDescending(grid, f, seeds, scratch, [&grid, query](CellIndex cell) {
    // Expand only through cells that carried the query: stale regions are
    // contiguous in the score-decreasing direction (Section 4.3).
    return grid.RemoveInfluence(cell, query);
  });
}

void RemoveAllInfluence(Grid& grid, const QuerySpec& spec,
                        TraversalScratch* scratch) {
  const ScoringFunction& f = *spec.function;
  const CellIndex seed = spec.constraint.has_value()
                             ? ConstrainedSeedCell(grid, f, *spec.constraint)
                             : SeedCell(grid, f);
  const QueryId query = spec.id;
  WalkDescending(grid, f, {seed}, scratch, [&grid, query](CellIndex cell) {
    return grid.RemoveInfluence(cell, query);
  });
}

TopKComputation RecomputeFromScratch(Grid& grid, const PointStore& store,
                                     const QuerySpec& spec, bool fresh,
                                     TraversalScratch* scratch,
                                     EngineStats* stats) {
  const Rect* constraint =
      spec.constraint.has_value() ? &*spec.constraint : nullptr;
  TopKComputation computation =
      ComputeTopK(grid, store, *spec.function, spec.k, scratch, constraint);
  stats->cells_visited += computation.processed_cells.size();
  stats->points_scored += computation.points_scored;
  if (fresh) {
    AppendInfluenceEntries(grid, computation.processed_cells, spec.id);
  } else {
    AddInfluenceEntries(grid, computation.processed_cells, spec.id);
    CleanupStaleInfluence(grid, *spec.function, computation.frontier_cells,
                          spec.id, scratch);
  }
  return computation;
}

}  // namespace topkmon
