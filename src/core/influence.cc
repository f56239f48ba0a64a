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

void RemoveAllInfluence(Grid& grid, const ScoringFunction& f, QueryId query,
                        TraversalScratch* scratch, const Rect* constraint) {
  const CellIndex seed = constraint == nullptr
                             ? SeedCell(grid, f)
                             : ConstrainedSeedCell(grid, f, *constraint);
  WalkDescending(grid, f, {seed}, scratch, [&grid, query](CellIndex cell) {
    return grid.RemoveInfluence(cell, query);
  });
}

}  // namespace topkmon
