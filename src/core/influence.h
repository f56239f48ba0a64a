// Influence-list book-keeping shared by the grid-based engines
// (Section 4.3).
//
// Influence lists are maintained lazily: result improvements (which shrink
// the influence region) leave stale entries in place, and the entries are
// reconciled only after a from-scratch top-k computation. The cleanup walk
// starts from the cells the computation left en-heaped (the frontier, just
// outside the new influence region) and expands toward lower scores
// through every cell that still carries the query, removing it. The walk
// can never re-enter the new influence region — the region is up-closed
// toward the best corner and the frontier lies strictly below it — so no
// live entry is ever removed.
//
// A query's first computation, at registration, takes a cheaper path. Its
// id is new, so no cell carries it: each processed cell gets the id
// appended without a find (a Debug assert checks it is absent), and there
// is nothing stale to clean up, so the walk is skipped. Unregistering
// removes every entry (RemoveAllInfluence), which is what lets a reused id
// count as new. Recomputations add idempotently and run the cleanup walk.

#ifndef TOPKMON_CORE_INFLUENCE_H_
#define TOPKMON_CORE_INFLUENCE_H_

#include <vector>

#include "common/scoring.h"
#include "core/query.h"
#include "core/topk_compute.h"
#include "grid/cell_traversal.h"
#include "grid/grid.h"
#include "util/stats.h"

namespace topkmon {

/// Registers `query` in the influence list of every cell in `cells`
/// (idempotent; cells typically come from TopKComputation::processed_cells).
void AddInfluenceEntries(Grid& grid, const std::vector<CellIndex>& cells,
                         QueryId query);

/// Registers a newly registered `query`, which no cell carries yet, in the
/// influence list of every cell in `cells`: an append per cell, no find.
void AppendInfluenceEntries(Grid& grid, const std::vector<CellIndex>& cells,
                            QueryId query);

/// Removes stale influence entries of `query` reachable from the frontier
/// `seeds` by walking toward decreasing scores through cells that carry
/// the query (Figure 9, lines 14-21).
void CleanupStaleInfluence(Grid& grid, const ScoringFunction& f,
                           const std::vector<CellIndex>& seeds, QueryId query,
                           TraversalScratch* scratch);

/// Removes every influence entry of the query `spec` (query termination,
/// Section 4.3): walks from the cell with the globally maximal maxscore —
/// the best corner of the constraint region when the spec has one, of the
/// workspace otherwise.
void RemoveAllInfluence(Grid& grid, const QuerySpec& spec,
                        TraversalScratch* scratch);

/// One from-scratch computation of `spec` over `grid` (Figure 9, lines
/// 12-21): runs the computation module, adds its cells visited and points
/// scored to *stats, and reconciles the query's influence lists. `fresh`
/// marks a newly registered query, which no cell carries yet: its
/// processed cells get the id appended and the cleanup walk is skipped.
/// Otherwise the processed cells are added idempotently and stale entries
/// are cleaned from the frontier. The caller installs the returned result.
TopKComputation RecomputeFromScratch(Grid& grid, const QuerySpec& spec,
                                     bool fresh, TraversalScratch* scratch,
                                     EngineStats* stats);

}  // namespace topkmon

#endif  // TOPKMON_CORE_INFLUENCE_H_
