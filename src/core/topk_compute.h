// The top-k computation module (Section 4.2, Figure 6).
//
// Computes a query's top-k set by de-heaping grid cells in descending
// maxscore order and scanning their point lists, stopping as soon as the
// next cell's maxscore cannot beat the kth best score found. The module
// returns, besides the result itself, the two cell sets the maintenance
// algorithms need:
//   * processed cells — de-heaped and scanned; the query is registered in
//     their influence lists;
//   * frontier cells — en-heaped but never processed; TMA seeds its
//     influence-list cleanup walk with them (Section 4.3).
//
// ComputeTopKNaive implements the strawman of Section 4.2 (compute the
// maxscore of every cell, sort, scan in order) for the traversal ablation
// benchmark; both produce identical results.

#ifndef TOPKMON_CORE_TOPK_COMPUTE_H_
#define TOPKMON_CORE_TOPK_COMPUTE_H_

#include <vector>

#include "common/record.h"
#include "common/scoring.h"
#include "core/query.h"
#include "grid/cell_traversal.h"
#include "grid/grid.h"

namespace topkmon {

/// Output of one run of the computation module. The cell lists live in
/// the TraversalScratch the computation ran on and stay valid until that
/// scratch's next traversal or walk.
struct TopKComputation {
  /// Up to k entries in ResultOrder.
  std::vector<ResultEntry> result;
  /// Cells de-heaped and scanned, in processing order.
  const std::vector<CellIndex>& processed_cells;
  /// Cells still en-heaped at termination (the frontier).
  const std::vector<CellIndex>& frontier_cells;
  /// Points whose score was evaluated.
  std::uint64_t points_scored = 0;

  /// Score of the kth result, or -infinity if fewer than k were found.
  double KthScore(int k) const {
    return static_cast<int>(result.size()) >= k
               ? result[k - 1].score
               : -std::numeric_limits<double>::infinity();
  }
};

/// Runs the computation module for preference function `f` and result size
/// `k` over the points indexed in `grid`, whose handles `store` resolves:
/// each scanned cell's ids and coordinates are gathered from the store
/// into the scratch's lanes, so a whole cell is batch-scored at once. When
/// `constraint` is non-null, only points inside it are considered and only
/// cells intersecting it are visited (constrained top-k, Section 7).
/// `scratch` provides the visited marks, the heap, the gather and score
/// buffers and the cell lists; it must not be shared with a concurrently
/// live traversal.
TopKComputation ComputeTopK(const Grid& grid, const PointStore& store,
                            const ScoringFunction& f, int k,
                            TraversalScratch* scratch,
                            const Rect* constraint = nullptr);

/// The naive strawman: maxscore of every cell + full sort, identical
/// result and processed-cell semantics (no frontier; all unprocessed cells
/// with maxscore above the threshold would be the frontier equivalent).
/// Maxscores come from Grid::CellBounds, one Rect per cell.
TopKComputation ComputeTopKNaive(const Grid& grid, const PointStore& store,
                                 const ScoringFunction& f, int k,
                                 TraversalScratch* scratch,
                                 const Rect* constraint = nullptr);

}  // namespace topkmon

#endif  // TOPKMON_CORE_TOPK_COMPUTE_H_
