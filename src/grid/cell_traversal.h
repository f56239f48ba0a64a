// Cell visiting order for monotone scoring functions (Section 4.2).
//
// The naive way to find the cells that may contain top-k results is to
// compute maxscore for every cell and sort. The paper's computation module
// instead exploits monotonicity (Figure 5b): the corner cell maximizing f
// has the globally highest maxscore, and after processing a cell, only its
// per-axis neighbors one step in the score-decreasing direction can be
// next. A max-heap seeded with the corner cell therefore enumerates cells
// in exact descending maxscore order while touching only the cells it
// returns plus their immediate frontier.
//
// MaxScoreTraversal implements that enumeration (optionally restricted to
// a constraint rectangle, Section 7); WalkDescending implements the
// order-free list walk used for influence-list cleanup (Section 4.3) and
// threshold queries (Section 7).
//
// Heap keys come from per-axis corner tables. A cell's maxscore is f at
// its best corner, and the corner's coordinate on axis i depends only on
// the cell's coordinate on axis i. So each traversal first tabulates, per
// axis and cell coordinate c, that corner coordinate — min(1, (c+1)*delta)
// on an increasing axis, c*delta on a decreasing one, the arithmetic of
// Grid::CellBounds — clipped to the constraint when there is one, plus
// whether the cell's extent on that axis meets the constraint (the per-axis
// test of Rect::Intersects). A neighbor's key is then one Score() call on
// a point assembled from table lookups, bitwise equal to the maxscore of
// the cell's clipped bounds; no Rect is built per cell.

#ifndef TOPKMON_GRID_CELL_TRAVERSAL_H_
#define TOPKMON_GRID_CELL_TRAVERSAL_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/scoring.h"
#include "grid/grid.h"

namespace topkmon {

/// A cell and its maxscore key, as en-heaped by MaxScoreTraversal.
struct CellKey {
  CellIndex cell;
  double maxscore;
};

/// Reusable traversal state: epoch-stamped visited-cell marks (Reset() is
/// O(1) once the buffer reaches the grid size) and the buffers of the
/// traversals and of the top-k computation module. Every buffer keeps its
/// capacity across traversals, so a computation allocates at most its
/// result. One scratch must not be shared by two live traversals.
class TraversalScratch {
 public:
  /// Prepares the scratch for a new traversal over `num_cells` cells.
  void Reset(std::size_t num_cells);

  /// Marks a cell; returns true iff it was not yet marked this epoch.
  bool Mark(CellIndex cell) {
    assert(cell < marks_.size());
    if (marks_[cell] == epoch_) return false;
    marks_[cell] = epoch_;
    return true;
  }

  bool IsMarked(CellIndex cell) const {
    assert(cell < marks_.size());
    return marks_[cell] == epoch_;
  }

  /// The per-cell point scan's buffers (core/topk_compute.cc): the ids
  /// and coordinate lanes of the cell's records, gathered from the point
  /// store, and their batch scores.
  std::vector<RecordId>& ids() { return ids_; }
  std::vector<double>& coords() { return coords_; }
  std::vector<double>& scores() { return scores_; }
  /// MaxScoreTraversal's max-heap.
  std::vector<CellKey>& heap() { return heap_; }
  /// MaxScoreTraversal's corner tables: entry axis * cells_per_axis + c is
  /// the best-corner coordinate of cell coordinate c on that axis, and
  /// whether that slab meets the constraint.
  std::vector<double>& corners() { return corners_; }
  std::vector<std::uint8_t>& meets() { return meets_; }
  /// WalkDescending's list of cells to visit.
  std::vector<CellIndex>& walk() { return walk_; }
  /// The computation module's processed and frontier cells.
  std::vector<CellIndex>& processed() { return processed_; }
  std::vector<CellIndex>& frontier() { return frontier_; }

  std::size_t MemoryBytes() const {
    return VectorBytes(marks_) + VectorBytes(ids_) + VectorBytes(coords_) +
           VectorBytes(scores_) + VectorBytes(heap_) +
           VectorBytes(corners_) + VectorBytes(meets_) + VectorBytes(walk_) +
           VectorBytes(processed_) + VectorBytes(frontier_);
  }

 private:
  std::vector<std::uint32_t> marks_;
  std::vector<RecordId> ids_;
  std::vector<double> coords_;
  std::vector<double> scores_;
  std::vector<CellKey> heap_;
  std::vector<double> corners_;
  std::vector<std::uint8_t> meets_;
  std::vector<CellIndex> walk_;
  std::vector<CellIndex> processed_;
  std::vector<CellIndex> frontier_;
  std::uint32_t epoch_ = 0;
};

/// Per-axis move one cell toward lower scores (away from the best corner),
/// resolved once per traversal instead of per cell.
struct DescendingSteps {
  DescendingSteps(const Grid& grid, const ScoringFunction& f);

  /// -1 on increasing axes, +1 on decreasing ones.
  std::array<std::int32_t, kMaxDims> step{};
  /// The same move in flattened cell indices: step times the axis stride.
  std::array<std::int64_t, kMaxDims> offset{};

  /// The neighbor of `cell` (per-axis coordinates `coords`) one step down
  /// along `axis`, or false when that leaves the grid.
  bool Neighbor(const Grid& grid, CellIndex cell, const CellCoords& coords,
                int axis, CellIndex* out) const {
    const std::int32_t next = coords[axis] + step[axis];
    if (next < 0 || next >= grid.cells_per_axis()) return false;
    *out = static_cast<CellIndex>(static_cast<std::int64_t>(cell) +
                                  offset[axis]);
    return true;
  }
};

/// Enumerates grid cells in descending maxscore order for a monotone
/// scoring function, expanding neighbors lazily (Figure 5b / Figure 6).
/// Its heap and corner tables live in the scratch.
class MaxScoreTraversal {
 public:
  /// Starts a traversal. If `constraint` is non-null, only cells
  /// intersecting it are visited and maxscores are computed on the
  /// clipped rectangle cell ∩ constraint (constrained top-k, Section 7).
  /// `scratch` must outlive the traversal and not be shared concurrently.
  MaxScoreTraversal(const Grid& grid, const ScoringFunction& f,
                    TraversalScratch* scratch,
                    const Rect* constraint = nullptr);

  /// True iff at least one unprocessed cell remains en-heaped.
  bool HasNext() const { return !heap_.empty(); }

  /// Maxscore key of the next cell. Requires HasNext().
  double PeekMaxScore() const {
    assert(HasNext());
    return heap_.front().maxscore;
  }

  /// Pops the cell with the highest maxscore and en-heaps its
  /// score-decreasing neighbors (marking them so no cell is en-heaped
  /// twice). Requires HasNext().
  CellKey Next();

  /// Number of cells returned by Next() so far.
  std::size_t num_processed() const { return num_processed_; }

  /// Cells currently en-heaped but not processed: the frontier left when
  /// the caller stops early. TMA seeds its influence-list cleanup walk
  /// with exactly these cells (Section 4.3). Fills and returns the
  /// scratch's frontier buffer.
  const std::vector<CellIndex>& RemainingFrontier();

 private:
  /// Sets corner_ to the (clipped) best corner of the cell at `coords`.
  void LoadCorner(const CellCoords& coords);
  void Push(CellIndex cell, double maxscore);

  const Grid& grid_;
  const ScoringFunction& f_;
  TraversalScratch* scratch_;
  std::vector<CellKey>& heap_;  // std::push_heap/pop_heap max-heap
  const DescendingSteps steps_;
  // The scratch's corner tables, filled by the constructor.
  const double* corners_ = nullptr;
  const std::uint8_t* meets_ = nullptr;
  Point corner_;
  std::size_t num_processed_ = 0;
};

/// Order-free walk from `seeds` toward decreasing scores: visits each seed,
/// and whenever `visit(cell)` returns true, expands to the cell's
/// score-decreasing neighbors (each cell visited at most once).
/// Implements the "list" walks of Sections 4.3 (influence-list cleanup,
/// query termination) and 7 (threshold queries). `seeds` must not be the
/// scratch's walk buffer.
template <typename Visit>
void WalkDescending(const Grid& grid, const ScoringFunction& f,
                    const std::vector<CellIndex>& seeds,
                    TraversalScratch* scratch, Visit&& visit) {
  const DescendingSteps steps(grid, f);
  scratch->Reset(grid.num_cells());
  std::vector<CellIndex>& list = scratch->walk();
  assert(&seeds != &list);
  list.clear();
  for (CellIndex seed : seeds) {
    if (scratch->Mark(seed)) list.push_back(seed);
  }
  // The order of visiting does not matter (Section 4.3), so a plain list
  // replaces the heap.
  for (std::size_t i = 0; i < list.size(); ++i) {
    const CellIndex cell = list[i];
    if (!visit(cell)) continue;
    const CellCoords coords = grid.Decompose(cell);
    for (int axis = 0; axis < grid.dim(); ++axis) {
      CellIndex next = 0;
      if (steps.Neighbor(grid, cell, coords, axis, &next) &&
          scratch->Mark(next)) {
        list.push_back(next);
      }
    }
  }
}

/// The cell containing the best corner of the workspace for `f` — the
/// traversal seed of Figure 6 (top-right cell for functions increasing on
/// both axes).
CellIndex SeedCell(const Grid& grid, const ScoringFunction& f);

/// The seed cell for a constrained query (Figure 12): the cell containing
/// the best corner of `constraint`, corrected for the floating-point case
/// where the corner lies exactly on a grid line and naive location would
/// pick a cell that does not intersect the constraint.
CellIndex ConstrainedSeedCell(const Grid& grid, const ScoringFunction& f,
                              const Rect& constraint);

}  // namespace topkmon

#endif  // TOPKMON_GRID_CELL_TRAVERSAL_H_
