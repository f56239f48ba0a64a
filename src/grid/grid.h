// Regular grid index with book-keeping (Section 4.1).
//
// The valid records are indexed by a regular grid over the unit workspace.
// Cell c_{i1,...,id} spans [i_j*delta, (i_j+1)*delta) per axis, so the cell
// covering a point is found in O(1). Each cell maintains:
//   * a point list — ids of the valid records inside the cell, in arrival
//     order. In the append-only model insertions and deletions are FIFO,
//     so the list is a vector with a moving head (amortized O(1) at both
//     ends). The update-stream model (Section 7) deletes from arbitrary
//     positions; cells are small (N * delta^d points on average), so a
//     bounded linear scan replaces the paper's per-cell hash table with
//     the same expected O(1) cost and better locality.
//   * an influence list IL_c — the set of queries whose influence region
//     intersects the cell, stored as a hash set for O(1) insert / erase /
//     membership (Section 4.1).

#ifndef TOPKMON_GRID_GRID_H_
#define TOPKMON_GRID_GRID_H_

#include <array>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/geometry.h"
#include "common/record.h"
#include "common/status.h"
#include "util/memory_tracker.h"

namespace topkmon {

/// Identifier of a registered continuous query.
using QueryId = std::uint32_t;

/// Flattened index of a grid cell in [0, num_cells).
using CellIndex = std::uint32_t;

/// Per-axis integer coordinates of a cell.
using CellCoords = std::array<std::int32_t, kMaxDims>;

/// FIFO point list with a moving head: PushBack to insert, PopFront to
/// expire, bounded-scan Erase for update streams. PopFront compacts
/// whenever the dead prefix reaches the live size, so a list's footprint
/// is proportional to its live peak rather than to the number of records
/// that ever passed through the cell.
///
/// Besides the ids, the list stores the point coordinates in a lane-major
/// (structure-of-arrays) layout: lane d is a contiguous run of coordinate
/// d for every entry, so the top-k scan batch-scores a whole cell with
/// auto-vectorizable per-lane loops instead of chasing each record through
/// the window (grid entries grow from 8 to 8 + 8d bytes per point; the
/// paper's space numbers count only the id lane).
class PointList {
 public:
  void PushBack(RecordId id, const Point& p);

  /// Removes the oldest entry, which must equal `id` (append-only model
  /// expires strictly FIFO within each cell).
  void PopFront(RecordId id) {
    assert(head_ < ids_.size() && ids_[head_] == id);
    (void)id;
    ++head_;
    MaybeCompact();
  }

  /// Removes `id` wherever it is (update-stream model); returns false if
  /// absent.
  bool Erase(RecordId id);

  std::size_t size() const { return ids_.size() - head_; }
  bool empty() const { return size() == 0; }

  /// Valid entries, oldest first.
  const RecordId* begin() const { return ids_.data() + head_; }
  const RecordId* end() const { return ids_.data() + ids_.size(); }

  /// Contiguous coordinate-d lane of the valid entries, aligned with
  /// begin(): Lane(d)[i] is coordinate d of the record begin()[i].
  /// Requires 0 <= d < the dimensionality of the inserted points.
  const double* Lane(int d) const {
    assert(d >= 0 && d < dim_);
    return lanes_.data() + static_cast<std::size_t>(d) * stride_ + head_;
  }

  std::size_t MemoryBytes() const {
    return VectorBytes(ids_) + VectorBytes(lanes_);
  }

 private:
  void MaybeCompact();
  void GrowLanes(std::size_t min_stride);

  std::vector<RecordId> ids_;
  /// Lane-major coordinates; entry i of ids_ lives at lanes_[d*stride_+i].
  std::vector<double> lanes_;
  std::size_t stride_ = 0;  // per-lane capacity; >= ids_.size() once dim_>0
  std::size_t head_ = 0;
  int dim_ = 0;
};

/// The grid index. Owns per-cell point lists and influence lists; does not
/// own the records themselves (those live in the SlidingWindow /
/// RecordPool), keeping index entries at 8 bytes per point.
class Grid {
 public:
  /// Grid with `cells_per_axis` cells on each of `dim` axes.
  /// Requires 1 <= dim <= kMaxDims and cells_per_axis >= 1.
  Grid(int dim, int cells_per_axis);

  /// The paper sizes grids by total cell budget across dimensionalities
  /// (~12^4 cells regardless of d, Section 8): the largest per-axis count
  /// whose d-th power does not exceed `cell_budget` (at least 1).
  static int CellsPerAxisForBudget(int dim, std::size_t cell_budget);

  int dim() const { return dim_; }
  int cells_per_axis() const { return cells_per_axis_; }
  std::size_t num_cells() const { return num_cells_; }
  /// Cell extent per axis (the paper's delta).
  double delta() const { return delta_; }

  /// O(1) location of the cell covering `p` (Section 4.1). Coordinates
  /// exactly equal to 1.0 map to the last cell.
  CellIndex LocateCell(const Point& p) const;

  /// Flattened index <-> per-axis coordinates.
  CellIndex Compose(const CellCoords& coords) const;
  CellCoords Decompose(CellIndex cell) const;

  /// The rectangle covered by a cell.
  Rect CellBounds(CellIndex cell) const;

  // -- Point lists ---------------------------------------------------------

  /// Appends `id` with its coordinates to the point list of `cell`
  /// (arrival). `p` must be the point that LocateCell mapped to `cell`.
  void InsertPoint(CellIndex cell, RecordId id, const Point& p) {
    cells_[cell].points.PushBack(id, p);
    ++num_points_;
  }

  /// FIFO removal on expiration (append-only model). `id` must be the
  /// oldest entry of the cell.
  void ErasePointFifo(CellIndex cell, RecordId id) {
    cells_[cell].points.PopFront(id);
    --num_points_;
  }

  /// Positional removal (update-stream model). Returns NotFound if the id
  /// is not in the cell.
  Status ErasePoint(CellIndex cell, RecordId id);

  /// The point list of a cell (oldest first).
  const PointList& PointsIn(CellIndex cell) const {
    return cells_[cell].points;
  }

  /// Total number of indexed points.
  std::size_t num_points() const { return num_points_; }

  // -- Influence lists -----------------------------------------------------

  /// Registers query `q` in IL_cell (idempotent).
  void AddInfluence(CellIndex cell, QueryId q) {
    cells_[cell].influence.insert(q);
  }

  /// Removes query `q` from IL_cell; returns true iff it was present.
  bool RemoveInfluence(CellIndex cell, QueryId q) {
    return cells_[cell].influence.erase(q) > 0;
  }

  bool HasInfluence(CellIndex cell, QueryId q) const {
    return cells_[cell].influence.count(q) > 0;
  }

  const std::unordered_set<QueryId>& InfluenceList(CellIndex cell) const {
    return cells_[cell].influence;
  }

  /// Sum of influence-list sizes across all cells (book-keeping volume).
  std::size_t TotalInfluenceEntries() const;

  /// Structure-size accounting for the space experiments (Figures 14b, 20):
  /// cell directory, point lists, influence lists.
  MemoryBreakdown Memory() const;

 private:
  struct Cell {
    PointList points;
    std::unordered_set<QueryId> influence;
  };

  int dim_;
  int cells_per_axis_;
  std::size_t num_cells_;
  double delta_;
  std::size_t num_points_ = 0;
  std::vector<Cell> cells_;
};

}  // namespace topkmon

#endif  // TOPKMON_GRID_GRID_H_
