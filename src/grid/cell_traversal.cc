#include "grid/cell_traversal.h"

#include <algorithm>

namespace topkmon {

namespace {

struct HeapCompare {
  // std::push_heap builds a max-heap with operator<; compare maxscores.
  bool operator()(const CellKey& a, const CellKey& b) const {
    return a.maxscore < b.maxscore;
  }
};

}  // namespace

void TraversalScratch::Reset(std::size_t num_cells) {
  if (marks_.size() < num_cells) {
    marks_.assign(num_cells, 0);
    epoch_ = 1;
    return;
  }
  if (++epoch_ == 0) {  // wrapped: clear and restart
    std::fill(marks_.begin(), marks_.end(), 0);
    epoch_ = 1;
  }
}

DescendingSteps::DescendingSteps(const Grid& grid, const ScoringFunction& f) {
  std::int64_t stride = 1;
  for (int axis = grid.dim() - 1; axis >= 0; --axis) {
    step[axis] = f.direction(axis) == Monotonicity::kIncreasing ? -1 : +1;
    offset[axis] = step[axis] * stride;
    stride *= grid.cells_per_axis();
  }
}

CellIndex SeedCell(const Grid& grid, const ScoringFunction& f) {
  CellCoords coords{};
  for (int i = 0; i < grid.dim(); ++i) {
    coords[i] = f.direction(i) == Monotonicity::kIncreasing
                    ? grid.cells_per_axis() - 1
                    : 0;
  }
  return grid.Compose(coords);
}

CellIndex ConstrainedSeedCell(const Grid& grid, const ScoringFunction& f,
                              const Rect& constraint) {
  assert(constraint.dim() == grid.dim());
  const Point corner = f.BestCorner(constraint);
  CellCoords coords = grid.Decompose(grid.LocateCell(corner));
  // A corner lying exactly on a grid line can be located into the adjacent
  // cell that does not intersect the constraint (e.g. corner 0.6 on a
  // 10-cell axis: 0.6 * 10 rounds to 6 but cell 6 starts past the
  // constraint's hi of 0.6 - ulp). Nudge such coordinates back inside;
  // cell bounds are reproduced with the same arithmetic as CellBounds().
  const double delta = grid.delta();
  for (int i = 0; i < grid.dim(); ++i) {
    if (coords[i] > 0 && coords[i] * delta > constraint.hi()[i]) {
      --coords[i];
    } else if (coords[i] < grid.cells_per_axis() - 1 &&
               (coords[i] + 1) * delta < constraint.lo()[i]) {
      ++coords[i];
    }
  }
  return grid.Compose(coords);
}

MaxScoreTraversal::MaxScoreTraversal(const Grid& grid,
                                     const ScoringFunction& f,
                                     TraversalScratch* scratch,
                                     const Rect* constraint)
    : grid_(grid),
      f_(f),
      scratch_(scratch),
      heap_(scratch->heap()),
      steps_(grid, f),
      corner_(grid.dim()) {
  assert(f.dim() == grid.dim());
  scratch_->Reset(grid.num_cells());
  heap_.clear();
  // Corner tables (see the file comment). The cell bounds use the
  // arithmetic of Grid::CellBounds and the clipping that of the clipped
  // rectangle cell ∩ constraint, so every key is bitwise
  // f.MaxScore(clipped bounds).
  const int m = grid.cells_per_axis();
  const double delta = grid.delta();
  std::vector<double>& corners = scratch_->corners();
  std::vector<std::uint8_t>& meets = scratch_->meets();
  corners.resize(static_cast<std::size_t>(grid.dim()) * m);
  meets.resize(corners.size());
  for (int axis = 0; axis < grid.dim(); ++axis) {
    const bool increasing = steps_.step[axis] < 0;
    for (int c = 0; c < m; ++c) {
      const std::size_t slot = static_cast<std::size_t>(axis) * m + c;
      const double lo = c * delta;
      const double hi = std::min(1.0, (c + 1) * delta);
      if (constraint == nullptr) {
        corners[slot] = increasing ? hi : lo;
        meets[slot] = 1;
        continue;
      }
      const double clo = constraint->lo()[axis];
      const double chi = constraint->hi()[axis];
      meets[slot] = !(hi < clo || chi < lo);
      corners[slot] = increasing ? std::min(hi, chi) : std::max(lo, clo);
    }
  }
  corners_ = corners.data();
  meets_ = meets.data();
  // The cell containing the best corner of the constraint region has the
  // highest clipped maxscore (Figure 12 starts at c_{5,5}).
  const CellIndex seed = constraint == nullptr
                             ? SeedCell(grid, f)
                             : ConstrainedSeedCell(grid, f, *constraint);
  const CellCoords coords = grid.Decompose(seed);
  for (int axis = 0; axis < grid.dim(); ++axis) {
    if (!meets_[static_cast<std::size_t>(axis) * m + coords[axis]]) return;
  }
  scratch_->Mark(seed);
  LoadCorner(coords);
  Push(seed, f_.Score(corner_));
}

void MaxScoreTraversal::LoadCorner(const CellCoords& coords) {
  const std::size_t m = static_cast<std::size_t>(grid_.cells_per_axis());
  for (int axis = 0; axis < grid_.dim(); ++axis) {
    corner_[axis] = corners_[axis * m + coords[axis]];
  }
}

void MaxScoreTraversal::Push(CellIndex cell, double maxscore) {
  heap_.push_back(CellKey{cell, maxscore});
  std::push_heap(heap_.begin(), heap_.end(), HeapCompare{});
}

CellKey MaxScoreTraversal::Next() {
  assert(HasNext());
  std::pop_heap(heap_.begin(), heap_.end(), HeapCompare{});
  const CellKey top = heap_.back();
  heap_.pop_back();
  ++num_processed_;
  // En-heap the per-axis neighbors one step toward lower scores
  // (Figure 6, lines 9-12). The popped cell meets the constraint on every
  // axis, so a neighbor meets it iff it does on the axis it moved along,
  // and its best corner differs from the popped cell's in that coordinate
  // only.
  const CellCoords coords = grid_.Decompose(top.cell);
  LoadCorner(coords);
  const std::size_t m = static_cast<std::size_t>(grid_.cells_per_axis());
  for (int axis = 0; axis < grid_.dim(); ++axis) {
    CellIndex next = 0;
    if (!steps_.Neighbor(grid_, top.cell, coords, axis, &next)) continue;
    const std::size_t slot = axis * m + (coords[axis] + steps_.step[axis]);
    if (!meets_[slot] || !scratch_->Mark(next)) continue;
    const double own = corner_[axis];
    corner_[axis] = corners_[slot];
    Push(next, f_.Score(corner_));
    corner_[axis] = own;
  }
  return top;
}

const std::vector<CellIndex>& MaxScoreTraversal::RemainingFrontier() {
  std::vector<CellIndex>& frontier = scratch_->frontier();
  frontier.clear();
  for (const CellKey& e : heap_) frontier.push_back(e.cell);
  return frontier;
}

}  // namespace topkmon
