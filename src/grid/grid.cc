#include "grid/grid.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace topkmon {

void PointList::PushBack(RecordId id, const Point& p) {
  assert(p.dim() >= 1);
  assert(dim_ == 0 || p.dim() == dim_);
  if (dim_ == 0) dim_ = p.dim();
  const std::size_t idx = ids_.size();
  if (idx >= stride_) GrowLanes(idx + 1);
  ids_.push_back(id);
  for (int d = 0; d < dim_; ++d) {
    lanes_[static_cast<std::size_t>(d) * stride_ + idx] = p[d];
  }
}

void PointList::GrowLanes(std::size_t min_stride) {
  std::size_t stride = stride_ == 0 ? 16 : stride_ * 2;
  if (stride < min_stride) stride = min_stride;
  std::vector<double> lanes(static_cast<std::size_t>(dim_) * stride);
  // Copy each lane, dead head prefix included, so lane index i stays
  // aligned with ids_[i]. std::copy_n, unlike memcpy, accepts the null
  // source of the first growth.
  for (int d = 0; d < dim_; ++d) {
    std::copy_n(lanes_.data() + static_cast<std::size_t>(d) * stride_,
                ids_.size(),
                lanes.data() + static_cast<std::size_t>(d) * stride);
  }
  lanes_.swap(lanes);
  stride_ = stride;
}

void PointList::MaybeCompact() {
  // Compact once the dead prefix reaches the live size. A compaction moves
  // at most head_ entries, each popped once since the last one, so the
  // cost stays amortized O(1) while the list's extent stays within about
  // twice its live peak (and its doubling capacity within about 4x).
  if (head_ >= size()) {
    const std::size_t n = ids_.size() - head_;
    std::memmove(ids_.data(), ids_.data() + head_, n * sizeof(RecordId));
    ids_.resize(n);
    for (int d = 0; d < dim_; ++d) {
      double* lane = lanes_.data() + static_cast<std::size_t>(d) * stride_;
      std::memmove(lane, lane + head_, n * sizeof(double));
    }
    head_ = 0;
  }
}

bool PointList::Erase(RecordId id) {
  for (std::size_t i = head_; i < ids_.size(); ++i) {
    if (ids_[i] == id) {
      const std::size_t tail = ids_.size() - i - 1;
      std::memmove(ids_.data() + i, ids_.data() + i + 1,
                   tail * sizeof(RecordId));
      ids_.resize(ids_.size() - 1);
      for (int d = 0; d < dim_; ++d) {
        double* lane = lanes_.data() + static_cast<std::size_t>(d) * stride_;
        std::memmove(lane + i, lane + i + 1, tail * sizeof(double));
      }
      return true;
    }
  }
  return false;
}

Grid::Grid(int dim, int cells_per_axis)
    : dim_(dim),
      cells_per_axis_(cells_per_axis),
      delta_(1.0 / cells_per_axis) {
  assert(dim >= 1 && dim <= kMaxDims);
  assert(cells_per_axis >= 1);
  std::size_t n = 1;
  for (int i = 0; i < dim; ++i) n *= static_cast<std::size_t>(cells_per_axis);
  num_cells_ = n;
  cells_.resize(num_cells_);
}

int Grid::CellsPerAxisForBudget(int dim, std::size_t cell_budget) {
  assert(dim >= 1 && dim <= kMaxDims);
  assert(cell_budget >= 1);
  int per_axis = std::max(
      1, static_cast<int>(std::floor(std::pow(
             static_cast<double>(cell_budget), 1.0 / dim))));
  // Floating-point roots can land one off; correct upward then downward.
  auto total = [dim](int m) {
    std::size_t t = 1;
    for (int i = 0; i < dim; ++i) t *= static_cast<std::size_t>(m);
    return t;
  };
  while (total(per_axis + 1) <= cell_budget) ++per_axis;
  while (per_axis > 1 && total(per_axis) > cell_budget) --per_axis;
  return per_axis;
}

CellIndex Grid::LocateCell(const Point& p) const {
  assert(p.dim() == dim_);
  CellIndex index = 0;
  for (int i = 0; i < dim_; ++i) {
    int c = static_cast<int>(p[i] * cells_per_axis_);
    // Coordinate 1.0 belongs to the last cell.
    if (c >= cells_per_axis_) c = cells_per_axis_ - 1;
    if (c < 0) c = 0;
    index = index * static_cast<CellIndex>(cells_per_axis_) +
            static_cast<CellIndex>(c);
  }
  return index;
}

CellIndex Grid::Compose(const CellCoords& coords) const {
  CellIndex index = 0;
  for (int i = 0; i < dim_; ++i) {
    assert(coords[i] >= 0 && coords[i] < cells_per_axis_);
    index = index * static_cast<CellIndex>(cells_per_axis_) +
            static_cast<CellIndex>(coords[i]);
  }
  return index;
}

CellCoords Grid::Decompose(CellIndex cell) const {
  CellCoords coords{};
  for (int i = dim_ - 1; i >= 0; --i) {
    coords[i] = static_cast<std::int32_t>(
        cell % static_cast<CellIndex>(cells_per_axis_));
    cell /= static_cast<CellIndex>(cells_per_axis_);
  }
  return coords;
}

Rect Grid::CellBounds(CellIndex cell) const {
  const CellCoords coords = Decompose(cell);
  Point lo(dim_);
  Point hi(dim_);
  for (int i = 0; i < dim_; ++i) {
    lo[i] = coords[i] * delta_;
    hi[i] = std::min(1.0, (coords[i] + 1) * delta_);
  }
  return Rect(lo, hi);
}

Status Grid::ErasePoint(CellIndex cell, RecordId id) {
  if (!cells_[cell].points.Erase(id)) {
    return Status::NotFound("record " + std::to_string(id) +
                            " not in cell " + std::to_string(cell));
  }
  --num_points_;
  return Status::Ok();
}

std::size_t Grid::TotalInfluenceEntries() const {
  std::size_t total = 0;
  for (const Cell& c : cells_) total += c.influence.size();
  return total;
}

MemoryBreakdown Grid::Memory() const {
  MemoryBreakdown mb;
  mb.Add("grid_directory", cells_.capacity() * sizeof(Cell));
  std::size_t point_bytes = 0;
  std::size_t influence_bytes = 0;
  for (const Cell& c : cells_) {
    point_bytes += c.points.MemoryBytes();
    // Hash-set node: value + next pointer; buckets: one pointer each.
    influence_bytes +=
        c.influence.size() * (sizeof(QueryId) + sizeof(void*)) +
        c.influence.bucket_count() * sizeof(void*);
  }
  mb.Add("point_lists", point_bytes);
  mb.Add("influence_lists", influence_bytes);
  return mb;
}

}  // namespace topkmon
