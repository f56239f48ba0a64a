#include "grid/grid.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace topkmon {

void PointList::Resize(std::uint32_t capacity) {
  assert(size_ <= capacity && capacity > kInlineCapacity);
  PointHandle* block = new PointHandle[capacity];
  const PointHandle* from = slots();
  const std::uint32_t first = std::min(size_, capacity_ - head_);
  std::copy_n(from + head_, first, block);
  std::copy_n(from, size_ - first, block + first);
  FreeBlock();
  ring_.block = block;
  capacity_ = capacity;
  head_ = 0;
}

bool PointList::Erase(PointHandle handle) {
  const std::uint32_t mask = capacity_ - 1;
  std::uint32_t i = 0;
  PointHandle* const ring = slots();
  while (i < size_ && ring[(head_ + i) & mask] != handle) ++i;
  if (i == size_) return false;
  // Close the gap by moving every younger entry one slot toward the head.
  for (; i + 1 < size_; ++i) {
    const std::uint32_t to = (head_ + i) & mask;
    ring[to] = ring[(to + 1) & mask];
  }
  --size_;
  AfterRemoval();
  return true;
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

Status Grid::ErasePoint(CellIndex cell, PointHandle handle) {
  PointList& points = cells_[cell].points;
  const std::size_t capacity = points.capacity();
  if (!points.Erase(handle)) {
    return Status::NotFound("handle " + std::to_string(handle) +
                            " not in cell " + std::to_string(cell));
  }
  CountResize(points, capacity);
  --num_points_;
  return Status::Ok();
}

bool Grid::RemoveInfluence(CellIndex cell, QueryId q) {
  std::vector<QueryId>& il = cells_[cell].influence;
  const auto it = std::find(il.begin(), il.end(), q);
  if (it == il.end()) return false;
  *it = il.back();
  il.pop_back();
  return true;
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
    influence_bytes += VectorBytes(c.influence);
  }
  mb.Add("point_lists", point_bytes);
  mb.Add("influence_lists", influence_bytes);
  return mb;
}

}  // namespace topkmon
