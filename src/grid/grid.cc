#include "grid/grid.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace topkmon {

void PointList::PushBack(RecordId id, const Point& p) {
  assert(p.dim() >= 1);
  assert(dim_ == 0 || p.dim() == dim_);
  if (dim_ == 0) dim_ = p.dim();
  if (size_ == capacity_) {
    Resize(capacity_ == 0 ? kInitialCapacity : 2 * capacity_);
  }
  const std::uint32_t slot = (head_ + size_) & (capacity_ - 1);
  ids()[slot] = id;
  for (int d = 0; d < dim_; ++d) Lane(d)[slot] = p[d];
  ++size_;
}

Point PointList::PointAt(std::size_t i) const {
  assert(i < size_);
  const std::uint32_t slot = Slot(i);
  Point p(dim_);
  for (int d = 0; d < dim_; ++d) p[d] = Lane(d)[slot];
  return p;
}

void PointList::Resize(std::uint32_t capacity) {
  assert(size_ <= capacity);
  std::unique_ptr<unsigned char[]> block(new unsigned char[
      static_cast<std::size_t>(capacity) *
      (sizeof(RecordId) + static_cast<std::size_t>(dim_) * sizeof(double))]);
  const std::uint32_t first = std::min(size_, capacity_ - head_);
  const std::uint32_t second = size_ - first;
  RecordId* to_ids = reinterpret_cast<RecordId*>(block.get());
  double* to_lanes = reinterpret_cast<double*>(to_ids + capacity);
  std::copy_n(ids() + head_, first, to_ids);
  std::copy_n(ids(), second, to_ids + first);
  for (int d = 0; d < dim_; ++d) {
    double* to = to_lanes + static_cast<std::size_t>(d) * capacity;
    std::copy_n(Lane(d) + head_, first, to);
    std::copy_n(Lane(d), second, to + first);
  }
  block_ = std::move(block);
  capacity_ = capacity;
  head_ = 0;
}

bool PointList::Erase(RecordId id) {
  const std::uint32_t mask = capacity_ - 1;
  std::uint32_t i = 0;
  RecordId* const slots = ids();
  while (i < size_ && slots[(head_ + i) & mask] != id) ++i;
  if (i == size_) return false;
  // Close the gap by moving every younger entry one slot toward the head.
  for (; i + 1 < size_; ++i) {
    const std::uint32_t to = (head_ + i) & mask;
    const std::uint32_t from = (to + 1) & mask;
    slots[to] = slots[from];
    for (int d = 0; d < dim_; ++d) Lane(d)[to] = Lane(d)[from];
  }
  --size_;
  if (ShouldShrink()) Resize(capacity_ / 2);
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

Status Grid::ErasePoint(CellIndex cell, RecordId id) {
  PointList& points = cells_[cell].points;
  const std::size_t capacity = points.capacity();
  if (!points.Erase(id)) {
    return Status::NotFound("record " + std::to_string(id) +
                            " not in cell " + std::to_string(cell));
  }
  point_list_resizes_ += points.capacity() != capacity;
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
