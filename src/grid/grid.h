// Regular grid index with book-keeping (Section 4.1).
//
// The valid records are indexed by a regular grid over the unit workspace.
// Cell c_{i1,...,id} spans [i_j*delta, (i_j+1)*delta) per axis, so the cell
// covering a point is found in O(1). Each cell maintains:
//   * a point list — the valid records inside the cell, in arrival order.
//     In the append-only model insertions and deletions are FIFO, so the
//     list is a ring in one power-of-two block (ids, then one coordinate
//     lane per axis): O(1) amortized at both ends. The block doubles when
//     full and halves when a removal leaves it a quarter full, so its
//     capacity follows the cell's current live count, as the paper's
//     space model (each valid record once) asks, rather than its
//     all-time peak. The update-stream model (Section 7) deletes from
//     arbitrary positions; cells are small (N * delta^d points on
//     average), so a bounded linear scan replaces the paper's per-cell
//     hash table with the same expected cost and better locality.
//   * an influence list IL_c — the queries whose influence region
//     intersects the cell, as an unsorted vector. The paper asks for O(1)
//     expected updates. A query's first computation appends without a
//     find: its id is new, so no list carries it yet. A recomputation adds
//     idempotently with a linear find, and removal finds the entry and
//     swaps the last one into its place. A cell carries few queries, so
//     the finds cost less than a hash node and allocate nothing per entry;
//     near the best corner, where a list holds ~Q entries, they are O(Q).

#ifndef TOPKMON_GRID_GRID_H_
#define TOPKMON_GRID_GRID_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
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

/// FIFO point list: PushBack to insert, PopFront to expire, bounded-scan
/// Erase for update streams. The entries live in a ring inside one block
/// of capacity() slots, a power of two: capacity() ids followed by one
/// lane of capacity() coordinates per axis. PushBack doubles the block
/// when it is full. A removal that leaves at most a quarter of the block
/// live halves it, down to kShrinkFloor slots, so capacity() never
/// exceeds max(kShrinkFloor, 4 * size()). A resize leaves the list half
/// full, so at least capacity()/4 removals or capacity()/2 insertions
/// pass before the next one: both ends stay amortized O(1). A resize
/// moves the entries to a new block; pointers from ForEachRun do not
/// survive a PushBack, PopFront or Erase.
///
/// The structure-of-arrays lanes let the top-k scan batch-score a cell
/// with auto-vectorizable per-lane loops instead of chasing each record
/// through the window (grid entries grow from 8 to 8 + 8d bytes per point;
/// the paper's space numbers count only the ids). A wrapped ring holds
/// its entries in two contiguous runs; ForEachRun visits them in order.
class PointList {
 public:
  static constexpr std::uint32_t kInitialCapacity = 4;
  /// A removal never halves a block below this many slots. Sparse cells
  /// hold a few live entries each; with a floor of 4, bench_fig20_space's
  /// IND d=2 long run resized 2.6 times as often (164 against 62 per 1k
  /// records) to save 5.5 of 46.5 bytes per record.
  static constexpr std::uint32_t kShrinkFloor = 8;
  static_assert((kInitialCapacity & (kInitialCapacity - 1)) == 0 &&
                    (kShrinkFloor & (kShrinkFloor - 1)) == 0,
                "the ring indexes slots with a power-of-two mask");

  /// Forward iterator over the ids, oldest first.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = RecordId;
    using difference_type = std::ptrdiff_t;
    using pointer = const RecordId*;
    using reference = const RecordId&;

    const_iterator() = default;
    reference operator*() const { return ids_[pos_ & mask_]; }
    const_iterator& operator++() {
      ++pos_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++pos_;
      return old;
    }
    bool operator==(const const_iterator& o) const { return pos_ == o.pos_; }
    bool operator!=(const const_iterator& o) const { return pos_ != o.pos_; }

   private:
    friend class PointList;
    const_iterator(const RecordId* ids, std::uint32_t mask, std::uint32_t pos)
        : ids_(ids), mask_(mask), pos_(pos) {}

    const RecordId* ids_ = nullptr;
    std::uint32_t mask_ = 0;
    std::uint32_t pos_ = 0;  // head + offset, reduced modulo capacity on use
  };

  void PushBack(RecordId id, const Point& p);

  /// Removes the oldest entry, which must equal `id` (append-only model
  /// expires strictly FIFO within each cell).
  void PopFront(RecordId id) {
    assert(size_ > 0 && ids()[head_] == id);
    (void)id;
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
    if (ShouldShrink()) Resize(capacity_ / 2);
  }

  /// Removes `id` wherever it is (update-stream model); returns false if
  /// absent.
  bool Erase(RecordId id);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return capacity_; }

  /// Id of the i-th oldest entry. Requires i < size().
  RecordId IdAt(std::size_t i) const {
    assert(i < size_);
    return ids()[Slot(i)];
  }

  /// Coordinates of the i-th oldest entry. Requires i < size().
  Point PointAt(std::size_t i) const;

  const_iterator begin() const {
    return const_iterator(ids(), capacity_ - 1, head_);
  }
  const_iterator end() const {
    return const_iterator(ids(), capacity_ - 1, head_ + size_);
  }

  /// Calls fn(ids, lanes, n) for each contiguous run of entries, oldest
  /// first: one run, or two once the ring wraps. lanes[d][i] is coordinate
  /// d of ids[i], for d below the dimensionality of the inserted points.
  template <typename Fn>
  void ForEachRun(Fn&& fn) const {
    if (size_ == 0) return;
    const std::uint32_t first = std::min(size_, capacity_ - head_);
    const double* lanes[kMaxDims];
    for (int d = 0; d < dim_; ++d) lanes[d] = Lane(d) + head_;
    fn(ids() + head_, lanes, std::size_t{first});
    if (first == size_) return;
    for (int d = 0; d < dim_; ++d) lanes[d] = Lane(d);
    fn(ids(), lanes, std::size_t{size_ - first});
  }

  std::size_t MemoryBytes() const {
    return static_cast<std::size_t>(capacity_) *
           (sizeof(RecordId) + static_cast<std::size_t>(dim_) * sizeof(double));
  }

 private:
  RecordId* ids() const { return reinterpret_cast<RecordId*>(block_.get()); }
  /// Ring slot of the i-th oldest entry.
  std::uint32_t Slot(std::size_t i) const {
    return (head_ + static_cast<std::uint32_t>(i)) & (capacity_ - 1);
  }
  /// Slot 0 of coordinate lane d; the lanes follow the ids in the block.
  double* Lane(int d) const {
    return reinterpret_cast<double*>(block_.get() +
                                     capacity_ * sizeof(RecordId)) +
           static_cast<std::size_t>(d) * capacity_;
  }
  bool ShouldShrink() const {
    return capacity_ > kShrinkFloor && size_ <= capacity_ / 4;
  }
  /// Moves the entries into a new block of `capacity` slots, unwrapped:
  /// the oldest entry lands in slot 0.
  void Resize(std::uint32_t capacity);

  /// capacity_ ids, then dim_ lanes of capacity_ coordinates; null until
  /// the first PushBack.
  std::unique_ptr<unsigned char[]> block_;
  std::uint32_t capacity_ = 0;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  int dim_ = 0;
};

/// The grid index. Owns per-cell point lists (each valid record's id and
/// coordinates, 8 + 8d bytes per point) and influence lists. For TMA and
/// SMA the grid is the only store of ids and coordinates: their window
/// keeps just each record's cell and arrival, and their snapshot reads the
/// rest back from the point lists. The threshold monitor and the
/// update-stream engine keep whole records elsewhere (SlidingWindow,
/// RecordPool).
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
    PointList& points = cells_[cell].points;
    const std::size_t capacity = points.capacity();
    points.PushBack(id, p);
    point_list_resizes_ += points.capacity() != capacity;
    ++num_points_;
  }

  /// FIFO removal on expiration (append-only model). `id` must be the
  /// oldest entry of the cell.
  void ErasePointFifo(CellIndex cell, RecordId id) {
    PointList& points = cells_[cell].points;
    const std::size_t capacity = points.capacity();
    points.PopFront(id);
    point_list_resizes_ += points.capacity() != capacity;
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

  /// Point-list blocks allocated so far: every grow, a cell's first block
  /// included, and every shrink.
  std::uint64_t point_list_resizes() const { return point_list_resizes_; }

  // -- Influence lists -----------------------------------------------------

  /// Registers query `q` in IL_cell (idempotent).
  void AddInfluence(CellIndex cell, QueryId q) {
    std::vector<QueryId>& il = cells_[cell].influence;
    if (std::find(il.begin(), il.end(), q) == il.end()) il.push_back(q);
  }

  /// Registers query `q` in IL_cell, which must not carry it yet (a newly
  /// registered query's first computation); O(1), no find.
  void AppendInfluence(CellIndex cell, QueryId q) {
    assert(!HasInfluence(cell, q));
    cells_[cell].influence.push_back(q);
  }

  /// Removes query `q` from IL_cell; returns true iff it was present.
  bool RemoveInfluence(CellIndex cell, QueryId q);

  bool HasInfluence(CellIndex cell, QueryId q) const {
    const std::vector<QueryId>& il = cells_[cell].influence;
    return std::find(il.begin(), il.end(), q) != il.end();
  }

  /// The queries of IL_cell, in no particular order.
  const std::vector<QueryId>& InfluenceList(CellIndex cell) const {
    return cells_[cell].influence;
  }

  /// Sum of influence-list sizes across all cells (book-keeping volume).
  std::size_t TotalInfluenceEntries() const;

  /// Structure-size accounting for the space experiments (Figures 14b, 20):
  /// the bytes allocated for the cell directory, the point-list blocks and
  /// the influence-list vectors (allocator overhead excluded).
  MemoryBreakdown Memory() const;

 private:
  struct Cell {
    PointList points;
    std::vector<QueryId> influence;
  };

  int dim_;
  int cells_per_axis_;
  std::size_t num_cells_;
  double delta_;
  std::size_t num_points_ = 0;
  std::uint64_t point_list_resizes_ = 0;
  std::vector<Cell> cells_;
};

}  // namespace topkmon

#endif  // TOPKMON_GRID_GRID_H_
