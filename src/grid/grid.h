// Regular grid index with book-keeping (Section 4.1).
//
// The valid records are indexed by a regular grid over the unit workspace.
// Cell c_{i1,...,id} spans [i_j*delta, (i_j+1)*delta) per axis, so the cell
// covering a point is found in O(1). Each cell maintains:
//   * a point list — the valid records inside the cell, in arrival order,
//     as 4-byte handles into the engine's one store of records (a
//     PointStore: the arrival-ordered window of TMA and SMA, the record
//     pool of the update-stream engine), so each record's coordinates are
//     kept once, as the paper's space model (Section 6) counts them. In
//     the append-only model insertions and deletions are FIFO, so the
//     list is a ring of handles: O(1) amortized at both ends. Up to two
//     handles sit inline in the cell; a third moves them to a
//     power-of-two block, which doubles when full, halves when a removal
//     leaves it a quarter full, and is freed when the cell empties, so
//     its capacity follows the cell's current live count rather than its
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
/// Erase for update streams. The entries are the handles of the cell's
/// records (PointHandle), in a ring of capacity() slots, a power of two:
/// kInlineCapacity slots inside the list itself, or one heap block. A
/// PushBack into a full ring moves it to a block of twice the slots. A
/// removal that leaves at most a quarter of a block live halves it, down
/// to kShrinkFloor slots, and one that empties the list frees it, so
/// capacity() never exceeds max(kShrinkFloor, 4 * size()) and an empty
/// list holds no block. A resize leaves the ring half full, so at least
/// capacity()/4 removals or capacity()/2 insertions pass before the next
/// one: both ends stay amortized O(1). A cell whose count moves between 0
/// and kInlineCapacity allocates nothing; one drained from a block must
/// refill past kInlineCapacity before it allocates again. A resize moves
/// the entries; pointers from ForEachRun do not survive a PushBack,
/// PopFront or Erase. A wrapped ring holds its entries in two contiguous
/// runs; ForEachRun visits them in order.
class PointList {
 public:
  /// Handles held without a block, in the bytes of the block pointer.
  static constexpr std::uint32_t kInlineCapacity = 2;
  /// Slots of the first block, which the first handle past the inline
  /// ones allocates.
  static constexpr std::uint32_t kInitialCapacity = 2 * kInlineCapacity;
  /// A removal never halves a block below this many slots. Sparse cells
  /// hold a few live entries each; with a floor of 4, bench_fig20_space's
  /// IND d=2 long run resized 2.6 times as often (164 against 62 per 1k
  /// records), and a floor of 4 handles saves at most 16 bytes a cell.
  static constexpr std::uint32_t kShrinkFloor = 8;
  static_assert((kInlineCapacity & (kInlineCapacity - 1)) == 0 &&
                    (kShrinkFloor & (kShrinkFloor - 1)) == 0,
                "the ring indexes slots with a power-of-two mask");
  static_assert(kInlineCapacity * sizeof(PointHandle) <= sizeof(PointHandle*),
                "the inline slots share the block pointer's bytes");

  /// Forward iterator over the handles, oldest first.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = PointHandle;
    using difference_type = std::ptrdiff_t;
    using pointer = const PointHandle*;
    using reference = const PointHandle&;

    const_iterator() = default;
    reference operator*() const { return slots_[pos_ & mask_]; }
    const_iterator& operator++() {
      ++pos_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator prev = *this;
      ++pos_;
      return prev;
    }
    bool operator==(const const_iterator& o) const { return pos_ == o.pos_; }
    bool operator!=(const const_iterator& o) const { return pos_ != o.pos_; }

   private:
    friend class PointList;
    const_iterator(const PointHandle* slots, std::uint32_t mask,
                   std::uint32_t pos)
        : slots_(slots), mask_(mask), pos_(pos) {}

    const PointHandle* slots_ = nullptr;
    std::uint32_t mask_ = 0;
    std::uint32_t pos_ = 0;  // head + offset, reduced modulo capacity on use
  };

  PointList() = default;
  PointList(PointList&& other) noexcept
      : ring_(other.ring_),
        capacity_(other.capacity_),
        head_(other.head_),
        size_(other.size_) {
    other.capacity_ = kInlineCapacity;
    other.head_ = 0;
    other.size_ = 0;
  }
  PointList& operator=(PointList&&) = delete;
  ~PointList() { FreeBlock(); }

  void PushBack(PointHandle handle) {
    if (size_ == capacity_) Resize(2 * capacity_);
    slots()[(head_ + size_) & (capacity_ - 1)] = handle;
    ++size_;
  }

  /// Removes the oldest entry, which must equal `handle` (append-only
  /// model expires strictly FIFO within each cell).
  void PopFront(PointHandle handle) {
    assert(size_ > 0 && slots()[head_] == handle);
    (void)handle;
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
    AfterRemoval();
  }

  /// Removes `handle` wherever it is (update-stream model); returns false
  /// if absent.
  bool Erase(PointHandle handle);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return capacity_; }

  const_iterator begin() const {
    return const_iterator(slots(), capacity_ - 1, head_);
  }
  const_iterator end() const {
    return const_iterator(slots(), capacity_ - 1, head_ + size_);
  }

  /// Calls fn(handles, n) for each contiguous run of entries, oldest
  /// first: one run, or two once the ring wraps.
  template <typename Fn>
  void ForEachRun(Fn&& fn) const {
    if (size_ == 0) return;
    const std::uint32_t first = std::min(size_, capacity_ - head_);
    fn(slots() + head_, std::size_t{first});
    if (first == size_) return;
    fn(slots(), std::size_t{size_ - first});
  }

  /// Bytes of the heap block; the inline slots are part of the list.
  std::size_t MemoryBytes() const {
    return has_block() ? std::size_t{capacity_} * sizeof(PointHandle) : 0;
  }

 private:
  bool has_block() const { return capacity_ > kInlineCapacity; }
  PointHandle* slots() { return has_block() ? ring_.block : ring_.inline_slots; }
  const PointHandle* slots() const {
    return has_block() ? ring_.block : ring_.inline_slots;
  }
  void FreeBlock() {
    if (has_block()) delete[] ring_.block;
  }
  /// Frees the block of an emptied list, or halves one that a removal
  /// left at most a quarter full.
  void AfterRemoval() {
    if (size_ == 0) {
      FreeBlock();
      capacity_ = kInlineCapacity;
      head_ = 0;
    } else if (capacity_ > kShrinkFloor && size_ <= capacity_ / 4) {
      Resize(capacity_ / 2);
    }
  }
  /// Moves the entries into a new block of `capacity` slots, unwrapped:
  /// the oldest entry lands in slot 0.
  void Resize(std::uint32_t capacity);

  union Ring {
    PointHandle* block;                          ///< iff has_block()
    PointHandle inline_slots[kInlineCapacity];  ///< otherwise
  };
  Ring ring_ = {};
  std::uint32_t capacity_ = kInlineCapacity;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
};

/// The grid index. Owns per-cell point lists (each valid record's handle,
/// 4 bytes per point) and influence lists. The records themselves, with
/// their ids and coordinates, live once in the engine's PointStore: the
/// window of TMA and SMA (core/tma_engine.h), the RecordPool of the
/// update-stream engine, the SlidingWindow of the threshold monitor.
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

  /// Appends the record with `handle`, whose point LocateCell maps to
  /// `cell`, to the point list of `cell` (arrival).
  void InsertPoint(CellIndex cell, PointHandle handle) {
    PointList& points = cells_[cell].points;
    const std::size_t capacity = points.capacity();
    points.PushBack(handle);
    CountResize(points, capacity);
    ++num_points_;
  }

  /// FIFO removal on expiration (append-only model). `handle` must be the
  /// oldest entry of the cell.
  void ErasePointFifo(CellIndex cell, PointHandle handle) {
    PointList& points = cells_[cell].points;
    const std::size_t capacity = points.capacity();
    points.PopFront(handle);
    CountResize(points, capacity);
    --num_points_;
  }

  /// Positional removal (update-stream model). Returns NotFound if the
  /// handle is not in the cell.
  Status ErasePoint(CellIndex cell, PointHandle handle);

  /// The point list of a cell (oldest first).
  const PointList& PointsIn(CellIndex cell) const {
    return cells_[cell].points;
  }

  /// Total number of indexed points.
  std::size_t num_points() const { return num_points_; }

  /// Point-list blocks allocated so far: every grow, a cell's first block
  /// included, and every shrink. Freeing an emptied list's block
  /// allocates nothing and is not counted.
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
  /// Counts the block an insertion or removal allocated, if any.
  void CountResize(const PointList& points, std::size_t old_capacity) {
    point_list_resizes_ +=
        points.capacity() != old_capacity && points.MemoryBytes() > 0;
  }

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
