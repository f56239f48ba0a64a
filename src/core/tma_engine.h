// TMA — the Top-k Monitoring Algorithm (Section 4, Figure 9).
//
// TMA maintains each query's exact top-k list incrementally:
//   * arrivals inside a query's influence region that score at least
//     q.top_score enter the top-k list directly (possibly evicting the
//     current kth entry);
//   * expirations of current result records mark the query as affected;
//     after the cycle's updates, affected queries are recomputed from
//     scratch by the top-k computation module, followed by the lazy
//     influence-list reconciliation walk.
// Arrivals are processed before expirations so that a replacement arriving
// in the same cycle avoids a needless recomputation (Section 4.3).
//
// TMA and SMA keep each valid record once, in a GridWindow: an
// arrival-ordered store of each record's arrival, cell and d coordinates
// in fixed-size chunks, 12 + 8d bytes a record. The grid's cells list
// 4-byte handles into it, and a top-k scan gathers a cell's coordinates
// from it; a snapshot walks it in order.

#ifndef TOPKMON_CORE_TMA_ENGINE_H_
#define TOPKMON_CORE_TMA_ENGINE_H_

#include <cassert>
#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "core/query_table.h"
#include "core/topk_compute.h"
#include "grid/cell_traversal.h"
#include "grid/grid.h"
#include "stream/sliding_window.h"

namespace topkmon {

/// Configuration shared by the grid-based engines.
struct GridEngineOptions {
  int dim = 2;
  WindowSpec window = WindowSpec::Count(1000);
  /// Total cell budget; per-axis resolution is budget^(1/dim) as in the
  /// paper's granularity experiment (Figure 14; 12^4 is the tuned value).
  std::size_t cell_budget = 20736;
  /// Overrides cell_budget with an explicit per-axis resolution when > 0.
  int cells_per_axis = 0;
  /// Process Pins before Pdel (Section 4.3's ordering, the default).
  /// Setting this to false processes expirations first — correct but
  /// wasteful, because an arrival that would have replaced an expiring
  /// result record no longer pre-empts the recomputation. Exists for the
  /// ordering ablation benchmark.
  bool arrivals_before_expirations = true;

  int ResolvedCellsPerAxis() const;
};

/// The valid records of a TMA or SMA engine, oldest first: each one's
/// arrival, cell and coordinates, the only copy of them the engine keeps
/// (its PointStore). The grid's cells list the records by WindowHandle,
/// the low 32 bits of the id: ids in a window are consecutive, so the
/// oldest id fixes the rest. No id is stored. Records sit in chunks of
/// kChunkRecords, one lane per field: arrivals, coordinates (a record's d
/// values side by side, so a gather reads one cache line) and cells, which
/// is 12 + 8d bytes a record. A chunk is allocated when the newest one is
/// full and freed when its last record expires, so the chunks hold the
/// live records plus less than one chunk of slack at each end.
class GridWindow final : public WindowRules, public PointStore {
 public:
  static constexpr std::size_t kChunkRecords = 512;

  GridWindow(const WindowSpec& spec, int dim)
      : WindowRules(spec), dim_(dim) {}

  /// Admits record `id`, which arrived at `arrival` at `position`, in
  /// grid cell `cell` (see WindowRules::Admit).
  Status Push(RecordId id, Timestamp arrival, CellIndex cell,
              const Point& position);

  /// Pops every record that has expired at `now` and is older than record
  /// `end_id`, oldest first, calling fn(id, cell) before each pop.
  template <typename Fn>
  void PopExpired(Timestamp now, Fn&& fn,
                  RecordId end_id = kInvalidRecordId) {
    while (!empty() && FrontExpired(Arrivals(0)[head_], now, end_id)) {
      fn(front_id(), Cells(0)[head_]);
      PopFront();
    }
  }

  /// The grid cell of a valid record. Requires Contains(id).
  CellIndex CellOf(RecordId id) const {
    assert(Contains(id));
    const std::size_t at = head_ + static_cast<std::size_t>(id - front_id());
    return Cells(at / kChunkRecords)[at % kChunkRecords];
  }

  int dim() const { return dim_; }

  /// Calls fn(id, arrival, coords) for every valid record, oldest first;
  /// coords points at the record's d coordinates.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    RecordId id = front_id();
    for (std::size_t at = head_; at < head_ + size(); ++at, ++id) {
      const std::size_t chunk = at / kChunkRecords;
      const std::size_t slot = at % kChunkRecords;
      fn(id, Arrivals(chunk)[slot],
         Coords(chunk) + slot * static_cast<std::size_t>(dim_));
    }
  }

  void Gather(const PointHandle* handles, std::size_t n, RecordId* ids,
              double* const* lanes) const override;

  /// Bytes of the allocated chunks.
  std::size_t MemoryBytes() const { return chunks_.size() * ChunkBytes(); }

 private:
  std::size_t ChunkBytes() const {
    return kChunkRecords * (sizeof(Timestamp) +
                            static_cast<std::size_t>(dim_) * sizeof(double) +
                            sizeof(CellIndex));
  }
  Timestamp* Arrivals(std::size_t chunk) const {
    return reinterpret_cast<Timestamp*>(chunks_[chunk].get());
  }
  double* Coords(std::size_t chunk) const {
    return reinterpret_cast<double*>(chunks_[chunk].get() +
                                     kChunkRecords * sizeof(Timestamp));
  }
  CellIndex* Cells(std::size_t chunk) const {
    return reinterpret_cast<CellIndex*>(
        chunks_[chunk].get() +
        kChunkRecords * (sizeof(Timestamp) +
                         static_cast<std::size_t>(dim_) * sizeof(double)));
  }
  /// Drops the oldest record, and its chunk once that is empty.
  void PopFront();

  /// Oldest chunk first; slot head_ of the first holds the oldest record.
  std::deque<std::unique_ptr<unsigned char[]>> chunks_;
  std::size_t head_ = 0;
  int dim_;
};

/// Walks the valid records oldest first, straight from the window.
void VisitGridWindow(const GridWindow& window, Timestamp last_cycle,
                     WindowVisitor& visitor);

/// The Top-k Monitoring Algorithm.
class TmaEngine final : public MonitorEngine, private QueryTable::Entries {
 public:
  explicit TmaEngine(const GridEngineOptions& options);

  std::string name() const override { return "TMA"; }
  int dim() const override { return grid_.dim(); }
  Status RegisterQuery(const QuerySpec& spec) override {
    return table_.Register(spec, last_cycle_);
  }
  Status UnregisterQuery(QueryId id) override {
    return table_.Unregister(id);
  }
  Status ProcessCycle(Timestamp now, RecordSpan arrivals) override;
  Result<std::vector<ResultEntry>> CurrentResult(QueryId id) const override {
    return table_.CurrentResult(id);
  }
  void SetDeltaCallback(DeltaCallback callback) override {
    table_.SetDeltaCallback(std::move(callback));
  }
  std::size_t WindowSize() const override { return window_.size(); }
  Result<EngineSnapshot> SnapshotState() const override {
    return SnapshotFromWalk(*this);
  }
  Status VisitWindow(WindowVisitor& visitor) const override {
    VisitGridWindow(window_, last_cycle_, visitor);
    return Status::Ok();
  }
  const EngineStats& stats() const override { return stats_; }
  MemoryBreakdown Memory() const override;

  /// Grid resolution actually in use (for the granularity experiment).
  const Grid& grid() const { return grid_; }

 private:
  struct QueryState {
    explicit QueryState(QuerySpec s) : spec(std::move(s)), top_list(spec.k) {}
    QuerySpec spec;
    TopKList top_list;
    bool affected = false;  ///< a result record expired this cycle
  };

  // QueryTable::Entries: one top list per monotone query.
  void AddEntry(const QuerySpec& spec) override;
  bool RemoveEntry(QueryId id) override;
  bool HasEntry(QueryId id) const override { return queries_.count(id) > 0; }
  bool AppendTopK(QueryId id, std::vector<ResultEntry>* out) const override;
  void ReportEntries(QueryTable& table, Timestamp now) const override;

  /// Recomputes `state` from scratch (core/influence.h) and installs the
  /// result in its top list.
  void Recompute(QueryState& state, bool fresh);

  void HandleArrival(const Record& p, CellIndex cell);
  void HandleExpiry(RecordId id, CellIndex cell);

  bool arrivals_first_;
  Grid grid_;
  GridWindow window_;
  TraversalScratch scratch_;
  std::unordered_map<QueryId, QueryState> queries_;
  QueryTable table_;
  EngineStats stats_;
  Timestamp last_cycle_ = 0;
};

}  // namespace topkmon

#endif  // TOPKMON_CORE_TMA_ENGINE_H_
