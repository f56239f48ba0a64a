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

#ifndef TOPKMON_CORE_TMA_ENGINE_H_
#define TOPKMON_CORE_TMA_ENGINE_H_

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

/// A valid record in a grid engine's window. The grid's point lists hold
/// its id and coordinates; the window keeps only the cell to find them in.
struct GridWindowEntry {
  Timestamp arrival;
  CellIndex cell;
};
static_assert(sizeof(GridWindowEntry) <= 16, "one window entry per record");

using GridWindow = WindowFifo<GridWindowEntry>;

/// Walks the valid records oldest first, reading each from the grid: the
/// k-th entry of `window` in a cell is the k-th oldest entry of that
/// cell's point list, because both keep arrival order.
void VisitGridWindow(const Grid& grid, const GridWindow& window,
                     Timestamp last_cycle, WindowVisitor& visitor);

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
    VisitGridWindow(grid_, window_, last_cycle_, visitor);
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
