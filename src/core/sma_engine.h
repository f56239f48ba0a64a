// SMA — the Skyband Monitoring Algorithm (Section 5, Figure 11).
//
// SMA exploits the reduction of top-k monitoring to k-skyband maintenance
// in score-time space (Section 3.1): it keeps, per query, the k-skyband of
// the records inside the influence region. Arrivals scoring at least
// q.top_score (the kth score at the last from-scratch computation — a
// fixed threshold, unlike TMA's moving one) enter the skyband; expiring
// results are simply removed, and the next result is already present as
// the new first-k prefix. A from-scratch recomputation is needed only when
// the skyband itself drops below k entries, which under steady arrival
// rates essentially never happens — SMA's running-time advantage over TMA.

#ifndef TOPKMON_CORE_SMA_ENGINE_H_
#define TOPKMON_CORE_SMA_ENGINE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "core/piecewise_router.h"
#include "core/skyband.h"
#include "core/tma_engine.h"  // GridEngineOptions, GridWindow
#include "core/topk_compute.h"
#include "grid/cell_traversal.h"
#include "grid/grid.h"

namespace topkmon {

/// The Skyband Monitoring Algorithm.
class SmaEngine final : public MonitorEngine {
 public:
  explicit SmaEngine(const GridEngineOptions& options);

  std::string name() const override { return "SMA"; }
  int dim() const override { return grid_.dim(); }
  Status RegisterQuery(const QuerySpec& spec) override;
  Status UnregisterQuery(QueryId id) override;
  Status ProcessCycle(Timestamp now, RecordSpan arrivals) override;
  Result<std::vector<ResultEntry>> CurrentResult(QueryId id) const override;
  void SetDeltaCallback(DeltaCallback callback) override {
    delta_.SetCallback(std::move(callback));
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

  const Grid& grid() const { return grid_; }

  /// Average skyband cardinality across registered queries (Table 2).
  double AverageSkybandSize() const;

 private:
  struct QueryState {
    explicit QueryState(QuerySpec s) : spec(std::move(s)), skyband(spec.k) {}
    QuerySpec spec;
    Skyband skyband;
    /// kth score at the last from-scratch computation; fixed influence
    /// threshold until the next recomputation (Figure 11, line 7).
    double top_score = 0.0;
    bool changed = false;  ///< skyband mutated this cycle
  };

  /// Runs the computation module for `state`, refreshes its result and
  /// reconciles influence lists. `fresh` marks a newly registered query,
  /// which no cell carries yet: its processed cells get the id appended
  /// and the cleanup walk is skipped. Otherwise the processed cells are
  /// added idempotently and stale entries are cleaned from the frontier.
  void RecomputeFromScratch(QueryId id, QueryState& state, bool fresh);

  /// Pre-validated registration body; internal piecewise sub-queries
  /// skip the delta report (only the parent's merged result is visible).
  Status RegisterMonotone(const QuerySpec& spec, bool report_delta);
  Status RemoveMonotone(QueryId id);
  Status RegisterPiecewise(const QuerySpec& spec,
                           const PiecewiseFunction& fn);
  std::vector<ResultEntry> MergedPiecewise(const PiecewiseBook& book) const;

  Grid grid_;
  GridWindow window_;
  TraversalScratch scratch_;
  std::unordered_map<QueryId, QueryState> queries_;
  std::unordered_map<QueryId, PiecewiseBook> piecewise_;
  QueryId next_internal_id_ = kInternalQueryIdBase;
  EngineStats stats_;
  DeltaTracker delta_;
  Timestamp last_cycle_ = 0;
};

}  // namespace topkmon

#endif  // TOPKMON_CORE_SMA_ENGINE_H_
