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
#include "core/query_table.h"
#include "core/skyband.h"
#include "core/tma_engine.h"  // GridEngineOptions, GridWindow
#include "core/topk_compute.h"
#include "grid/cell_traversal.h"
#include "grid/grid.h"

namespace topkmon {

/// The Skyband Monitoring Algorithm.
class SmaEngine final : public MonitorEngine, private QueryTable::Entries {
 public:
  explicit SmaEngine(const GridEngineOptions& options);

  std::string name() const override { return "SMA"; }
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

  // QueryTable::Entries: one skyband per monotone query.
  void AddEntry(const QuerySpec& spec) override;
  bool RemoveEntry(QueryId id) override;
  bool HasEntry(QueryId id) const override { return queries_.count(id) > 0; }
  bool AppendTopK(QueryId id, std::vector<ResultEntry>* out) const override;
  void ReportEntries(QueryTable& table, Timestamp now) const override;

  /// Recomputes `state` from scratch (core/influence.h), rebuilds its
  /// skyband from the result and resets its influence threshold.
  void Recompute(QueryState& state, bool fresh);

  Grid grid_;
  GridWindow window_;
  TraversalScratch scratch_;
  std::unordered_map<QueryId, QueryState> queries_;
  QueryTable table_;
  EngineStats stats_;
  Timestamp last_cycle_ = 0;
};

}  // namespace topkmon

#endif  // TOPKMON_CORE_SMA_ENGINE_H_
