// TSL — the Threshold Sorted List baseline (Section 3.2, Figure 3).
//
// TSL combines the Threshold Algorithm (for from-scratch top-k
// computation over d sorted attribute lists) with the materialized-view
// maintenance of Yi et al. (views of k' in [k, kmax] entries, refilled by
// a fresh TA run when k' drops below k). It is the paper's benchmark
// competitor, assembled from prior work: correct, but it must touch every
// query on every arrival and maintain d sorted lists on every update,
// which is what TMA/SMA's influence regions avoid.

#ifndef TOPKMON_TSL_TSL_ENGINE_H_
#define TOPKMON_TSL_TSL_ENGINE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "core/query_table.h"
#include "stream/sliding_window.h"
#include "tsl/sorted_lists.h"
#include "tsl/threshold_algorithm.h"
#include "tsl/topk_view.h"

namespace topkmon {

/// TSL engine configuration.
struct TslOptions {
  int dim = 2;
  WindowSpec window = WindowSpec::Count(1000);
  /// View slack; 0 selects the paper's fine-tuned DefaultKmax(k).
  int kmax_override = 0;
};

/// The Threshold Sorted List engine.
class TslEngine final : public MonitorEngine, private QueryTable::Entries {
 public:
  explicit TslEngine(const TslOptions& options);

  std::string name() const override { return "TSL"; }
  int dim() const override { return dim_; }
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
    return EngineSnapshot{
        last_cycle_, std::vector<Record>(window_.begin(), window_.end())};
  }
  const EngineStats& stats() const override { return stats_; }
  MemoryBreakdown Memory() const override;

  /// Average view cardinality k' across queries (Table 2).
  double AverageViewSize() const;

  /// Cumulative TA access counts (for analysis benches).
  std::uint64_t total_sorted_accesses() const { return sorted_accesses_; }
  std::uint64_t total_random_accesses() const { return random_accesses_; }

 private:
  struct QueryState {
    QueryState(QuerySpec s, int kmax)
        : spec(std::move(s)), view(spec.k, kmax) {}
    QuerySpec spec;
    TopKView view;
  };

  // QueryTable::Entries: one materialized view per monotone query.
  void AddEntry(const QuerySpec& spec) override;
  bool RemoveEntry(QueryId id) override { return queries_.erase(id) > 0; }
  bool HasEntry(QueryId id) const override { return queries_.count(id) > 0; }
  bool AppendTopK(QueryId id, std::vector<ResultEntry>* out) const override;
  void ReportEntries(QueryTable& table, Timestamp now) const override;

  void Refill(QueryState& state);

  int dim_;
  int kmax_override_;
  SlidingWindow window_;
  SortedAttributeLists lists_;
  std::unordered_map<QueryId, QueryState> queries_;
  QueryTable table_;
  EngineStats stats_;
  Timestamp last_cycle_ = 0;
  std::uint64_t sorted_accesses_ = 0;
  std::uint64_t random_accesses_ = 0;
};

}  // namespace topkmon

#endif  // TOPKMON_TSL_TSL_ENGINE_H_
