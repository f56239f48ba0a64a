// TMA over update streams with explicit deletions (Section 7).
//
// When the stream issues explicit deletions, records no longer expire in
// FIFO order: the valid-record list is replaced by a RecordPool, cell
// point lists support positional removal, and SMA's skyband reduction is
// inapplicable (the expiry order is unknown in advance). TMA carries over
// directly (Section 7): insertions inside a query's influence region that
// beat its current kth score enter the top-k list; the deletion of a
// current result record marks the query as affected, and affected queries
// are recomputed from scratch at the end of the batch.

#ifndef TOPKMON_CORE_UPDATE_STREAM_ENGINE_H_
#define TOPKMON_CORE_UPDATE_STREAM_ENGINE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "core/query.h"
#include "core/tma_engine.h"  // GridEngineOptions
#include "grid/cell_traversal.h"
#include "grid/grid.h"
#include "stream/record_pool.h"
#include "stream/update_stream.h"

namespace topkmon {

/// Continuous top-k monitoring over an update stream (insertions plus
/// explicit deletions of arbitrary live records).
class UpdateStreamTmaEngine {
 public:
  /// `options.window` is ignored: validity is governed by explicit
  /// deletions, not a sliding window.
  explicit UpdateStreamTmaEngine(const GridEngineOptions& options);

  std::string name() const { return "TMA-upd"; }
  int dim() const { return grid_.dim(); }

  Status RegisterQuery(const QuerySpec& spec);
  Status UnregisterQuery(QueryId id);

  /// Applies one batch of interleaved insertions and deletions, then
  /// repairs every query whose result lost entries.
  Status ProcessBatch(const std::vector<UpdateOp>& ops);

  Result<std::vector<ResultEntry>> CurrentResult(QueryId id) const;

  std::size_t LiveCount() const { return pool_.size(); }
  const Grid& grid() const { return grid_; }
  const EngineStats& stats() const { return stats_; }
  MemoryBreakdown Memory() const;

 private:
  struct QueryState {
    explicit QueryState(QuerySpec s) : spec(std::move(s)), top_list(spec.k) {}
    QuerySpec spec;
    TopKList top_list;
    bool affected = false;  ///< a result record was deleted this batch
  };

  /// Recomputes `state` from scratch (core/influence.h) and installs the
  /// result in its top list.
  void Recompute(QueryState& state, bool fresh);

  Grid grid_;
  RecordPool pool_;
  TraversalScratch scratch_;
  std::unordered_map<QueryId, QueryState> queries_;
  EngineStats stats_;
};

}  // namespace topkmon

#endif  // TOPKMON_CORE_UPDATE_STREAM_ENGINE_H_
