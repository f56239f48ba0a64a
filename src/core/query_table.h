// The query table shared by TMA, SMA and TSL.
//
// In the paper TMA (Figure 9) and SMA (Figure 11) differ only in how they
// keep one query's result; TSL differs in the same place. Each engine
// therefore keeps, per monotone query, only what its algorithm needs
// (TMA's top list, SMA's skyband, TSL's view and kmax) in its own hash
// table, and exposes that table through QueryTable::Entries. The
// QueryTable owns everything else about queries:
//   * registration checks: spec validation, the reserved id range,
//     duplicate ids, and functions that are neither monotone nor
//     piecewise-monotone (refused as Unimplemented, naming the engine);
//   * the piecewise decomposition of Section 9: a spec whose function is
//     a PiecewiseFunction (core/piecewise.h) becomes one constrained
//     monotone sub-query per piece, each piece's domain clipped by the
//     parent's constraint region. Sub-queries draw their ids from the
//     reserved upper half of the QueryId space (kInternalQueryIdBase,
//     core/query.h); the parent's result is the merge of theirs;
//   * unregistration (a parent takes its sub-queries with it);
//   * CurrentResult, and the delta reports at registration and at the end
//     of every cycle.
// External registrations in the reserved range are refused, internal ids
// read as NotFound, and deltas are reported for parents only, so the
// decomposition never leaks to callers. ShardedEngine inherits all of
// this by forwarding specs to its inner engines.
//
// BruteForceEngine keeps its own table: it is the judge of every engine's
// results and must not share the bookkeeping it judges. It shares only
// the id space and the refusal wording of core/query.h.

#ifndef TOPKMON_CORE_QUERY_TABLE_H_
#define TOPKMON_CORE_QUERY_TABLE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "core/delta.h"
#include "core/piecewise.h"
#include "core/query.h"

namespace topkmon {

/// Query ids, piecewise decomposition and delta reports of one engine.
class QueryTable {
 public:
  /// The engine's side: its per-query state, keyed by query id. Every id
  /// passed in names a monotone query, external or internal.
  class Entries {
   public:
    /// Builds the entry of a validated monotone spec whose id is free and
    /// computes its initial result over the current window.
    virtual void AddEntry(const QuerySpec& spec) = 0;
    /// Removes the entry of `id`; false if there is none.
    virtual bool RemoveEntry(QueryId id) = 0;
    virtual bool HasEntry(QueryId id) const = 0;
    /// Appends the current top-k of entry `id` to *out; false if there is
    /// no such entry.
    virtual bool AppendTopK(QueryId id,
                            std::vector<ResultEntry>* out) const = 0;
    /// Calls table.ReportEntry(id, now, top-k) once per external entry,
    /// in one walk of the engine's table. Internal piecewise sub-queries
    /// are skipped before their top-k is built (their parent reports
    /// them).
    virtual void ReportEntries(QueryTable& table, Timestamp now) const = 0;

   protected:
    ~Entries() = default;
  };

  /// `engine` names the engine in refusals; `entries` must outlive the
  /// table.
  QueryTable(std::string engine, int dim, Entries* entries)
      : engine_(std::move(engine)), dim_(dim), entries_(entries) {}
  /// A copy would still point at the original engine's entries.
  QueryTable(const QueryTable&) = delete;
  QueryTable& operator=(const QueryTable&) = delete;

  /// Registers `spec` and reports its initial result at time `now`.
  Status Register(const QuerySpec& spec, Timestamp now);
  Status Unregister(QueryId id);
  Result<std::vector<ResultEntry>> CurrentResult(QueryId id) const;

  void SetDeltaCallback(DeltaCallback callback) {
    delta_.SetCallback(std::move(callback));
  }
  /// End of a cycle: reports every external query whose result changed.
  void ReportCycle(Timestamp now);
  /// One external entry's result, from Entries::ReportEntries
  /// (sub-queries are reported through their parent instead).
  void ReportEntry(QueryId id, Timestamp now,
                   const std::vector<ResultEntry>& top_k);

 private:
  /// A piecewise parent: its result size and the internal ids of its
  /// sub-queries (empty when every piece misses the constraint region).
  struct Parent {
    int k = 0;
    std::vector<QueryId> subs;
  };

  /// Builds the constrained monotone sub-specs of `spec`, drawing fresh
  /// internal ids. Pieces that miss the constraint region yield none.
  /// Fails if a piece's function is itself non-monotone.
  Result<std::vector<QuerySpec>> DecomposePiecewise(
      const QuerySpec& spec, const PiecewiseFunction& fn);
  /// The parent's global top-k: its subs' results in ResultOrder, a
  /// boundary record reported by several pieces (with bit-identical
  /// scores: the pieces agree on shared boundaries) kept once, cut to k.
  std::vector<ResultEntry> Merged(const Parent& parent) const;

  std::string engine_;
  int dim_;
  Entries* entries_;
  std::unordered_map<QueryId, Parent> parents_;
  QueryId next_internal_id_ = kInternalQueryIdBase;
  DeltaTracker delta_;
};

}  // namespace topkmon

#endif  // TOPKMON_CORE_QUERY_TABLE_H_
