// Query specifications, result lists and the query table entry types
// shared by all monitoring engines (Section 4.1).

#ifndef TOPKMON_CORE_QUERY_H_
#define TOPKMON_CORE_QUERY_H_

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/record.h"
#include "common/scoring.h"
#include "common/status.h"
#include "grid/grid.h"

namespace topkmon {

/// One entry of a top-k result: a record id and its score under the
/// query's preference function.
struct ResultEntry {
  RecordId id = kInvalidRecordId;
  double score = 0.0;

  friend bool operator==(const ResultEntry& a, const ResultEntry& b) {
    return a.id == b.id && a.score == b.score;
  }
};

/// Result ordering: descending score; ties broken by descending id so that
/// the most recent (latest-expiring) record ranks first among equals —
/// this keeps equal-score replacements from evicting the entry that was
/// just inserted.
inline bool ResultOrder(const ResultEntry& a, const ResultEntry& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.id > b.id;
}

/// First id of the range reserved for engine-internal sub-queries (the
/// pieces of a piecewise-monotone query, core/query_table.h). Every
/// engine refuses external registrations in [kInternalQueryIdBase, 2^32).
inline constexpr QueryId kInternalQueryIdBase = QueryId{1} << 31;

/// True for ids reserved for engine-internal sub-queries.
inline bool IsInternalQueryId(QueryId id) {
  return id >= kInternalQueryIdBase;
}

/// The query-id refusals, worded alike by every engine.
Status ReservedQueryIdError(QueryId id);   ///< InvalidArgument
Status DuplicateQueryIdError(QueryId id);  ///< AlreadyExists
Status UnknownQueryIdError(QueryId id);    ///< NotFound

/// A continuous top-k monitoring query as registered by a client:
/// identifier, result cardinality k, monotone preference function, and an
/// optional constraint region (constrained top-k, Section 7).
struct QuerySpec {
  QueryId id = 0;
  int k = 1;
  std::shared_ptr<const ScoringFunction> function;
  std::optional<Rect> constraint;

  /// Validates the spec against an engine of dimensionality `dim`.
  Status Validate(int dim) const;
};

/// The current top-k set of a query (q.top_list in the paper), kept sorted
/// by ResultOrder with at most k entries.
class TopKList {
 public:
  explicit TopKList(int k) : k_(k) { entries_.reserve(k); }

  int k() const { return k_; }
  std::size_t size() const { return entries_.size(); }
  bool full() const { return static_cast<int>(entries_.size()) == k_; }

  /// Score of the kth (worst) entry; -infinity while the list holds fewer
  /// than k entries. This is q.top_score, which implicitly defines the
  /// query's influence region (Section 4.1).
  double KthScore() const {
    return full() ? entries_.back().score
                  : -std::numeric_limits<double>::infinity();
  }

  /// Inserts a candidate if it qualifies (list not full, or score >= the
  /// current kth score), evicting the worst entry on overflow. Returns
  /// true iff the list changed.
  bool Consider(RecordId id, double score);

  /// Removes the entry with this id if present; returns true iff removed.
  bool Remove(RecordId id);

  bool Contains(RecordId id) const;

  /// Entries in ResultOrder (best first).
  const std::vector<ResultEntry>& entries() const { return entries_; }

  /// Moves the entries out, leaving the list empty.
  std::vector<ResultEntry> TakeEntries() {
    std::vector<ResultEntry> out = std::move(entries_);
    entries_.clear();
    return out;
  }

  void Clear() { entries_.clear(); }

  std::size_t MemoryBytes() const { return VectorBytes(entries_); }

 private:
  int k_;
  std::vector<ResultEntry> entries_;
};

}  // namespace topkmon

#endif  // TOPKMON_CORE_QUERY_H_
