// Per-client sessions and admission control (service layer).
//
// A session is the unit of ownership in the multi-client service: every
// continuous query is registered on behalf of exactly one session, and
// closing the session releases everything it owns (queries, subscription
// buffers). SessionManager is pure bookkeeping — it never touches the
// engine — so admission decisions stay cheap, lock-scoped, and testable
// without a running service. MonitorService composes it with the engine:
// admit first (quota check + ownership record), register with the engine,
// and roll the admission back if the engine refuses.
//
// Quotas are the service's admission control: a per-session cap on live
// queries and a cap on k bound the per-cycle maintenance work any single
// client can demand, which is what keeps one greedy dashboard from
// starving a thousand polite ones.

#ifndef TOPKMON_SERVICE_SESSION_H_
#define TOPKMON_SERVICE_SESSION_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "core/query.h"

namespace topkmon {

/// Opaque client-session handle.
using SessionId = std::uint64_t;

/// Admission-control limits applied per session.
struct SessionOptions {
  int max_queries_per_session = 16;  ///< live queries one client may hold
  int max_k = 128;                   ///< largest admissible result size
  std::size_t max_sessions = 4096;   ///< concurrently open sessions
  /// Per-session ingest rate limit (token bucket), records per second.
  /// <= 0 disables rate limiting. Only the session-scoped ingest calls
  /// (MonitorService::Ingest/TryIngest with a SessionId) are limited;
  /// anonymous producers bypass the bucket.
  double ingest_rate_per_sec = 0.0;
  /// Bucket capacity (burst size) in records; <= 0 means one second's
  /// worth of tokens (== ingest_rate_per_sec).
  double ingest_burst = 0.0;
};

/// One open session as the admin plane reports it (/statusz).
struct SessionInfo {
  SessionId id = 0;
  std::string label;
  std::size_t queries = 0;  ///< live queries owned
};

/// Observable session-layer counters.
struct SessionStats {
  std::uint64_t opened = 0;
  std::uint64_t closed = 0;
  std::uint64_t queries_admitted = 0;
  std::uint64_t queries_released = 0;
  std::uint64_t quota_rejections = 0;  ///< Admit refusals (any quota)
  std::uint64_t rate_limited = 0;      ///< ingest refusals (empty bucket)
};

/// Thread-safe registry of sessions and the queries they own.
class SessionManager {
 public:
  explicit SessionManager(const SessionOptions& options);

  /// Opens a session. `label` is free-form (client name, connection
  /// address) and only used for diagnostics. Fails with
  /// FailedPrecondition when max_sessions are already open.
  Result<SessionId> Open(std::string label);

  /// Closes a session and returns the ids of all queries it still owned;
  /// the caller must unregister them from the engine and unbind their
  /// subscriptions. NotFound for unknown sessions.
  Result<std::vector<QueryId>> Close(SessionId session);

  /// Checks quotas and records `query_id` as owned by `session`.
  /// FailedPrecondition when the session is at its query quota,
  /// InvalidArgument when k is non-positive or exceeds max_k, NotFound for
  /// unknown sessions. On success the caller owns rolling back with
  /// Release() if downstream registration fails.
  Status Admit(SessionId session, QueryId query_id, int k);

  /// Drops a query's ownership record (query termination or admission
  /// rollback). NotFound if the query is unknown.
  Status Release(QueryId query_id);

  /// The session owning `query_id`; NotFound if unknown.
  Result<SessionId> Owner(QueryId query_id) const;

  /// Diagnostic label given at Open; NotFound if unknown.
  Result<std::string> Label(SessionId session) const;

  /// The oldest open session with this label; NotFound if none. O(open
  /// sessions) — intended for reconnect/adoption after a restart, not the
  /// hot path.
  Result<SessionId> FindByLabel(const std::string& label) const;

  /// Takes `n` tokens from the session's ingest bucket at time
  /// `now_seconds` (any monotonic clock, in seconds; the caller supplies
  /// it so tests can run on a virtual clock). Refills at
  /// ingest_rate_per_sec up to the burst capacity. FailedPrecondition
  /// (and counted as rate_limited) when the bucket cannot cover `n`;
  /// NotFound for unknown sessions; always Ok when rate limiting is
  /// disabled.
  Status ConsumeIngestTokens(SessionId session, double n,
                             double now_seconds);

  /// Batch variant for the wire ingest path: takes as many whole
  /// tokens as the bucket covers, up to `n`, and returns the granted
  /// count. Records beyond the grant are each counted as rate_limited
  /// (matching n single-token refusals). NotFound (granted 0) for
  /// unknown sessions; grants all of `n` when rate limiting is
  /// disabled. When fewer than `n` are granted and `refusal` is
  /// non-null, it receives the same FailedPrecondition a single-record
  /// refusal would draw.
  std::size_t ConsumeUpToIngestTokens(SessionId session, std::size_t n,
                                      double now_seconds, Status* refusal);

  /// Live queries owned by `session`; NotFound if unknown.
  Result<std::size_t> QueryCount(SessionId session) const;

  std::size_t OpenSessions() const;

  /// Snapshot of every open session, id-sorted — the /statusz session
  /// table. O(open sessions); admin-plane only, not the hot path.
  std::vector<SessionInfo> List() const;

  /// Total live queries across all sessions.
  std::size_t ActiveQueries() const;

  SessionStats stats() const;

 private:
  struct SessionState {
    std::string label;
    std::unordered_set<QueryId> queries;
    double tokens = 0.0;           ///< ingest bucket fill
    double last_refill = 0.0;      ///< now_seconds of the last refill
    bool bucket_primed = false;    ///< first consume starts a full bucket
  };

  /// Primes `state`'s bucket full on first use, else refills it for the
  /// time since the last refill; returns the burst capacity. Caller
  /// holds mu_.
  double RefillBucket(SessionState& state, double now_seconds) const;
  /// The FailedPrecondition an ingest beyond the bucket draws.
  Status RateLimitError(SessionId session, double burst) const;

  const SessionOptions options_;

  mutable std::mutex mu_;
  SessionId next_session_ = 1;
  std::unordered_map<SessionId, SessionState> sessions_;
  std::unordered_map<QueryId, SessionId> owner_;
  SessionStats stats_;
};

}  // namespace topkmon

#endif  // TOPKMON_SERVICE_SESSION_H_
