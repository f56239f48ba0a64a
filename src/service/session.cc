#include "service/session.h"

#include <algorithm>
#include <utility>

namespace topkmon {
namespace {

Status NotOpen(SessionId session) {
  return Status::NotFound("session " + std::to_string(session) + " not open");
}

Status NotOwned(QueryId query_id) {
  return Status::NotFound("query id " + std::to_string(query_id) +
                          " not owned by any session");
}

}  // namespace

SessionManager::SessionManager(const SessionOptions& options)
    : options_(options) {}

Result<SessionId> SessionManager::Open(std::string label) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.size() >= options_.max_sessions) {
    return Status::FailedPrecondition(
        "session limit reached (" + std::to_string(options_.max_sessions) +
        " open)");
  }
  const SessionId id = next_session_++;
  sessions_.emplace(id, SessionState{std::move(label), {}});
  ++stats_.opened;
  return id;
}

Result<std::vector<QueryId>> SessionManager::Close(SessionId session) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return NotOpen(session);
  std::vector<QueryId> owned(it->second.queries.begin(),
                             it->second.queries.end());
  for (QueryId q : owned) owner_.erase(q);
  stats_.queries_released += owned.size();
  sessions_.erase(it);
  ++stats_.closed;
  return owned;
}

Status SessionManager::Admit(SessionId session, QueryId query_id, int k) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return NotOpen(session);
  if (k <= 0 || k > options_.max_k) {
    ++stats_.quota_rejections;
    return Status::InvalidArgument(
        "k=" + std::to_string(k) + " outside the admissible range [1, " +
        std::to_string(options_.max_k) + "]");
  }
  if (it->second.queries.size() >=
      static_cast<std::size_t>(options_.max_queries_per_session)) {
    ++stats_.quota_rejections;
    return Status::FailedPrecondition(
        "session " + std::to_string(session) + " is at its query quota (" +
        std::to_string(options_.max_queries_per_session) + ")");
  }
  if (owner_.count(query_id) > 0) {
    return Status::AlreadyExists("query id " + std::to_string(query_id) +
                                 " already owned");
  }
  it->second.queries.insert(query_id);
  owner_.emplace(query_id, session);
  ++stats_.queries_admitted;
  return Status::Ok();
}

Status SessionManager::Release(QueryId query_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = owner_.find(query_id);
  if (it == owner_.end()) return NotOwned(query_id);
  auto session = sessions_.find(it->second);
  if (session != sessions_.end()) session->second.queries.erase(query_id);
  owner_.erase(it);
  ++stats_.queries_released;
  return Status::Ok();
}

Result<SessionId> SessionManager::Owner(QueryId query_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = owner_.find(query_id);
  if (it == owner_.end()) return NotOwned(query_id);
  return it->second;
}

Result<std::string> SessionManager::Label(SessionId session) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return NotOpen(session);
  return it->second.label;
}

Result<SessionId> SessionManager::FindByLabel(const std::string& label) const {
  std::lock_guard<std::mutex> lock(mu_);
  SessionId best = 0;
  bool found = false;
  for (const auto& [id, state] : sessions_) {
    if (state.label == label && (!found || id < best)) {
      best = id;
      found = true;
    }
  }
  if (!found) {
    return Status::NotFound("no open session labeled '" + label + "'");
  }
  return best;
}

double SessionManager::RefillBucket(SessionState& state,
                                   double now_seconds) const {
  const double burst = options_.ingest_burst > 0.0
                           ? options_.ingest_burst
                           : options_.ingest_rate_per_sec;
  if (!state.bucket_primed) {
    state.tokens = burst;
    state.last_refill = now_seconds;
    state.bucket_primed = true;
  } else if (now_seconds > state.last_refill) {
    state.tokens =
        std::min(burst, state.tokens + (now_seconds - state.last_refill) *
                                           options_.ingest_rate_per_sec);
    state.last_refill = now_seconds;
  }
  return burst;
}

Status SessionManager::RateLimitError(SessionId session, double burst) const {
  return Status::FailedPrecondition(
      "session " + std::to_string(session) +
      " exceeded its ingest rate limit (" +
      std::to_string(options_.ingest_rate_per_sec) + " records/s, burst " +
      std::to_string(burst) + ")");
}

Status SessionManager::ConsumeIngestTokens(SessionId session, double n,
                                           double now_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return NotOpen(session);
  if (options_.ingest_rate_per_sec <= 0.0) return Status::Ok();
  SessionState& state = it->second;
  const double burst = RefillBucket(state, now_seconds);
  if (state.tokens < n) {
    ++stats_.rate_limited;
    return RateLimitError(session, burst);
  }
  state.tokens -= n;
  return Status::Ok();
}

std::size_t SessionManager::ConsumeUpToIngestTokens(SessionId session,
                                                    std::size_t n,
                                                    double now_seconds,
                                                    Status* refusal) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    if (refusal != nullptr) *refusal = NotOpen(session);
    return 0;
  }
  if (options_.ingest_rate_per_sec <= 0.0 || n == 0) return n;
  SessionState& state = it->second;
  const double burst = RefillBucket(state, now_seconds);
  const std::size_t granted = std::min<std::size_t>(
      n, state.tokens >= 0.0 ? static_cast<std::size_t>(state.tokens) : 0);
  state.tokens -= static_cast<double>(granted);
  if (granted < n) {
    // One refusal per record beyond the grant — the same accounting n
    // individual ConsumeIngestTokens refusals would produce.
    stats_.rate_limited += n - granted;
    if (refusal != nullptr) *refusal = RateLimitError(session, burst);
  }
  return granted;
}

Result<std::size_t> SessionManager::QueryCount(SessionId session) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return NotOpen(session);
  return it->second.queries.size();
}

std::size_t SessionManager::OpenSessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

std::vector<SessionInfo> SessionManager::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SessionInfo> out;
  out.reserve(sessions_.size());
  for (const auto& [id, state] : sessions_) {
    out.push_back(SessionInfo{id, state.label, state.queries.size()});
  }
  std::sort(out.begin(), out.end(),
            [](const SessionInfo& a, const SessionInfo& b) {
              return a.id < b.id;
            });
  return out;
}

std::size_t SessionManager::ActiveQueries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return owner_.size();
}

SessionStats SessionManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace topkmon
