#include "core/sharded_engine.h"

#include <cassert>

namespace topkmon {

ShardedEngine::ShardedEngine(int num_shards, const EngineFactory& factory) {
  assert(num_shards >= 1);
  if (num_shards < 1) num_shards = 1;  // release builds: degrade, not UB
  shards_.reserve(num_shards);
  for (int s = 0; s < num_shards; ++s) {
    shards_.push_back(factory());
    assert(shards_.back() != nullptr);
  }
  dim_ = shards_.front()->dim();
  name_ = "SHARDED[" + std::to_string(shards_.size()) + "x" +
          shards_.front()->name() + "]";
  shard_status_.resize(shards_.size());
  threads_.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    threads_.emplace_back([this, s] { WorkerLoop(s); });
  }
}

ShardedEngine::~ShardedEngine() { Shutdown(); }

void ShardedEngine::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

Status ShardedEngine::RegisterQuery(const QuerySpec& spec) {
  if (query_shard_.count(spec.id) > 0) {
    return DuplicateQueryIdError(spec.id);
  }
  const std::size_t shard = next_shard_ % shards_.size();
  // Record the routing *before* the inner registration: the inner engine
  // reports the query's initial result synchronously through the delta
  // callback, and the per-shard wrapper drops deltas for unrouted queries.
  query_shard_.emplace(spec.id, shard);
  const Status st = shards_[shard]->RegisterQuery(spec);
  if (!st.ok()) {
    query_shard_.erase(spec.id);
    return st;
  }
  ++next_shard_;
  return Status::Ok();
}

Status ShardedEngine::UnregisterQuery(QueryId id) {
  auto it = query_shard_.find(id);
  if (it == query_shard_.end()) {
    return UnknownQueryIdError(id);
  }
  TOPKMON_RETURN_IF_ERROR(shards_[it->second]->UnregisterQuery(id));
  query_shard_.erase(it);
  return Status::Ok();
}

Status ShardedEngine::ProcessCycle(Timestamp now, RecordSpan arrivals) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      return Status::FailedPrecondition(
          "ShardedEngine is shut down; no worker pool to run the cycle");
    }
    now_ = now;
    arrivals_ = arrivals;
    pending_ = shards_.size();
    ++generation_;
  }
  work_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
  }
  // All shards run the same deterministic validation on the same input,
  // so either all succeed or all fail identically; report the first.
  for (const Status& st : shard_status_) {
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

void ShardedEngine::WorkerLoop(std::size_t shard_index) {
  std::uint64_t seen_generation = 0;
  while (true) {
    Timestamp now;
    RecordSpan arrivals;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this, seen_generation] {
        return stop_ || generation_ > seen_generation;
      });
      if (stop_) return;
      seen_generation = generation_;
      now = now_;
      arrivals = arrivals_;
    }
    const Status st = shards_[shard_index]->ProcessCycle(now, arrivals);
    {
      std::lock_guard<std::mutex> lock(mu_);
      shard_status_[shard_index] = st;
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }
}

Result<std::vector<ResultEntry>> ShardedEngine::CurrentResult(
    QueryId id) const {
  auto it = query_shard_.find(id);
  if (it == query_shard_.end()) {
    return UnknownQueryIdError(id);
  }
  return shards_[it->second]->CurrentResult(id);
}

void ShardedEngine::SetDeltaCallback(DeltaCallback callback) {
  if (!callback) {
    for (auto& shard : shards_) shard->SetDeltaCallback(nullptr);
    return;
  }
  // Each shard gets its own wrapper: callbacks fire from worker threads
  // concurrently, so they are serialized to preserve the single-threaded
  // contract, and each delta is forwarded only while the routing table
  // still maps its query to the reporting shard — a delta racing a
  // just-failed registration rollback is dropped instead of leaking a
  // phantom query to the subscriber.
  auto mu = delta_mu_;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->SetDeltaCallback(
        [this, mu, callback, s](const ResultDelta& delta) {
          const auto it = query_shard_.find(delta.query);
          if (it == query_shard_.end() || it->second != s) return;
          std::lock_guard<std::mutex> lock(*mu);
          callback(delta);
        });
  }
}

const EngineStats& ShardedEngine::stats() const {
  aggregated_stats_ = EngineStats();
  for (const auto& shard : shards_) aggregated_stats_ += shard->stats();
  // Cycles and stream counters are replicated per shard; report the
  // logical stream numbers, not the sum.
  const EngineStats& first = shards_.front()->stats();
  aggregated_stats_.cycles = first.cycles;
  aggregated_stats_.arrivals = first.arrivals;
  aggregated_stats_.expirations = first.expirations;
  return aggregated_stats_;
}

MemoryBreakdown ShardedEngine::Memory() const {
  MemoryBreakdown mb;
  for (const auto& shard : shards_) mb.Merge(shard->Memory());
  return mb;
}

}  // namespace topkmon
