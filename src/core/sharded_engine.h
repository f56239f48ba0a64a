// Query-sharded parallel monitoring.
//
// The paper's engines are single-threaded and share no state across
// queries except the index, so the natural multi-core scaling strategy is
// to partition the *queries* across several engine instances, each
// consuming the identical stream on its own worker thread. ShardedEngine
// implements that: it owns S inner engines and a persistent worker pool;
// ProcessCycle fans the arrival batch out to every shard and joins.
//
// Trade-off (documented, inherent to query partitioning): each shard
// maintains its own window and index, so memory grows with S while
// per-cycle CPU time drops toward max over shards. Registration,
// termination and result reads are routed to the owning shard and must be
// called from one thread (the same contract as the inner engines).

#ifndef TOPKMON_CORE_SHARDED_ENGINE_H_
#define TOPKMON_CORE_SHARDED_ENGINE_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/engine.h"

namespace topkmon {

/// Creates one inner engine instance per shard.
using EngineFactory = std::function<std::unique_ptr<MonitorEngine>()>;

/// Partitions queries round-robin across engine replicas, each fed the
/// full stream on a dedicated worker thread.
class ShardedEngine final : public MonitorEngine {
 public:
  /// Builds `num_shards` inner engines with `factory`. Requires
  /// num_shards >= 1; factory must produce engines of equal
  /// dimensionality and window configuration.
  ShardedEngine(int num_shards, const EngineFactory& factory);
  ~ShardedEngine() override;

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Stops and joins the worker pool. Idempotent; also runs from the
  /// destructor. After shutdown, ProcessCycle fails with
  /// FailedPrecondition while name()/dim()/num_shards() (cached at
  /// construction) and the read-side (CurrentResult, stats, Memory)
  /// remain valid — a service layer can still serve snapshot reads while
  /// tearing down.
  void Shutdown();

  std::string name() const override { return name_; }
  int dim() const override { return dim_; }
  Status RegisterQuery(const QuerySpec& spec) override;
  Status UnregisterQuery(QueryId id) override;
  Status ProcessCycle(Timestamp now, RecordSpan arrivals) override;
  Result<std::vector<ResultEntry>> CurrentResult(QueryId id) const override;
  void SetDeltaCallback(DeltaCallback callback) override;
  std::size_t WindowSize() const override {
    return shards_.front()->WindowSize();
  }
  /// Every shard consumes the identical stream, so any shard's window is
  /// the engine's window, for snapshots and walks alike; restore (the
  /// base-class default) re-partitions through the regular ProcessCycle
  /// fan-out.
  Result<EngineSnapshot> SnapshotState() const override {
    return shards_.front()->SnapshotState();
  }
  Status VisitWindow(WindowVisitor& visitor) const override {
    return shards_.front()->VisitWindow(visitor);
  }
  /// Aggregated counters across shards (maintenance_seconds sums shard
  /// CPU time; wall-clock per cycle is roughly the max over shards).
  const EngineStats& stats() const override;
  MemoryBreakdown Memory() const override;

  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  void WorkerLoop(std::size_t shard_index);

  // Identity cached at construction so it stays answerable after
  // Shutdown() without touching shard state.
  int dim_ = 0;
  std::string name_;

  std::vector<std::unique_ptr<MonitorEngine>> shards_;
  std::unordered_map<QueryId, std::size_t> query_shard_;
  std::size_t next_shard_ = 0;

  // Worker-pool synchronization: ProcessCycle publishes (now_, arrivals_),
  // bumps generation_ and waits for pending_ to drain.
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  std::size_t pending_ = 0;
  bool stop_ = false;
  Timestamp now_ = 0;
  RecordSpan arrivals_;
  std::vector<Status> shard_status_;
  std::vector<std::thread> threads_;

  // Serializes delta callbacks fired concurrently from worker threads.
  std::shared_ptr<std::mutex> delta_mu_ = std::make_shared<std::mutex>();

  mutable EngineStats aggregated_stats_;
};

}  // namespace topkmon

#endif  // TOPKMON_CORE_SHARDED_ENGINE_H_
