// Span recording for the traced benchmark run.
//
// Both processes of a run time against one epoch on the shared
// monotonic clock, so child-side spans (engine, hub publish, drain) and
// parent-side spans (client RPCs) land on one time axis. Spans go into
// a preallocated buffer with a lock-free slot counter and are written
// out when the run ends; nothing is formatted or allocated while
// tracing.

#ifndef TOPKMON_E2EBENCH_TRACE_H_
#define TOPKMON_E2EBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "e2ebench/analysis.h"

namespace e2e {

/// Fixes the run epoch. The system under test receives it as EpochNs()
/// and adopts it with SetEpochNs, so both processes share it.
void SetEpoch();
/// The epoch in nanoseconds of the monotonic clock, which every process
/// on the machine shares.
std::int64_t EpochNs();
void SetEpochNs(std::int64_t ns);
/// Nanoseconds since the run epoch on the monotonic clock.
std::int64_t NowNs();
/// The epoch as a steady_clock time point (to sleep until an offset).
std::chrono::steady_clock::time_point EpochTime();

enum SpanName : std::uint32_t {
  // Child (system under test).
  kSpanPreApply = 0,   ///< drain boundary → ProcessCycle entry
  kSpanCycle,          ///< ProcessCycle
  kSpanHubPublish,     ///< the service's delta callback
  kSpanRegister,       ///< RegisterQuery
  kSpanUnregister,     ///< UnregisterQuery
  kSpanSnapshot,       ///< CurrentResult
  // Parent (load generator), around MonitorClient calls.
  kSpanRpcIngest,
  kSpanRpcPoll,
  kSpanRpcRegister,
  kSpanRpcUnregister,
  kSpanRpcSnapshot,
};

/// Fixed-capacity span store. Begin/End/Add are safe from any thread;
/// once full, further spans are counted as dropped.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity);

  SpanBuffer(const SpanBuffer&) = delete;
  SpanBuffer& operator=(const SpanBuffer&) = delete;

  /// Opens a span now; returns its index (kNoSpan when full).
  std::uint32_t Begin(std::uint32_t name, std::int64_t trace_id,
                      std::uint32_t parent = kNoSpan);
  /// Closes an open span now.
  void End(std::uint32_t index, std::uint32_t aux = 0);
  /// Stores a complete span.
  std::uint32_t Add(const Span& span);

  /// Spans recorded so far (call once writers are quiet).
  std::vector<Span> Collect() const;
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  std::uint32_t Claim();

  std::unique_ptr<Span[]> spans_;
  const std::size_t capacity_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Engine decorator of the traced run: forwards every MonitorEngine
/// call and, while `enabled` is set, times ProcessCycle, RegisterQuery,
/// UnregisterQuery, CurrentResult and every delta handed to the
/// service's callback (hub publish). OnDrain — installed as the
/// service's cycle observer — marks where the drained batch left the
/// ingest queue, so the time to ProcessCycle entry (journal append plus
/// engine-lock wait) becomes its own span.
class TracedEngine final : public topkmon::MonitorEngine {
 public:
  TracedEngine(std::unique_ptr<topkmon::MonitorEngine> inner,
               SpanBuffer* spans, const std::atomic<bool>* enabled);

  std::string name() const override { return inner_->name(); }
  int dim() const override { return inner_->dim(); }
  topkmon::Status RegisterQuery(const topkmon::QuerySpec& spec) override;
  topkmon::Status UnregisterQuery(topkmon::QueryId id) override;
  topkmon::Status ProcessCycle(topkmon::Timestamp now,
                               topkmon::RecordSpan arrivals) override;
  topkmon::Result<std::vector<topkmon::ResultEntry>> CurrentResult(
      topkmon::QueryId id) const override;
  void SetDeltaCallback(topkmon::DeltaCallback callback) override;
  std::size_t WindowSize() const override { return inner_->WindowSize(); }
  topkmon::Result<topkmon::EngineSnapshot> SnapshotState() const override {
    return inner_->SnapshotState();
  }
  topkmon::Status RestoreState(
      const topkmon::EngineSnapshot& snapshot) override {
    return inner_->RestoreState(snapshot);
  }
  const topkmon::EngineStats& stats() const override {
    return inner_->stats();
  }
  topkmon::MemoryBreakdown Memory() const override {
    return inner_->Memory();
  }

  /// Cycle observer hook (driver thread, before the engine lock).
  void OnDrain(topkmon::Timestamp ts, std::size_t records);

 private:
  bool tracing() const {
    return enabled_->load(std::memory_order_relaxed);
  }

  std::unique_ptr<topkmon::MonitorEngine> inner_;
  SpanBuffer* spans_;
  const std::atomic<bool>* enabled_;
  topkmon::DeltaCallback callback_;
  // Drain stamp awaiting its ProcessCycle; both run on the driver thread.
  topkmon::Timestamp drain_ts_ = -1;
  std::int64_t drain_ns_ = 0;
  std::uint32_t drain_records_ = 0;
  // The engine span hub publishes nest under. Engine calls are
  // serialized by the service's engine mutex, and the delta callback
  // runs synchronously inside them.
  std::uint32_t open_span_ = kNoSpan;
};

/// Rebuilds the per-cycle timings of the freshness decomposition from
/// child spans: each ProcessCycle span, the drain span that ends where
/// it starts, and the union of its hub-publish children.
std::vector<CycleTiming> CycleTimings(const std::vector<Span>& spans);

/// Writes spans of both processes as Chrome trace-event JSON, at most
/// `max_spans` per process (the earliest ones).
bool WriteChromeTrace(const std::string& path,
                      const std::vector<Span>& child_spans,
                      const std::vector<Span>& parent_spans,
                      std::size_t max_spans);

}  // namespace e2e

#endif  // TOPKMON_E2EBENCH_TRACE_H_
