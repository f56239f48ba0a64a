// Abstract interface of a continuous top-k monitoring engine.
//
// All evaluated methods (TMA, SMA, the TSL baseline, and the brute-force
// reference) implement this interface so that the simulation driver,
// benchmarks and correctness tests can feed the identical stream to each
// competitor and compare results cycle-for-cycle.

#ifndef TOPKMON_CORE_ENGINE_H_
#define TOPKMON_CORE_ENGINE_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/record.h"
#include "common/status.h"
#include "core/delta.h"
#include "core/query.h"
#include "stream/sliding_window.h"
#include "util/memory_tracker.h"
#include "util/stats.h"

namespace topkmon {

/// Engine-ready image of the stream state, used by the journal subsystem
/// (src/journal/) for snapshot records and crash recovery.
struct EngineSnapshot {
  Timestamp last_cycle = 0;    ///< timestamp of the last processed cycle
  std::vector<Record> window;  ///< valid records in arrival (id) order
};

/// Receives a walk over an engine's window (MonitorEngine::VisitWindow).
class WindowVisitor {
 public:
  virtual ~WindowVisitor() = default;
  /// Called once, before any record: the timestamp of the last processed
  /// cycle and the number of records the walk yields.
  virtual void Begin(Timestamp last_cycle, std::size_t size) = 0;
  /// One valid record; records come in arrival (id) order.
  virtual void Visit(RecordId id, const Point& position,
                     Timestamp arrival) = 0;
};

/// A continuous top-k monitoring engine.
///
/// Lifecycle: construct, RegisterQuery() any number of queries (also
/// mid-stream), then call ProcessCycle() once per timestamp with that
/// cycle's arrivals. After every ProcessCycle the engine answers
/// CurrentResult() for each registered query with its exact top-k set
/// among the valid records.
class MonitorEngine {
 public:
  virtual ~MonitorEngine() = default;

  /// Engine name for reports ("TMA", "SMA", "TSL", "BRUTE").
  virtual std::string name() const = 0;

  /// Attribute-space dimensionality.
  virtual int dim() const = 0;

  /// Registers a query and computes its initial result over the current
  /// window contents. Fails with AlreadyExists on duplicate ids and
  /// InvalidArgument on malformed specs.
  virtual Status RegisterQuery(const QuerySpec& spec) = 0;

  /// Terminates a query and releases its book-keeping (influence-list
  /// entries, views). NotFound if the id is unknown.
  virtual Status UnregisterQuery(QueryId id) = 0;

  /// Advances the stream by one processing cycle: admits `arrivals`
  /// (strictly increasing ids, non-decreasing timestamps), evicts expired
  /// records, and maintains every registered query's result. The span is
  /// a borrowed view (typically the driver's reusable cycle batch):
  /// engines must copy whatever they keep and
  /// must not hold the view past the call.
  virtual Status ProcessCycle(Timestamp now, RecordSpan arrivals) = 0;

  /// The query's current top-k set in ResultOrder (may hold fewer than k
  /// entries when the window has fewer qualifying records).
  virtual Result<std::vector<ResultEntry>> CurrentResult(
      QueryId id) const = 0;

  /// Installs a callback receiving per-query result deltas: invoked once
  /// at registration (the initial result as `added`) and once per cycle
  /// in which a query's result changed (Figures 9/11: "report changes to
  /// the client"). Passing nullptr disables reporting; tracking costs
  /// nothing while disabled.
  virtual void SetDeltaCallback(DeltaCallback callback) = 0;

  /// Number of currently valid (indexed) records.
  virtual std::size_t WindowSize() const = 0;

  /// The current window image for journal snapshots. Engines with a
  /// FIFO window override this; exotic engines may leave it
  /// Unimplemented (such an engine cannot anchor journal segments).
  /// Never default this to VisitWindow: VisitWindow's default calls it,
  /// and the two defaults would call each other forever.
  virtual Result<EngineSnapshot> SnapshotState() const {
    return Status::Unimplemented("engine " + name() +
                                 " does not support state snapshots");
  }

  /// Walks the window oldest first, straight from the engine's own
  /// storage; the journal encodes its snapshot anchors from this walk, so
  /// a rotation holds no std::vector<Record> image of the window. The
  /// default walks SnapshotState(), which keeps an engine or decorator
  /// that overrides only SnapshotState() correct at the cost of that
  /// copy.
  virtual Status VisitWindow(WindowVisitor& visitor) const {
    auto snapshot = SnapshotState();
    if (!snapshot.ok()) return snapshot.status();
    visitor.Begin(snapshot->last_cycle, snapshot->window.size());
    for (const Record& r : snapshot->window) {
      visitor.Visit(r.id, r.position, r.arrival);
    }
    return Status::Ok();
  }

  /// Rebuilds the window from a snapshot. Requires a freshly constructed
  /// engine (empty window). The default re-admits the snapshot records as
  /// one arrival batch at the snapshot's cycle timestamp — exact for
  /// every engine, because a window's content is a deterministic function
  /// of the (id-ordered) records admitted and the eviction instant, and
  /// none of the snapshot records can be expired at that instant. Queries
  /// registered afterwards compute their initial results over the
  /// restored window exactly as they did originally.
  virtual Status RestoreState(const EngineSnapshot& snapshot) {
    if (WindowSize() != 0) {
      return Status::FailedPrecondition(
          "RestoreState requires a freshly constructed engine");
    }
    if (snapshot.window.empty() && snapshot.last_cycle == 0) {
      return Status::Ok();
    }
    return ProcessCycle(snapshot.last_cycle, snapshot.window);
  }

  /// Accumulated maintenance counters.
  virtual const EngineStats& stats() const = 0;

  /// Structure-size accounting of all engine state.
  virtual MemoryBreakdown Memory() const = 0;
};

/// SnapshotState() for an engine that overrides VisitWindow: collects
/// the walk into an image.
inline Result<EngineSnapshot> SnapshotFromWalk(const MonitorEngine& engine) {
  struct Collector final : WindowVisitor {
    EngineSnapshot image;
    void Begin(Timestamp last_cycle, std::size_t size) override {
      image.last_cycle = last_cycle;
      image.window.reserve(size);
    }
    void Visit(RecordId id, const Point& position,
               Timestamp arrival) override {
      image.window.emplace_back(id, position, arrival);
    }
  } collector;
  TOPKMON_RETURN_IF_ERROR(engine.VisitWindow(collector));
  return std::move(collector.image);
}

}  // namespace topkmon

#endif  // TOPKMON_CORE_ENGINE_H_
