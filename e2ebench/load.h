// The load generator: the leg schedule, the open-loop producer, the
// delta subscriber and the control traffic, plus admin-plane scrapes.
// All of it runs in the parent process, on at most three threads
// (producer, subscriber, main) and four connections.

#ifndef TOPKMON_E2EBENCH_LOAD_H_
#define TOPKMON_E2EBENCH_LOAD_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/query.h"
#include "e2ebench/analysis.h"
#include "e2ebench/common.h"
#include "e2ebench/trace.h"
#include "net/client.h"
#include "util/rng.h"

namespace e2e {

// --------------------------------------------------------------- legs

enum class LegKind { kWarm, kLo, kLoTraced, kHi, kCapacity, kProbe };

/// One leg of a run. An open-loop leg offers `count` records due at
/// `rate` from `start_ns`; a closed-loop leg (rate 0) sends frames back
/// to back until `end_ns`.
struct Leg {
  LegKind kind = LegKind::kWarm;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double rate = 0;
  std::int64_t count = 0;

  bool closed_loop() const { return rate <= 0; }
  std::int64_t DueNs(std::int64_t j) const {
    return start_ns +
           static_cast<std::int64_t>(static_cast<double>(j) * 1e9 / rate);
  }
  /// Records of this leg due at or before t.
  std::int64_t DueBy(std::int64_t t) const;
};

Leg OpenLeg(LegKind kind, std::int64_t start, double seconds, double rate);
Leg ClosedLeg(std::int64_t start, double seconds);

/// Legs in order. The main thread appends them (probe rates are chosen
/// as the run goes); the producer follows.
class Schedule {
 public:
  int Append(Leg leg);
  /// Waits for leg i; false once the schedule is closed without it.
  bool Get(std::size_t i, Leg* out);
  void Close();
  std::vector<Leg> Legs() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Leg> legs_;
  bool closed_ = false;
};

enum SampleKind { kFresh, kAck, kRegister, kSnapshot, kLate, kSampleKinds };

/// Latency samples (ms) by kind and leg, shared by the three threads.
class Samples {
 public:
  void Add(SampleKind kind, int leg, double value);
  void AddBatch(SampleKind kind,
                const std::vector<std::pair<int, double>>& batch);
  std::vector<double> Get(SampleKind kind, int leg) const;
  /// Samples of every listed leg, pooled.
  std::vector<double> Pooled(SampleKind kind,
                             const std::vector<int>& legs) const;

 private:
  std::vector<double>& Slot(SampleKind kind, int leg);

  mutable std::mutex mu_;
  std::vector<std::vector<double>> v_[kSampleKinds];
};

// ------------------------------------------------------------ scrapes

/// GET /metrics from the admin endpoint on 127.0.0.1:port, parsed.
MetricsText Scrape(std::uint16_t port);

// ------------------------------------------------------------ queries

struct LiveQuery {
  topkmon::QueryId id = 0;
  topkmon::QuerySpec spec;
};

/// Seeded source of the workload's query specs (linear functions).
class QueryMaker {
 public:
  QueryMaker(const Workload& w, std::uint64_t seed);
  topkmon::QuerySpec Next();

 private:
  int dim_;
  int k_;
  topkmon::Rng rng_;
};

// ----------------------------------------------------------- producer

/// Open-loop wire ingest on one connection. Every record's arrival
/// timestamp is its due time in µs since the run epoch, so a delta's
/// `when` maps back to the creation instant of the newest record of its
/// cycle. Due records are flushed every 1 ms or at 512, whichever comes
/// first; nothing is dropped, and a producer that falls behind sends at
/// once. RESOURCE_EXHAUSTED refusals are honoured by resending the batch
/// suffix after a pause scaled by the queue hint.
class Producer {
 public:
  Producer(topkmon::MonitorClient* client, const Workload& w,
           std::uint64_t seed, Schedule* schedule, Samples* samples,
           SpanBuffer* spans, const std::atomic<bool>* tracing);

  /// Closed-loop prefill of n records (set-up).
  void Prefill(std::size_t n);
  /// Follows the schedule until it is closed.
  void Run();

  std::size_t generated() const { return generated_; }
  /// Position of a record among the last kWindow generated; else null.
  const topkmon::Point* Position(topkmon::RecordId id) const;
  topkmon::Timestamp last_ts() const { return last_ts_.load(); }
  std::uint64_t calls() const { return calls_.load(); }
  std::uint64_t accepted() const { return accepted_.load(); }

 private:
  void RunOpen(const Leg& leg, int li);
  void RunClosed(const Leg& leg, int li);
  void Push(topkmon::Timestamp ts);
  void Send(int leg, bool sample_ack);

  topkmon::MonitorClient* client_;
  std::unique_ptr<topkmon::StreamGenerator> gen_;
  std::vector<topkmon::Point> ring_;  ///< positions of the last kWindow
  std::size_t generated_ = 0;
  std::vector<topkmon::Record> frame_;
  std::vector<topkmon::Timestamp> frame_ts_;
  Schedule* schedule_;
  Samples* samples_;
  SpanBuffer* spans_;
  const std::atomic<bool>* tracing_;
  std::atomic<topkmon::Timestamp> last_ts_{0};
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> accepted_{0};
};

// --------------------------------------------------------- subscriber

/// Long-polls the monitoring session's delta stream, checks that its
/// sequence is gap-free, replays every query's deltas, and turns each
/// delivered non-initial event into a freshness sample: receipt minus
/// the due time of the event's cycle timestamp. Events of traced legs
/// are also kept whole for the freshness decomposition.
class Subscriber {
 public:
  Subscriber(topkmon::MonitorClient* client, Schedule* schedule,
             Samples* samples, SpanBuffer* spans,
             const std::atomic<bool>* tracing);

  /// One long poll; returns the number of events.
  std::size_t PollOnce(std::chrono::milliseconds timeout);
  /// Polls until `stop` is set and the stream is drained through
  /// `final_ts`.
  void Run(const std::atomic<bool>* stop,
           const std::atomic<topkmon::Timestamp>* final_ts);

  std::size_t initial_events() const { return initial_events_; }
  const std::unordered_map<topkmon::QueryId,
                           std::vector<topkmon::ResultEntry>>&
  replay() const {
    return replay_;
  }
  const std::vector<FreshEvent>& traced_events() const {
    return traced_events_;
  }

 private:
  topkmon::MonitorClient* client_;
  Schedule* schedule_;
  Samples* samples_;
  SpanBuffer* spans_;
  const std::atomic<bool>* tracing_;
  std::vector<Leg> legs_;
  std::uint64_t last_seq_ = 0;
  std::size_t initial_events_ = 0;
  std::unordered_map<topkmon::QueryId, std::vector<topkmon::ResultEntry>>
      replay_;
  std::vector<std::pair<int, double>> batch_;
  std::vector<FreshEvent> traced_events_;
};

// ------------------------------------------------------------ control

/// Control traffic on the monitoring session's own connection: query
/// replacements (unregister + register) and snapshot reads of random
/// live queries. Open loop, each on its own fixed schedule, on workloads
/// that carry control traffic; as a closed-loop burst on the others.
class Control {
 public:
  Control(topkmon::MonitorClient* client, const Workload& w,
          std::uint64_t seed, QueryMaker* maker, std::vector<LiveQuery>* live,
          Samples* samples, SpanBuffer* spans,
          const std::atomic<bool>* tracing);

  /// Starts the open-loop schedule (never due without control traffic).
  void Start(std::int64_t t0);
  std::int64_t NextDue() const { return std::min(next_replace_, next_read_); }
  /// Runs every operation due by `now`; samples land under `leg`.
  void RunDue(std::int64_t now, int leg);
  /// Sends `replacements` replacements, each followed by two reads, back
  /// to back; samples land under `leg`.
  void Burst(std::size_t replacements, int leg);
  std::uint64_t rpcs() const { return rpcs_; }

 private:
  void RecordSpan(bool traced, std::uint32_t name, std::int64_t t0,
                  std::int64_t t1, topkmon::QueryId id);
  void Replace(int leg);
  void Read(int leg);

  topkmon::MonitorClient* client_;
  const std::int64_t replace_ns_;
  const std::int64_t read_ns_;
  topkmon::Rng rng_;
  QueryMaker* maker_;
  std::vector<LiveQuery>* live_;
  Samples* samples_;
  SpanBuffer* spans_;
  const std::atomic<bool>* tracing_;
  std::int64_t next_replace_ = kNever;
  std::int64_t next_read_ = kNever;
  std::uint64_t rpcs_ = 0;

  static constexpr std::int64_t kNever = INT64_MAX;
};

}  // namespace e2e

#endif  // TOPKMON_E2EBENCH_LOAD_H_
