// MonitorService — the multi-client continuous-query façade.
//
// The paper's engines are single-threaded libraries driven by a
// simulation loop; this is the layer that makes them servable. A
// MonitorService owns one MonitorEngine (typically a ShardedEngine for
// multi-core scaling) plus the three service components, and runs a
// dedicated cycle-driver thread:
//
//   producers --Push--> IngestQueue --DrainBatch--> driver thread
//                                                      |  ProcessCycle
//                                                      v
//   sessions <--Poll--  SubscriptionHub <--Publish-- DeltaCallback
//
// Thread roles:
//   * any number of producer threads call Ingest()/TryIngest();
//   * any number of client threads open sessions, register queries,
//     read snapshots (CurrentResult) and poll delta subscriptions;
//   * exactly one internal driver thread talks to the engine for cycle
//     processing. Client-facing engine calls (register / unregister /
//     snapshot reads) are serialized with the driver through one mutex,
//     preserving the engines' single-threaded contract.
//
// Ingested tuples are validated against the engine's dimensionality at
// admission (the same ValidatePoint the engines use), so a malformed
// tuple is an error returned to its producer, never a poisoned batch in
// the driver loop.
//
// Shutdown() closes ingest, lets the driver flush every buffered record
// through a final cycle, and joins the thread; it is idempotent and also
// runs from the destructor. Flush() is the deterministic fence used by
// tests and graceful drains: it blocks until every record pushed before
// the call has been applied to the engine.
//
// Durability (src/journal/): with ServiceOptions::journal.dir set, the
// driver write-ahead-journals every cycle batch — and the control plane
// every register/unregister — before applying it, all under the engine
// mutex so journal order equals apply order. Construct via Open() to
// recover an existing journal on startup: the engine is rebuilt by
// replaying the newest snapshot-anchored segment, sessions are re-created
// under their original labels owning their recovered queries (reconnect
// via FindSession), and journaling resumes into a fresh segment.
//
// Replication (src/replica/): OpenFollower() builds a *read-only* service
// whose engine is fed by journal replay instead of the ingest driver: a
// ReplicaFollower ships the leader's journal bytes into a local directory
// and pushes each decoded record through ApplyReplicated(), which routes
// query registrations through the same session/label adoption recovery
// uses — so follower clients resume their leader-side session labels and
// read snapshots and delta streams from replayed state. Writes (Ingest,
// Register, Unregister, CloseSession) pass one gate, which refuses them
// with a redirect-to-leader FailedPrecondition (FENCED on a deposed
// leader). Promote() turns the follower into a leader in place.
//
// One leader start: the public constructor (fresh), Open() (after
// adopting the recovered queries, so a refused adoption writes nothing)
// and Promote() (after persisting its new fencing epoch) all become a
// leader through it. Under the engine mutex, in order, it resumes the
// ingest id/timestamp sequences, sets the query-id allocator and the
// journaled query set, opens the journal writer anchored on the current
// state (fresh, or resuming the directory), arms the lease, flips the
// role and, last, starts the cycle driver.

#ifndef TOPKMON_SERVICE_MONITOR_SERVICE_H_
#define TOPKMON_SERVICE_MONITOR_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "journal/journal_writer.h"
#include "journal/recovery.h"
#include "obs/admin_server.h"
#include "obs/metrics.h"
#include "replica/lease.h"
#include "service/ingest_queue.h"
#include "service/session.h"
#include "service/subscription_hub.h"
#include "util/clock.h"

namespace topkmon {

/// Composite configuration of the service layer.
struct ServiceOptions {
  IngestOptions ingest;
  SessionOptions session;
  HubOptions hub;
  /// Durable cycle journal; journal.dir empty disables journaling. Use
  /// MonitorService::Open() to recover an existing journal directory.
  JournalOptions journal;
  /// Leader lease for automatic failover (src/replica/lease.h).
  /// Disabled by default: a standalone leader never fences itself. When
  /// enabled, follower fetches renew the lease (NoteFollowerContact)
  /// and writes are refused with FENCED once it lapses.
  LeaseOptions lease;
  /// Read-only HTTP introspection endpoint (/metrics, /statusz,
  /// /healthz; src/obs/admin_server.h). Off by default; when enabled
  /// the service starts the admin thread at construction and reports
  /// the bound port through admin_port().
  AdminServerOptions admin;
  /// Longest the driver waits for the ingest slack gate before forcing a
  /// cycle with whatever is buffered (bounds ingest->result staleness).
  std::chrono::milliseconds drain_wait{5};
};

/// Service-level counters, aggregated across the components.
struct ServiceStats {
  std::uint64_t cycles = 0;             ///< engine cycles driven
  std::uint64_t records_ingested = 0;   ///< records accepted by ingest
  std::uint64_t records_applied = 0;    ///< records applied to the engine
  std::uint64_t records_shed = 0;       ///< TryIngest refusals (queue full)
  std::uint64_t records_coerced = 0;    ///< stragglers time-shifted forward
  std::uint64_t records_rate_limited = 0;  ///< session-bucket refusals
  std::uint64_t deltas_published = 0;   ///< engine deltas entering the hub
  std::uint64_t deltas_delivered = 0;   ///< events consumed by sessions
  std::uint64_t deltas_dropped = 0;     ///< events lost to slow consumers
  std::uint64_t failed_cycles = 0;      ///< ProcessCycle errors (bug guard)
  std::uint64_t journal_records = 0;    ///< records appended to the journal
  std::uint64_t journal_bytes = 0;      ///< bytes written to the journal
  std::uint64_t journal_snapshots = 0;  ///< snapshot records written
  std::uint64_t journal_failures = 0;   ///< failed appends/rotations
  std::size_t queue_depth = 0;          ///< records waiting in ingest
  std::size_t open_sessions = 0;
  std::size_t active_queries = 0;

  std::string ToString() const;
};

/// Whether this service accepts writes or mirrors a leader.
enum class ServiceRole : std::uint8_t {
  kLeader = 0,    ///< accepts ingest and query registration
  kFollower = 1,  ///< read-only: state arrives via ApplyReplicated
};

/// Replication observability (role, apply progress, leader progress).
/// Reading it costs three atomics — it sits on the snapshot-serving hot
/// path (cycle counts live in stats(), which does lock).
struct ReplicationInfo {
  ServiceRole role = ServiceRole::kLeader;
  /// Timestamp of the last cycle applied to this engine.
  Timestamp applied_cycle_ts = 0;
  /// The leader's last known cycle timestamp (== applied_cycle_ts on a
  /// leader; on a follower, refreshed from every shipped chunk). The
  /// difference is the staleness bound surfaced in follower reads.
  Timestamp leader_cycle_ts = 0;
  /// Where writes belong when this service is a follower.
  std::string leader_endpoint;
  /// The fencing epoch of this service's replication group (v5); 0 when
  /// leases were never enabled and no failover ever happened.
  std::uint64_t fencing_epoch = 0;

  Timestamp StaleBy() const {
    return leader_cycle_ts > applied_cycle_ts
               ? leader_cycle_ts - applied_cycle_ts
               : 0;
  }
};

/// Thread-safe multi-client continuous-query service over one engine.
class MonitorService {
 public:
  /// Takes ownership of `engine` (freshly constructed, no queries) and
  /// starts the cycle-driver thread. If options.journal.dir is set, a
  /// fresh journal is started there; the directory must not already hold
  /// journal segments (recover those with Open() instead) — a violation
  /// surfaces through journal_status().
  MonitorService(std::unique_ptr<MonitorEngine> engine,
                 const ServiceOptions& options);
  ~MonitorService();

  MonitorService(const MonitorService&) = delete;
  MonitorService& operator=(const MonitorService&) = delete;

  /// Recover-on-start factory: replays the journal in options.journal.dir
  /// (which must be non-empty) through a fresh engine from
  /// `engine_factory`, re-creates one session per recovered session label
  /// owning its recovered queries (look them up with FindSession), and
  /// returns a running service journaling into a fresh segment. An empty
  /// or missing journal directory is a normal first boot. The recovery
  /// outcome is in recovery().
  static Result<std::unique_ptr<MonitorService>> Open(
      const std::function<std::unique_ptr<MonitorEngine>()>& engine_factory,
      const ServiceOptions& options);

  /// Read-only warm-standby factory: the returned service has no cycle
  /// driver and refuses writes; its engine is fed exclusively through
  /// ApplyReplicated* (normally by a ReplicaFollower, src/replica/).
  /// options.journal.dir names the *local* directory the follower ships
  /// the leader's journal into — no writer is opened on it until
  /// Promote(). `leader_endpoint` ("host:port") is surfaced in the
  /// redirect status of refused writes and in replication().
  static Result<std::unique_ptr<MonitorService>> OpenFollower(
      const std::function<std::unique_ptr<MonitorEngine>()>& engine_factory,
      const ServiceOptions& options, std::string leader_endpoint);

  // ---- producer API (any thread) --------------------------------------
  /// Validates and admits a tuple, blocking under backpressure.
  Status Ingest(Point position, Timestamp arrival);
  /// Non-blocking variant; OutOfRange/InvalidArgument for bad tuples,
  /// FailedPrecondition when the queue is full or the service stopped.
  Status TryIngest(Point position, Timestamp arrival);

  /// Session-scoped variants: the tuple is charged against the session's
  /// ingest token bucket (SessionOptions::ingest_rate_per_sec) and
  /// refused with FailedPrecondition when the bucket is empty.
  Status Ingest(SessionId session, Point position, Timestamp arrival);
  Status TryIngest(SessionId session, Point position, Timestamp arrival);

  /// Batch admission for the wire hot path: `records` must already be
  /// validated against dim() (DecodeIngestBody does it once, at the frame
  /// boundary — this call does NOT re-validate). Charges the session's
  /// token bucket for as many records as it covers, then admits the
  /// granted prefix up to queue capacity (the queue copies each one), and
  /// returns the count actually admitted. On a short admission *error
  /// carries the refusal: queue-full/closed when the queue cut the
  /// prefix, else the rate-limit (or follower/fenced) refusal.
  std::size_t TryIngestBatch(SessionId session, RecordSpan records,
                             Status* error);

  /// Engine dimensionality (what ingested tuples are validated against).
  int dim() const { return dim_; }

  // ---- client API (any thread) ----------------------------------------
  Result<SessionId> OpenSession(std::string label);
  /// Unregisters every query the session owns, drops its subscription
  /// buffer, and closes it.
  Status CloseSession(SessionId session);

  /// The oldest open session with this label — how a client re-adopts its
  /// recovered session (and queries) after a restart.
  Result<SessionId> FindSession(const std::string& label) const;

  /// Registers `spec` on behalf of `session` subject to its quotas. The
  /// spec's id field is ignored: the service assigns the returned
  /// globally unique id. The initial result arrives as the session's
  /// first delta event for that query.
  Result<QueryId> Register(SessionId session, QuerySpec spec);
  /// Terminates a query; only its owning session may do so.
  Status Unregister(SessionId session, QueryId query);

  /// Snapshot read of a query's current top-k (any thread).
  Result<std::vector<ResultEntry>> CurrentResult(QueryId query) const;

  /// The session that owns `query`; NotFound if unknown. Front-ends use
  /// this to scope reads to the requesting session (the TCP server
  /// refuses snapshots of queries the connection's session does not
  /// own, mirroring Unregister's ownership check).
  Result<SessionId> QueryOwner(QueryId query) const;

  /// Moves up to `max` pending delta events for `session` into *out.
  std::size_t PollDeltas(SessionId session, std::size_t max,
                         std::vector<DeltaEvent>* out);
  /// Long-poll variant: blocks until events arrive or `timeout` expires.
  std::size_t WaitDeltas(SessionId session, std::size_t max,
                         std::chrono::milliseconds timeout,
                         std::vector<DeltaEvent>* out);
  /// Delta events `session` has lost to buffer overflow.
  std::uint64_t DroppedDeltas(SessionId session) const;

  /// Delta events currently buffered for `session` — the cheap readiness
  /// probe a non-blocking front-end (the TCP server's poll loop) uses to
  /// decide whether a parked long-poll can be answered without calling
  /// PollDeltas speculatively.
  std::size_t PendingDeltas(SessionId session) const;

  // ---- replication (follower role; see src/replica/) ------------------
  /// Restores a segment-anchor snapshot into the (fresh) engine and
  /// registers its live queries through session/label adoption. The
  /// follower's bootstrap step; FailedPrecondition on a leader.
  Status ApplyReplicatedAnchor(JournalSnapshot anchor);

  /// Applies one replicated journal record: cycles run through the
  /// engine (delta subscribers see the changes), register/unregister
  /// route through session adoption by owner label exactly like journal
  /// recovery. FailedPrecondition on a leader.
  Status ApplyReplicated(const JournalRecord& record);

  /// Full-resync reset: drops every replicated query binding and swaps
  /// in a fresh engine from the follower's factory. Sessions (and their
  /// delta buffers) survive, so attached subscribers keep their streams;
  /// the follower re-applies from a new anchor afterwards.
  Status ResetFollowerState();

  /// Manual promotion: turns this follower into a leader in place. The
  /// caller must have stopped feeding ApplyReplicated first (the
  /// ReplicaFollower's Promote does). Ingest id/timestamp sequences
  /// resume from the replay bookkeeping, a journal writer re-opens over
  /// options.journal.dir (resuming the shipped segments with a fresh
  /// snapshot-anchored segment), and the cycle driver starts. After Ok,
  /// writes are accepted.
  Status Promote();

  /// Election promotion: like Promote(), but the caller names the new
  /// fencing epoch, which must exceed the highest epoch this service has
  /// observed. The epoch is durably persisted (EPOCH file in the journal
  /// dir) *before* the role flips, so a crash mid-promotion can never
  /// produce a leader serving at a stale epoch. Promote() delegates here
  /// with MintFencingEpoch(observed, kOperatorFencingRank) — see lease.h
  /// for why minted epochs carry the minter's rank.
  Status Promote(std::uint64_t new_epoch);

  ServiceRole role() const {
    return role_.load(std::memory_order_acquire);
  }

  /// This node's clock (util/clock.h): lease start, renewal and expiry,
  /// the session token buckets, the journal's group-commit interval and
  /// a follower's fetch silence are read on it. Tests freeze and advance
  /// it; sockets and latency histograms never read it.
  Clock& clock() { return clock_; }
  const Clock& clock() const { return clock_; }

  // ---- leader lease / fencing (v5; see src/replica/lease.h) -----------
  /// The highest fencing epoch this service has adopted or observed.
  std::uint64_t fencing_epoch() const {
    return fencing_epoch_.load(std::memory_order_acquire);
  }

  /// Whether a lease was configured (ServiceOptions::lease.enabled).
  bool lease_enabled() const { return lease_ != nullptr; }

  /// True once this leader has fenced itself (lease lapsed or a higher
  /// epoch was observed — the latter fences even lease-less leaders).
  /// Sticky; always false on followers. The Status probe ships this
  /// latch because role() keeps answering kLeader after deposition.
  bool IsFenced() const {
    return fenced_.load(std::memory_order_acquire);
  }

  /// Records follower contact (the TCP server calls this per ReplFetch
  /// served): renews the leader lease. A fenced leader stays fenced —
  /// late follower traffic must not resurrect a deposed leader.
  void NoteFollowerContact();

  /// Adopts `epoch` if it exceeds the highest epoch seen so far,
  /// persisting it next to the journal. A *leader* observing a higher
  /// epoch has provably been deposed and fences itself immediately
  /// (without waiting for the lease to lapse). Called by the follower
  /// pump with every shipped chunk's epoch and by the failover agent
  /// with election results.
  Status ObserveFencingEpoch(std::uint64_t epoch);

  /// Role + apply/leader cycle progress (the staleness bound follower
  /// reads carry).
  ReplicationInfo replication() const;

  /// Follower-side: records the leader's cycle progress as learned from
  /// the last shipped chunk (feeds replication().leader_cycle_ts).
  void SetLeaderProgress(Timestamp leader_cycle_ts);

  /// Follower re-targeting after a failover: updates the leader
  /// endpoint surfaced in write-refusal redirects and replication(), so
  /// clients bounced off this follower are pointed at the *new* leader.
  void SetLeaderEndpoint(std::string endpoint);

  /// Monotone counter bumped on every journal append/rotation — the
  /// cheap "did the journal grow" probe the TCP server's parked
  /// replication fetches poll, mirroring PendingDeltas for long-polls.
  std::uint64_t JournalProgress() const {
    return journal_progress_.load(std::memory_order_acquire);
  }

  /// Records out-of-band journal growth. On a follower the journal dir
  /// grows through the ReplicaFollower's ship path, not this service's
  /// writer; the pump calls this after persisting a chunk so a *chained*
  /// follower's parked fetch on this node wakes immediately instead of
  /// at its long-poll deadline. Fires the progress listeners.
  void NoteJournalGrowth();

  /// Registers a callback fired from the driver / replication-apply
  /// threads whenever delta events may have been published or the
  /// journal grew — the cross-thread wakeup a poll-based front-end uses
  /// to answer parked long-polls and replication fetches promptly
  /// instead of waiting out its poll tick. Listeners run with an
  /// internal lock held and must be cheap and reentrancy-free (write a
  /// byte to a pipe; never call back into the service). Returns an id
  /// for RemoveProgressListener.
  std::uint64_t AddProgressListener(std::function<void()> listener);
  void RemoveProgressListener(std::uint64_t id);

  /// Backpressure probe: 0 while the ingest queue sits below its
  /// high-water mark, else its fullness scaled into 1..255 (255 = at
  /// capacity). Surfaced to remote producers as the IngestAck
  /// queue_hint byte (protocol v3) so they self-pace.
  std::uint8_t IngestPressure() const;

  /// The journal directory this service writes (leader) or ships into
  /// (follower); empty when journaling is off.
  const std::string& journal_dir() const { return options_.journal.dir; }

  // ---- control / observability ----------------------------------------
  /// Blocks until every record pushed before the call has been applied to
  /// the engine (forces the slack gate open). FailedPrecondition after
  /// Shutdown.
  Status Flush();

  /// Graceful stop: close ingest, flush buffered records through final
  /// cycles, join the driver. Idempotent; buffered delta events remain
  /// pollable afterwards.
  void Shutdown();

  ServiceStats stats() const;

  // ---- admin plane (src/obs/) -----------------------------------------
  /// The node's metric registry. Attached components (TcpServer,
  /// ReplicaFollower, FailoverAgent) register samplers here so one
  /// scrape covers the whole node; the registry lives exactly as long
  /// as the service.
  MetricsRegistry& metrics() { return metrics_; }

  /// The admin endpoint's bound TCP port; 0 when options.admin.enabled
  /// is false or the bind failed (the failure is in admin_status()).
  std::uint16_t admin_port() const;

  /// Ok when the admin endpoint is serving or disabled; the bind/start
  /// error otherwise (the service still runs — admin is best-effort).
  Status admin_status() const;

  /// The recovery outcome when this service was constructed via Open();
  /// a default (recovered=false) report otherwise.
  const RecoveryReport& recovery() const { return recovery_; }

  /// Durability barrier: fdatasyncs any journal appends the sync policy
  /// has not pushed to the platter yet (the group-commit ack point —
  /// Flush() only fences engine *apply*, never durability). Ok when
  /// journaling is off or nothing is pending; FailedPrecondition after
  /// the journal is sealed by Shutdown.
  Status SyncJournal();

  /// Ok while journaling is healthy (or disabled). A failed journal open
  /// at construction, or the first append error, is recorded here; the
  /// service keeps serving (availability over durability) with the gap
  /// also counted in stats().journal_failures.
  Status journal_status() const;

  /// Engine counters and memory, including the service's own buffers.
  const std::string& engine_name() const { return engine_name_; }
  EngineStats EngineCounters() const;
  MemoryBreakdown Memory() const;

  /// Installs a hook invoked by the driver thread with every (cycle
  /// timestamp, arrival batch) right before it is applied — the seam for
  /// journaling/persistence and for tests that need ground truth replay.
  /// The span views the driver's reusable batch vector and is only valid
  /// for the duration of the call; copy whatever must outlive it.
  using CycleObserver = std::function<void(Timestamp, RecordSpan)>;
  void SetCycleObserver(CycleObserver observer);

 private:
  /// Where a leader term picks up: fresh defaults, or the replay
  /// bookkeeping of a recovered (Open) or replicated (Promote) journal.
  struct LeaderStart {
    RecordId next_record_id = 0;
    Timestamp min_timestamp = std::numeric_limits<Timestamp>::min();
    std::uint64_t next_query_id = 1;
    std::vector<JournaledQuery> live_queries;
    /// Resume the directory (a failed open fails the start) rather than
    /// start a fresh journal (a failed open only marks journal_status()).
    bool resume_journal = false;
  };

  /// Shared by the public constructor, Open() and OpenFollower(): brings
  /// up the admin plane and the delta fan-out and starts nothing; the
  /// service is a follower until StartLeaderLocked.
  MonitorService(std::unique_ptr<MonitorEngine> engine,
                 const ServiceOptions& options, RecoveryReport recovery);

  /// The one leader start (the file comment lists its steps). Caller
  /// holds engine_mu_.
  Status StartLeaderLocked(LeaderStart from);

  void DriverLoop();
  bool NeedsFlush() const;

  /// Fires every registered progress listener (see AddProgressListener).
  void NotifyProgress();

  /// The write gate: the redirect status on a follower, FENCED on a
  /// leader whose lease lapsed (latched in fenced_) or that observed a
  /// higher epoch, else Ok.
  Status RefuseWrite();

  /// The four single-tuple ingest calls: gate, session tokens (when
  /// `session` is set), validation, then the queue.
  Status IngestOne(const SessionId* session, Point position,
                   Timestamp arrival, bool block);

  /// Applier hooks routing replicated query lifetime events through
  /// AdoptSession, BindQuery and DropQueryLocked. Caller holds
  /// control_mu_ and engine_mu_ during applier calls.
  JournalApplier::Hooks FollowerHooks();

  /// The oldest open session with this label, else a new one.
  Result<SessionId> AdoptSession(const std::string& label);

  /// Admits `spec` to `session`, binds its subscription, then runs
  /// `engine_register`, undoing the earlier steps if a later one fails.
  /// Caller holds control_mu_.
  template <typename EngineRegisterFn>
  Status BindQuery(SessionId session, const QuerySpec& spec,
                   EngineRegisterFn&& engine_register);

  /// Journals the unregister, unregisters from the engine, unbinds,
  /// releases and forgets the journaled spec; returns the engine's
  /// status. Caller holds control_mu_ and engine_mu_.
  Status DropQueryLocked(QueryId query);

  /// The journal anchor of the current state: the engine's window, the
  /// live queries and the id allocators, read in place while encoded.
  /// Caller must hold engine_mu_ for as long as the anchor is used.
  SnapshotAnchor AnchorLocked() const;

  /// Rotates the journal onto a fresh segment anchored by AnchorLocked().
  /// Caller must hold engine_mu_.
  void RotateJournalLocked();

  /// Counts a journal fault and keeps the first one as journal_status().
  void RecordJournalFault(const Status& st);

  /// Appends one record via `append`, tracking failures; holds the
  /// journal healthy/unhealthy accounting in one place. Caller must hold
  /// engine_mu_. No-op (Ok) when journaling is off.
  template <typename AppendFn>
  Status JournalAppendLocked(AppendFn&& append);

  /// Registers the service's owned instruments (latency histograms) and
  /// its scrape-time sampler, injects the delivery histogram into the hub
  /// (the leader start gives the writer its fsync histogram), and — when
  /// options.admin.enabled — starts the admin HTTP endpoint.
  /// Constructor-only.
  void SetupObservability();

  /// Admin endpoint handlers (run on the admin thread).
  AdminResponse ServeMetrics() const;
  AdminResponse ServeStatusz() const;
  AdminResponse ServeHealthz() const;

  /// Bridges the service's own counters/gauges into a scrape.
  void SampleServiceMetrics(MetricSink& sink) const;

  const ServiceOptions options_;
  std::unique_ptr<MonitorEngine> engine_;
  const int dim_;
  const std::string engine_name_;
  const RecoveryReport recovery_;
  /// Declared before journal_, whose writer reads it until it closes.
  Clock clock_;

  /// Admin-plane metric store. Declared before every component that
  /// records into its instruments (hub_, journal_) so it is destroyed
  /// after them; the raw LatencyHistogram pointers handed out below
  /// stay valid for the components' whole lifetime.
  MetricsRegistry metrics_;
  LatencyHistogram* ingest_publish_hist_ = nullptr;
  LatencyHistogram* delta_delivery_hist_ = nullptr;
  LatencyHistogram* journal_fsync_hist_ = nullptr;

  IngestQueue ingest_;
  SessionManager sessions_;
  SubscriptionHub hub_;

  /// Serializes every engine call (driver cycles and client operations).
  mutable std::mutex engine_mu_;

  /// Serializes control-plane operations (Register / Unregister /
  /// CloseSession): admission, hub binding and engine registration must
  /// be atomic with respect to a concurrent session close, or a racing
  /// Close could strand a just-registered query in the engine with no
  /// owner. Always acquired before engine_mu_, never by the driver.
  std::mutex control_mu_;

  std::atomic<QueryId> next_query_id_{1};

  /// Replication state. role_ flips at most once, to kLeader, in
  /// StartLeaderLocked. The applier and its bookkeeping are only touched
  /// under engine_mu_; the progress timestamps are atomics so reads
  /// (snapshot staleness, parked fetch probes) never take the engine
  /// lock.
  std::atomic<ServiceRole> role_{ServiceRole::kFollower};
  std::function<std::unique_ptr<MonitorEngine>()> engine_factory_;
  /// Guarded by leader_endpoint_mu_: rewritten by SetLeaderEndpoint when
  /// a failover re-targets this follower, read on every refused write.
  mutable std::mutex leader_endpoint_mu_;
  std::string leader_endpoint_;
  std::unique_ptr<JournalApplier> applier_;
  std::atomic<Timestamp> applied_cycle_ts_{0};
  std::atomic<Timestamp> leader_cycle_ts_{0};
  std::atomic<std::uint64_t> journal_progress_{0};

  /// Lease + fencing state (v5). lease_ is only constructed when
  /// options.lease.enabled; fencing_epoch_ is a monotone max across
  /// Promote() and ObserveFencingEpoch(); fenced_ latches true when
  /// this leader's lease lapses or a higher epoch appears, and is never
  /// cleared (only a leader latches it, and a service leads at most
  /// once). epoch_mu_ serializes the
  /// persist-then-publish of a raised epoch (the EPOCH file must be
  /// durable before the in-memory epoch moves — a failed persist stays
  /// retryable); readers of fencing_epoch_ never take it.
  std::unique_ptr<FencingLease> lease_;
  mutable std::mutex epoch_mu_;
  std::atomic<std::uint64_t> fencing_epoch_{0};
  std::atomic<bool> fenced_{false};

  /// Progress listeners (parked-wakeup hooks for front-ends). Guarded by
  /// its own mutex; never acquired while holding engine_mu_ callbacks
  /// back into the service (listeners must not re-enter).
  mutable std::mutex listeners_mu_;
  std::vector<std::pair<std::uint64_t, std::function<void()>>> listeners_;
  std::uint64_t next_listener_id_ = 1;

  /// Journal state. The writer and the journaled-query registry (the live
  /// specs a snapshot must carry) are only touched under engine_mu_,
  /// which keeps journal record order identical to engine apply order
  /// (and lets the leader start assign journal_ while the admin thread
  /// may already be scraping).
  std::unique_ptr<CycleJournalWriter> journal_;
  std::vector<JournaledQuery> journaled_queries_;  ///< registration order
  mutable std::mutex journal_status_mu_;
  Status journal_status_;
  std::atomic<std::uint64_t> journal_failures_{0};

  // Driver / flush coordination.
  mutable std::mutex state_mu_;
  std::condition_variable flush_cv_;
  CycleObserver observer_;
  std::uint64_t applied_records_ = 0;
  /// Of applied_records_, how many arrived via replication rather than
  /// the ingest queue. Flush() fences queue drains against queue pushes,
  /// so on a promoted leader the replicated majority must be excluded —
  /// otherwise the fence is trivially satisfied and Flush() returns
  /// before the first post-promotion write is applied.
  std::uint64_t replicated_records_ = 0;
  std::uint64_t flush_fence_ = 0;  ///< drain at least this many pushes
  std::uint64_t cycles_ = 0;
  std::uint64_t failed_cycles_ = 0;
  bool stopped_ = false;

  std::mutex shutdown_mu_;
  bool shutdown_requested_ = false;

  /// Admin endpoint (nullptr unless options.admin.enabled). Declared
  /// after everything its handlers read, so destruction stops the admin
  /// thread first; Shutdown() also stops it explicitly.
  std::unique_ptr<AdminHttpServer> admin_;
  Status admin_status_;

  std::thread driver_;
};

}  // namespace topkmon

#endif  // TOPKMON_SERVICE_MONITOR_SERVICE_H_
