#include "service/monitor_service.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <sstream>
#include <utility>

#include "common/geometry.h"

namespace topkmon {

std::string ServiceStats::ToString() const {
  std::ostringstream os;
  os << "cycles=" << cycles << " ingested=" << records_ingested
     << " applied=" << records_applied << " shed=" << records_shed
     << " coerced=" << records_coerced
     << " rate_limited=" << records_rate_limited
     << " published=" << deltas_published
     << " delivered=" << deltas_delivered << " dropped=" << deltas_dropped
     << " failed_cycles=" << failed_cycles << " queue_depth=" << queue_depth
     << " sessions=" << open_sessions << " queries=" << active_queries;
  if (journal_records > 0 || journal_bytes > 0 || journal_failures > 0) {
    os << " journal_records=" << journal_records
       << " journal_bytes=" << journal_bytes
       << " journal_snapshots=" << journal_snapshots
       << " journal_failures=" << journal_failures;
  }
  return os.str();
}

MonitorService::MonitorService(std::unique_ptr<MonitorEngine> engine,
                               const ServiceOptions& options)
    : MonitorService(std::move(engine), options, RecoveryReport{}) {
  // A fresh journal: a directory that already holds segments only marks
  // journal_status(), and the service serves on unjournaled.
  std::lock_guard<std::mutex> lock(engine_mu_);
  StartLeaderLocked(LeaderStart{});
}

MonitorService::MonitorService(std::unique_ptr<MonitorEngine> engine,
                               const ServiceOptions& options,
                               RecoveryReport recovery)
    : options_(options),
      engine_(std::move(engine)),
      dim_(engine_->dim()),
      engine_name_(engine_->name()),
      recovery_(std::move(recovery)),
      epoch_(std::chrono::steady_clock::now()),
      ingest_(options.ingest, dim_),
      sessions_(options.session),
      hub_(options.hub) {
  assert(engine_ != nullptr);
  applied_cycle_ts_.store(recovery_.last_cycle_ts,
                          std::memory_order_release);
  leader_cycle_ts_.store(recovery_.last_cycle_ts,
                         std::memory_order_release);
  // Adopt the persisted fencing epoch before serving: a restarted old
  // leader must come back at the epoch it was deposed at (or its own
  // last term), never at 0. A corrupt EPOCH file is recorded like a
  // journal fault; the service serves at epoch 0 with the gap visible.
  if (!options_.journal.dir.empty()) {
    auto epoch = ReadFencingEpoch(options_.journal.dir);
    if (epoch.ok()) {
      fencing_epoch_.store(*epoch, std::memory_order_release);
    } else {
      RecordJournalFault(epoch.status());
    }
  }
  // The leader start arms it; a follower never reads it.
  if (options_.lease.enabled) {
    lease_ = std::make_unique<FencingLease>(options_.lease.duration_seconds);
  }
  // Instruments (and the admin endpoint) come up before the fan-out is
  // installed and before the driver starts: the delivery histogram must
  // be in place when the first delta is published.
  SetupObservability();
  // Install the fan-out before any query can register or any cycle run,
  // so the very first delta (a query's initial result) is routed.
  engine_->SetDeltaCallback(
      [this](const ResultDelta& delta) { hub_.Publish(delta); });
}

MonitorService::~MonitorService() { Shutdown(); }

Result<std::unique_ptr<MonitorService>> MonitorService::Open(
    const std::function<std::unique_ptr<MonitorEngine>()>& engine_factory,
    const ServiceOptions& options) {
  if (options.journal.dir.empty()) {
    return Status::InvalidArgument(
        "MonitorService::Open requires options.journal.dir; use the "
        "constructor for an unjournaled service");
  }
  std::unique_ptr<MonitorEngine> engine = engine_factory();
  if (engine == nullptr) {
    return Status::InvalidArgument("engine factory returned null");
  }
  auto report = RecoveryDriver::Replay(options.journal.dir, *engine);
  if (!report.ok()) return report.status();
  std::unique_ptr<MonitorService> service(
      new MonitorService(std::move(engine), options, std::move(*report)));
  const RecoveryReport& recovered = service->recovery_;

  // Adopt before the leader start: a refused adoption returns here,
  // before any segment is written or garbage-collected.
  {
    std::lock_guard<std::mutex> control(service->control_mu_);
    for (const JournaledQuery& q : recovered.live_queries) {
      Result<SessionId> session = service->AdoptSession(q.owner_label);
      // Replay already registered the query with the engine.
      const Status st =
          session.ok() ? service->BindQuery(*session, q.spec,
                                            [] { return Status::Ok(); })
                       : session.status();
      if (!st.ok()) {
        return Status(st.code(), "adopting recovered query " +
                                     std::to_string(q.spec.id) +
                                     " for session '" + q.owner_label +
                                     "': " + st.message());
      }
    }
  }
  // On a first boot the report holds the defaults, so this anchors an
  // empty window and leaves the ingest sequences where they start.
  {
    std::lock_guard<std::mutex> lock(service->engine_mu_);
    TOPKMON_RETURN_IF_ERROR(service->StartLeaderLocked(LeaderStart{
        recovered.next_record_id,
        recovered.recovered ? recovered.last_cycle_ts
                            : std::numeric_limits<Timestamp>::min(),
        recovered.next_query_id, recovered.live_queries,
        /*resume_journal=*/true}));
  }
  return service;
}

Result<std::unique_ptr<MonitorService>> MonitorService::OpenFollower(
    const std::function<std::unique_ptr<MonitorEngine>()>& engine_factory,
    const ServiceOptions& options, std::string leader_endpoint) {
  if (!engine_factory) {
    return Status::InvalidArgument("engine factory is empty");
  }
  std::unique_ptr<MonitorEngine> engine = engine_factory();
  if (engine == nullptr) {
    return Status::InvalidArgument("engine factory returned null");
  }
  std::unique_ptr<MonitorService> service(
      new MonitorService(std::move(engine), options, RecoveryReport{}));
  // Safe post-ctor: a follower starts no driver thread, and nothing can
  // feed ApplyReplicated before this function returns the service.
  service->engine_factory_ = engine_factory;
  service->applier_ = std::make_unique<JournalApplier>(
      *service->engine_, service->FollowerHooks());
  service->SetLeaderEndpoint(std::move(leader_endpoint));
  return service;
}

Status MonitorService::StartLeaderLocked(LeaderStart from) {
  // New ingest continues the journal's record ids and cannot time-travel
  // behind its last cycle; new registrations continue its query ids.
  TOPKMON_RETURN_IF_ERROR(
      ingest_.ResumeSequences(from.next_record_id, from.min_timestamp));
  next_query_id_ = static_cast<QueryId>(from.next_query_id);
  journaled_queries_ = std::move(from.live_queries);
  if (!options_.journal.dir.empty()) {
    auto writer = CycleJournalWriter::Open(options_.journal, AnchorLocked(),
                                           from.resume_journal);
    if (writer.ok()) {
      journal_ = std::move(*writer);
      journal_->set_fsync_histogram(journal_fsync_hist_);
      journal_progress_.fetch_add(1, std::memory_order_release);
    } else if (from.resume_journal) {
      // Recovered or replicated state never serves unjournaled.
      return writer.status();
    } else {
      RecordJournalFault(writer.status());
    }
  }
  // Armed at the start of the term, so a leader with no follower
  // attached yet has the full lease duration to acquire one.
  if (lease_ != nullptr) lease_->Start(NowSeconds());
  role_.store(ServiceRole::kLeader, std::memory_order_release);
  driver_ = std::thread([this] { DriverLoop(); });
  return Status::Ok();
}

Result<SessionId> MonitorService::AdoptSession(const std::string& label) {
  Result<SessionId> found = sessions_.FindByLabel(label);
  if (found.ok()) return found;
  return OpenSession(label);
}

template <typename EngineRegisterFn>
Status MonitorService::BindQuery(SessionId session, const QuerySpec& spec,
                                 EngineRegisterFn&& engine_register) {
  TOPKMON_RETURN_IF_ERROR(sessions_.Admit(session, spec.id, spec.k));
  // Bind before registering: the engine reports the initial result as a
  // delta synchronously from RegisterQuery.
  Status st = hub_.Bind(spec.id, session);
  if (st.ok()) {
    st = engine_register();
    if (!st.ok()) hub_.Unbind(spec.id);
  }
  if (!st.ok()) sessions_.Release(spec.id);
  return st;
}

Status MonitorService::DropQueryLocked(QueryId query) {
  // Write-ahead: the termination is journaled before it is applied, so a
  // crash in between forgets the query rather than resurrecting it.
  JournalAppendLocked(
      [query](CycleJournalWriter& w) { return w.AppendUnregister(query); });
  const Status st = engine_->UnregisterQuery(query);
  hub_.Unbind(query);
  // NotFound after SessionManager::Close, which already released it.
  sessions_.Release(query);
  journaled_queries_.erase(
      std::remove_if(
          journaled_queries_.begin(), journaled_queries_.end(),
          [query](const JournaledQuery& q) { return q.spec.id == query; }),
      journaled_queries_.end());
  return st;
}

double MonitorService::NowSeconds() const {
  if (clock_overridden_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(clock_mu_);
    if (clock_override_) return clock_override_();
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void MonitorService::SetClockForTesting(std::function<double()> clock) {
  {
    std::lock_guard<std::mutex> lock(clock_mu_);
    clock_override_ = std::move(clock);
    clock_overridden_.store(static_cast<bool>(clock_override_),
                            std::memory_order_release);
  }
  // Re-arm the lease on the new time base: its last renewal was recorded
  // on the old clock and mixing bases would make expiry arithmetic
  // meaningless mid-test.
  if (lease_ != nullptr) lease_->Start(NowSeconds());
}

template <typename AppendFn>
Status MonitorService::JournalAppendLocked(AppendFn&& append) {
  if (journal_ == nullptr) return Status::Ok();
  const std::uint64_t bytes_before = journal_->stats().bytes_written;
  Status st = append(*journal_);
  // Unimplemented is the writer refusing a non-journalable input (the
  // caller's registration is rejected, nothing was written) — the
  // journal itself is still healthy.
  if (!st.ok() && st.code() != StatusCode::kUnimplemented) {
    RecordJournalFault(st);
  }
  if (journal_->stats().bytes_written != bytes_before) {
    // Wakes parked replication fetches: the journal grew.
    journal_progress_.fetch_add(1, std::memory_order_release);
  }
  return st;
}

Status MonitorService::SyncJournal() {
  std::lock_guard<std::mutex> lock(engine_mu_);
  return JournalAppendLocked(
      [](CycleJournalWriter& w) { return w.Sync(); });
}

void MonitorService::RecordJournalFault(const Status& st) {
  journal_failures_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(journal_status_mu_);
  if (journal_status_.ok()) journal_status_ = st;
}

Status MonitorService::journal_status() const {
  std::lock_guard<std::mutex> lock(journal_status_mu_);
  return journal_status_;
}

Status MonitorService::RefuseWrite() {
  if (role_.load(std::memory_order_acquire) == ServiceRole::kFollower) {
    std::string detail = "service is a read-only replication follower";
    std::lock_guard<std::mutex> lock(leader_endpoint_mu_);
    if (!leader_endpoint_.empty()) {
      detail +=
          " (redirect writes to the leader at " + leader_endpoint_ + ")";
    }
    return Status::FailedPrecondition(std::move(detail));
  }
  // Even a leader running without a lease (a promoted replica whose
  // operator opted out of self-fencing) honors the fenced_ latch: once a
  // higher epoch was observed, a newer leader exists somewhere.
  if (!fenced_.load(std::memory_order_acquire)) {
    if (lease_ == nullptr || !lease_->Expired(NowSeconds())) {
      return Status::Ok();
    }
    // Latch: a late follower fetch renewing the lease after this point
    // must not resurrect the term — a new leader may already exist.
    fenced_.store(true, std::memory_order_release);
  }
  return Status::Fenced(
      "leader lease lapsed (fencing epoch " +
      std::to_string(fencing_epoch_.load(std::memory_order_acquire)) +
      "); writes are refused here — re-resolve to the current leader");
}

void MonitorService::NoteFollowerContact() {
  if (lease_ == nullptr ||
      role_.load(std::memory_order_acquire) != ServiceRole::kLeader ||
      fenced_.load(std::memory_order_acquire)) {
    return;
  }
  lease_->Renew(NowSeconds());
}

Status MonitorService::ObserveFencingEpoch(std::uint64_t epoch) {
  if (epoch <= fencing_epoch_.load(std::memory_order_acquire)) {
    return Status::Ok();
  }
  std::lock_guard<std::mutex> lock(epoch_mu_);
  if (epoch <= fencing_epoch_.load(std::memory_order_acquire)) {
    return Status::Ok();
  }
  if (role_.load(std::memory_order_acquire) == ServiceRole::kLeader) {
    // A higher epoch is proof of a completed election: this leader is
    // deposed regardless of what its lease clock says. Latched before
    // the persist — in-memory deposition needs no durability, and a
    // failed persist must not leave a provably deposed leader serving.
    fenced_.store(true, std::memory_order_release);
  }
  if (!options_.journal.dir.empty()) {
    // Persist BEFORE publishing the raised epoch: were the in-memory
    // epoch raised first, a failed persist would make every retry of
    // this call a no-op (epoch <= seen above) and the epoch would never
    // reach disk — a crashed-and-restarted deposed leader could then
    // come back believing in its old term, exactly what the EPOCH file
    // exists to prevent. Callers treat a failure here as retryable (the
    // follower pump backs off and calls again), and the unpublished
    // epoch makes that retry do real work.
    TOPKMON_RETURN_IF_ERROR(
        WriteFencingEpoch(options_.journal.dir, epoch));
  }
  fencing_epoch_.store(epoch, std::memory_order_release);
  return Status::Ok();
}

Status MonitorService::Ingest(Point position, Timestamp arrival) {
  return IngestOne(nullptr, std::move(position), arrival, /*block=*/true);
}

Status MonitorService::TryIngest(Point position, Timestamp arrival) {
  return IngestOne(nullptr, std::move(position), arrival, /*block=*/false);
}

Status MonitorService::Ingest(SessionId session, Point position,
                              Timestamp arrival) {
  return IngestOne(&session, std::move(position), arrival, /*block=*/true);
}

Status MonitorService::TryIngest(SessionId session, Point position,
                                 Timestamp arrival) {
  return IngestOne(&session, std::move(position), arrival, /*block=*/false);
}

Status MonitorService::IngestOne(const SessionId* session, Point position,
                                 Timestamp arrival, bool block) {
  TOPKMON_RETURN_IF_ERROR(RefuseWrite());
  if (session != nullptr) {
    TOPKMON_RETURN_IF_ERROR(
        sessions_.ConsumeIngestTokens(*session, 1.0, NowSeconds()));
  }
  TOPKMON_RETURN_IF_ERROR(ValidatePoint(position, dim_));
  if (block) return ingest_.Push(std::move(position), arrival);
  if (ingest_.TryPush(std::move(position), arrival)) return Status::Ok();
  if (ingest_.closed()) {
    return Status::FailedPrecondition("ingest queue is closed");
  }
  // The distinguished backpressure code: callers (and remote producers,
  // via the IngestAck queue_hint) back off and retry instead of
  // treating this as a hard failure.
  return Status::ResourceExhausted("ingest queue is full");
}

std::size_t MonitorService::TryIngestBatch(SessionId session,
                                          RecordSpan records,
                                          Status* error) {
  *error = RefuseWrite();
  if (!error->ok()) return 0;
  const std::size_t n = records.size();
  if (n == 0) return 0;
#ifndef NDEBUG
  // Records were validated once, at the frame boundary
  // (DecodeIngestBody); re-validating per record here would undo the
  // single-validation contract, so only debug builds assert it.
  for (const Record& r : records) {
    assert(ValidatePoint(r.position, dim_).ok());
    assert(r.arrival >= 0);
  }
#endif
  Status rate_refusal;
  const std::size_t granted = sessions_.ConsumeUpToIngestTokens(
      session, n, NowSeconds(), &rate_refusal);
  const std::size_t pushed =
      granted == 0 ? 0 : ingest_.PushBatch(records.subspan(0, granted));
  if (pushed < granted) {
    *error = ingest_.closed()
                 ? Status::FailedPrecondition("ingest queue is closed")
                 : Status::ResourceExhausted("ingest queue is full");
  } else if (granted < n) {
    *error = rate_refusal;
  }
  return pushed;
}

Result<SessionId> MonitorService::OpenSession(std::string label) {
  Result<SessionId> id = sessions_.Open(std::move(label));
  if (id.ok()) hub_.Attach(*id);
  return id;
}

Result<SessionId> MonitorService::FindSession(const std::string& label) const {
  return sessions_.FindByLabel(label);
}

Status MonitorService::CloseSession(SessionId session) {
  std::lock_guard<std::mutex> control(control_mu_);
  // Only a session that owns queries is refused. On a follower those are
  // *replicated* queries (clients cannot register here), and closing it
  // would unregister them locally and silently diverge from the leader;
  // on a fenced leader it would journal unregisters under a deposed
  // term. A session that owns nothing is pure local state: short-lived
  // follower readers must be able to release theirs or they pile into
  // the session limit. control_mu_ serializes this check against
  // replicated registrations.
  if (Status refused = RefuseWrite(); !refused.ok()) {
    const auto owned = sessions_.QueryCount(session);
    if (!owned.ok()) return owned.status();
    if (*owned > 0) return refused;
  }
  Result<std::vector<QueryId>> owned = sessions_.Close(session);
  if (!owned.ok()) return owned.status();
  Status first_error;
  for (QueryId query : *owned) {
    std::lock_guard<std::mutex> lock(engine_mu_);
    const Status st = DropQueryLocked(query);
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  hub_.Detach(session);
  return first_error;
}

Result<QueryId> MonitorService::Register(SessionId session, QuerySpec spec) {
  TOPKMON_RETURN_IF_ERROR(RefuseWrite());
  std::lock_guard<std::mutex> control(control_mu_);
  spec.id = next_query_id_.fetch_add(1);
  TOPKMON_RETURN_IF_ERROR(spec.Validate(dim_));
  Result<std::string> label = sessions_.Label(session);
  if (!label.ok()) return label.status();
  TOPKMON_RETURN_IF_ERROR(BindQuery(session, spec, [&]() -> Status {
    std::lock_guard<std::mutex> lock(engine_mu_);
    JournaledQuery journaled{spec, std::move(*label)};
    const Status js = JournalAppendLocked([&journaled](
        CycleJournalWriter& w) { return w.AppendRegister(journaled); });
    // A spec the journal cannot encode must be refused outright — it
    // would silently vanish on recovery. I/O failures degrade to
    // journal_failures instead (availability over durability).
    if (js.code() == StatusCode::kUnimplemented) return js;
    const Status st = engine_->RegisterQuery(spec);
    if (st.ok()) {
      journaled_queries_.push_back(std::move(journaled));
    } else if (js.ok()) {
      // Compensate so replay unregisters what the engine refused.
      JournalAppendLocked([&spec](CycleJournalWriter& w) {
        return w.AppendUnregister(spec.id);
      });
    }
    return st;
  }));
  return spec.id;
}

Status MonitorService::Unregister(SessionId session, QueryId query) {
  TOPKMON_RETURN_IF_ERROR(RefuseWrite());
  std::lock_guard<std::mutex> control(control_mu_);
  Result<SessionId> owner = sessions_.Owner(query);
  if (!owner.ok()) return owner.status();
  if (*owner != session) {
    return Status::FailedPrecondition(
        "query id " + std::to_string(query) + " is owned by session " +
        std::to_string(*owner) + ", not " + std::to_string(session));
  }
  std::lock_guard<std::mutex> lock(engine_mu_);
  return DropQueryLocked(query);
}

Result<std::vector<ResultEntry>> MonitorService::CurrentResult(
    QueryId query) const {
  std::lock_guard<std::mutex> lock(engine_mu_);
  return engine_->CurrentResult(query);
}

Result<SessionId> MonitorService::QueryOwner(QueryId query) const {
  return sessions_.Owner(query);
}

JournalApplier::Hooks MonitorService::FollowerHooks() {
  JournalApplier::Hooks hooks;
  // Both hooks run with control_mu_ + engine_mu_ held by the apply path.
  // Adoption by owner label, exactly like recovery: a follower client
  // resuming the leader-side label reads the replica of its queries.
  hooks.register_query = [this](const JournaledQuery& q) -> Status {
    Result<SessionId> session = AdoptSession(q.owner_label);
    if (!session.ok()) return session.status();
    return BindQuery(*session, q.spec,
                     [this, &q] { return engine_->RegisterQuery(q.spec); });
  };
  hooks.unregister_query = [this](QueryId id) {
    return DropQueryLocked(id);
  };
  return hooks;
}

Status MonitorService::ApplyReplicatedAnchor(JournalSnapshot anchor) {
  if (role_.load(std::memory_order_acquire) != ServiceRole::kFollower) {
    return Status::FailedPrecondition(
        "ApplyReplicatedAnchor on a leader service");
  }
  std::lock_guard<std::mutex> control(control_mu_);
  std::lock_guard<std::mutex> lock(engine_mu_);
  TOPKMON_RETURN_IF_ERROR(applier_->ApplyAnchor(std::move(anchor)));
  applied_cycle_ts_.store(applier_->last_cycle_ts(),
                          std::memory_order_release);
  return Status::Ok();
}

Status MonitorService::ApplyReplicated(const JournalRecord& record) {
  if (role_.load(std::memory_order_acquire) != ServiceRole::kFollower) {
    return Status::FailedPrecondition("ApplyReplicated on a leader service");
  }
  if (record.type == JournalRecordType::kCycle) {
    CycleObserver observer;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      observer = observer_;
    }
    // Same seam the driver offers: tests replay the observed cycles into
    // a reference engine for ground truth.
    if (observer) observer(record.cycle_ts, record.batch);
    Status st;
    {
      std::lock_guard<std::mutex> lock(engine_mu_);
      st = applier_->Apply(record);
      if (st.ok()) {
        applied_cycle_ts_.store(applier_->last_cycle_ts(),
                                std::memory_order_release);
      }
    }
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      if (st.ok()) {
        applied_records_ += record.batch.size();
        replicated_records_ += record.batch.size();
        ++cycles_;
      } else {
        ++failed_cycles_;
      }
    }
    // The replayed cycle may have published deltas into the hub: wake
    // any front-end with parked long-polls on this follower.
    if (st.ok()) NotifyProgress();
    return st;
  }
  std::lock_guard<std::mutex> control(control_mu_);
  std::lock_guard<std::mutex> lock(engine_mu_);
  return applier_->Apply(record);
}

Status MonitorService::ResetFollowerState() {
  if (role_.load(std::memory_order_acquire) != ServiceRole::kFollower) {
    return Status::FailedPrecondition("ResetFollowerState on a leader");
  }
  std::lock_guard<std::mutex> control(control_mu_);
  std::lock_guard<std::mutex> lock(engine_mu_);
  std::unique_ptr<MonitorEngine> fresh = engine_factory_();
  if (fresh == nullptr) {
    return Status::Internal("engine factory returned null on resync");
  }
  if (fresh->dim() != dim_) {
    return Status::FailedPrecondition(
        "resync engine dimensionality changed");
  }
  // Drop every replicated query binding; sessions (and buffered deltas)
  // survive so attached subscribers keep their streams across the
  // resync — the new anchor re-registers the live set under the same
  // labels and ids.
  for (const JournaledQuery& q : applier_->live_queries()) {
    DropQueryLocked(q.spec.id);
  }
  engine_ = std::move(fresh);
  engine_->SetDeltaCallback(
      [this](const ResultDelta& delta) { hub_.Publish(delta); });
  applier_ = std::make_unique<JournalApplier>(*engine_, FollowerHooks());
  applied_cycle_ts_.store(0, std::memory_order_release);
  return Status::Ok();
}

Status MonitorService::Promote() {
  // Operator promotions mint with the reserved operator rank, so a
  // manual Promote() racing an automatic election can never settle on
  // the same epoch as an agent-minted one (see lease.h).
  return Promote(
      MintFencingEpoch(fencing_epoch_.load(std::memory_order_acquire),
                       kOperatorFencingRank));
}

Status MonitorService::Promote(std::uint64_t new_epoch) {
  std::lock_guard<std::mutex> control(control_mu_);
  std::lock_guard<std::mutex> lock(engine_mu_);
  // Serializes the epoch persist/publish against ObserveFencingEpoch
  // (the pump is stopped before Promote in practice, but a late
  // observation must not interleave between our persist and store).
  std::lock_guard<std::mutex> epoch_lock(epoch_mu_);
  if (role_.load(std::memory_order_acquire) != ServiceRole::kFollower) {
    return Status::FailedPrecondition("service is already a leader");
  }
  if (new_epoch <= fencing_epoch_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument(
        "promotion epoch " + std::to_string(new_epoch) +
        " does not exceed the highest observed epoch " +
        std::to_string(fencing_epoch_.load(std::memory_order_acquire)));
  }
  if (!options_.journal.dir.empty()) {
    // Fencing before serving: the new term must be durable before any
    // write can be accepted under it, or a crash-and-restart could
    // resurrect this node at the deposed leader's epoch.
    TOPKMON_RETURN_IF_ERROR(
        WriteFencingEpoch(options_.journal.dir, new_epoch));
  }
  fencing_epoch_.store(new_epoch, std::memory_order_release);
  // The replay bookkeeping becomes the leader's sequences, and the
  // journal re-opens over the shipped directory.
  return StartLeaderLocked(
      LeaderStart{applier_->next_record_id(), applier_->last_cycle_ts(),
                  applier_->next_query_id(), applier_->live_queries(),
                  /*resume_journal=*/true});
}

ReplicationInfo MonitorService::replication() const {
  ReplicationInfo info;
  info.role = role_.load(std::memory_order_acquire);
  info.applied_cycle_ts = applied_cycle_ts_.load(std::memory_order_acquire);
  info.leader_cycle_ts =
      info.role == ServiceRole::kLeader
          ? info.applied_cycle_ts
          : std::max(info.applied_cycle_ts,
                     leader_cycle_ts_.load(std::memory_order_acquire));
  {
    std::lock_guard<std::mutex> lock(leader_endpoint_mu_);
    info.leader_endpoint = leader_endpoint_;
  }
  info.fencing_epoch = fencing_epoch_.load(std::memory_order_acquire);
  return info;
}

void MonitorService::SetLeaderEndpoint(std::string endpoint) {
  std::lock_guard<std::mutex> lock(leader_endpoint_mu_);
  leader_endpoint_ = std::move(endpoint);
}

void MonitorService::SetLeaderProgress(Timestamp leader_cycle_ts) {
  // Monotone max: chunks can arrive with an unchanged leader timestamp.
  Timestamp seen = leader_cycle_ts_.load(std::memory_order_relaxed);
  while (seen < leader_cycle_ts &&
         !leader_cycle_ts_.compare_exchange_weak(
             seen, leader_cycle_ts, std::memory_order_release,
             std::memory_order_relaxed)) {
  }
}

std::size_t MonitorService::PollDeltas(SessionId session, std::size_t max,
                                       std::vector<DeltaEvent>* out) {
  return hub_.Poll(session, max, out);
}

std::size_t MonitorService::WaitDeltas(SessionId session, std::size_t max,
                                       std::chrono::milliseconds timeout,
                                       std::vector<DeltaEvent>* out) {
  return hub_.WaitPoll(session, max, timeout, out);
}

std::uint64_t MonitorService::DroppedDeltas(SessionId session) const {
  return hub_.Dropped(session);
}

std::size_t MonitorService::PendingDeltas(SessionId session) const {
  return hub_.Depth(session);
}

void MonitorService::NoteJournalGrowth() {
  journal_progress_.fetch_add(1, std::memory_order_release);
  NotifyProgress();
}

std::uint64_t MonitorService::AddProgressListener(
    std::function<void()> listener) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  const std::uint64_t id = next_listener_id_++;
  listeners_.emplace_back(id, std::move(listener));
  return id;
}

void MonitorService::RemoveProgressListener(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  listeners_.erase(
      std::remove_if(listeners_.begin(), listeners_.end(),
                     [id](const auto& entry) { return entry.first == id; }),
      listeners_.end());
}

void MonitorService::NotifyProgress() {
  // Listeners are cheap by contract (a pipe write), so they run under
  // the lock — which also guarantees RemoveProgressListener returns
  // only after any in-flight invocation of the removed listener.
  std::lock_guard<std::mutex> lock(listeners_mu_);
  for (const auto& [id, fn] : listeners_) fn();
}

std::uint8_t MonitorService::IngestPressure() const {
  return ingest_.Pressure();
}

bool MonitorService::NeedsFlush() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return applied_records_ - replicated_records_ < flush_fence_;
}

SnapshotAnchor MonitorService::AnchorLocked() const {
  return SnapshotAnchor{*engine_, ingest_.NextRecordId(),
                        next_query_id_.load(), journaled_queries_};
}

void MonitorService::RotateJournalLocked() {
  const Status st = JournalAppendLocked([this](CycleJournalWriter& w) {
    return w.RotateWithSnapshot(AnchorLocked());
  });
  // JournalAppendLocked forgives Unimplemented as a refused input. Here
  // it is an engine that cannot anchor a segment: nothing was written and
  // the current segment keeps taking appends, but it is still a failure.
  if (st.code() == StatusCode::kUnimplemented) {
    journal_failures_.fetch_add(1, std::memory_order_relaxed);
  }
}

void MonitorService::DriverLoop() {
  std::vector<Record> batch;
  Timestamp cycle_ts = 0;
  while (true) {
    batch.clear();
    std::chrono::steady_clock::time_point oldest_push{};
    const std::size_t n =
        ingest_.DrainBatch(&batch, &cycle_ts, options_.drain_wait,
                           /*flush_all=*/NeedsFlush(), &oldest_push);
    if (n == 0) {
      if (ingest_.closed() && ingest_.depth() == 0) break;
      // Idle loop: let the group-commit time trigger push any unsynced
      // tail to the platter even though no append will run for a while.
      {
        std::lock_guard<std::mutex> lock(engine_mu_);
        JournalAppendLocked(
            [](CycleJournalWriter& w) { return w.SyncIfDue(); });
      }
      // A flush fence may already be satisfied (fence raced a drain).
      flush_cv_.notify_all();
      continue;
    }
    CycleObserver observer;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      observer = observer_;
    }
    if (observer) observer(cycle_ts, batch);
    Status st;
    {
      std::lock_guard<std::mutex> lock(engine_mu_);
      // Write-ahead: the batch is journaled before it is applied, so the
      // journal never misses state a client may have observed.
      JournalAppendLocked([cycle_ts, &batch](CycleJournalWriter& w) {
        return w.AppendCycle(cycle_ts, batch);
      });
      st = engine_->ProcessCycle(cycle_ts, batch);
      if (st.ok()) {
        applied_cycle_ts_.store(cycle_ts, std::memory_order_release);
      }
      if (journal_ != nullptr && journal_->SnapshotDue()) {
        RotateJournalLocked();
      }
    }
    // The cycle's deltas were published inside ProcessCycle (the delta
    // callback runs synchronously): the batch's oldest record has now
    // completed the ingest->publish span. One sample per cycle, the
    // per-batch worst case.
    if (st.ok() && ingest_publish_hist_ != nullptr) {
      ingest_publish_hist_->Record(std::chrono::steady_clock::now() -
                                   oldest_push);
    }
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      applied_records_ += n;
      ++cycles_;
      // Ingest validation makes cycle errors unreachable in practice;
      // count them anyway so a regression is visible, not silent.
      if (!st.ok()) ++failed_cycles_;
    }
    flush_cv_.notify_all();
    // The cycle may have published deltas and grown the journal: wake
    // front-end poll loops holding parked long-polls or fetches.
    NotifyProgress();
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    stopped_ = true;
  }
  flush_cv_.notify_all();
}

Status MonitorService::Flush() {
  const std::uint64_t fence = ingest_.PushedSoFar();
  std::unique_lock<std::mutex> lock(state_mu_);
  flush_fence_ = std::max(flush_fence_, fence);
  // Records applied via replication never passed through the ingest
  // queue, so they must not satisfy a fence counted in queue pushes — a
  // promoted leader's replicated history would otherwise cover any
  // fence and Flush() would return before its first own write applied.
  flush_cv_.wait(lock, [this, fence] {
    return stopped_ || applied_records_ - replicated_records_ >= fence;
  });
  if (applied_records_ - replicated_records_ >= fence) return Status::Ok();
  return Status::FailedPrecondition("service stopped before flush finished");
}

void MonitorService::Shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  // Admin first: its handlers read the service, so the introspection
  // thread must be parked before any component starts tearing down.
  if (admin_ != nullptr) admin_->Stop();
  if (!shutdown_requested_) {
    shutdown_requested_ = true;
    ingest_.Close();
  }
  if (driver_.joinable()) driver_.join();
  // With the driver parked, seal the journal: a final snapshot segment
  // makes the next Open() replay nothing.
  std::lock_guard<std::mutex> engine_lock(engine_mu_);
  if (journal_ != nullptr && !journal_->closed()) {
    if (options_.journal.snapshot_on_shutdown) RotateJournalLocked();
    JournalAppendLocked(
        [](CycleJournalWriter& w) { return w.Close(); });
  }
}

ServiceStats MonitorService::stats() const {
  ServiceStats out;
  const IngestStats ingest = ingest_.stats();
  const HubStats hub = hub_.stats();
  out.records_ingested = ingest.pushed;
  out.records_shed = ingest.shed;
  out.records_coerced = ingest.coerced;
  out.records_rate_limited = sessions_.stats().rate_limited;
  out.queue_depth = ingest_.depth();
  out.deltas_published = hub.published;
  out.deltas_delivered = hub.delivered;
  out.deltas_dropped = hub.dropped;
  out.open_sessions = sessions_.OpenSessions();
  out.active_queries = sessions_.ActiveQueries();
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    out.cycles = cycles_;
    out.records_applied = applied_records_;
    out.failed_cycles = failed_cycles_;
  }
  {
    std::lock_guard<std::mutex> lock(engine_mu_);
    if (journal_ != nullptr) {
      const JournalWriterStats& js = journal_->stats();
      out.journal_records = js.records_appended;
      out.journal_bytes = js.bytes_written;
      out.journal_snapshots = js.snapshots_written;
    }
  }
  out.journal_failures = journal_failures_.load(std::memory_order_relaxed);
  return out;
}

std::uint16_t MonitorService::admin_port() const {
  return admin_ != nullptr ? admin_->port() : 0;
}

Status MonitorService::admin_status() const { return admin_status_; }

void MonitorService::SetupObservability() {
  ingest_publish_hist_ = metrics_.RegisterHistogram(
      "topkmon_ingest_publish_latency_seconds",
      "Time from a record entering the ingest queue to its cycle's "
      "deltas being published (one sample per cycle: the batch's oldest "
      "record, i.e. the worst case)");
  delta_delivery_hist_ = metrics_.RegisterHistogram(
      "topkmon_delta_delivery_latency_seconds",
      "Time from a delta event being published to a session polling it "
      "out of its subscription buffer");
  journal_fsync_hist_ = metrics_.RegisterHistogram(
      "topkmon_journal_fsync_latency_seconds",
      "Wall time of journal fdatasync calls (the group-commit ack "
      "point)");
  hub_.SetDeliveryHistogram(delta_delivery_hist_);
  metrics_.AddSampler(
      [this](MetricSink& sink) { SampleServiceMetrics(sink); });
  if (options_.admin.enabled) {
    admin_ = std::make_unique<AdminHttpServer>(options_.admin);
    admin_->Handle("/metrics", [this] { return ServeMetrics(); });
    admin_->Handle("/statusz", [this] { return ServeStatusz(); });
    admin_->Handle("/healthz", [this] { return ServeHealthz(); });
    admin_status_ = admin_->Start();
    // Best-effort: a node whose admin port is taken still serves data.
    if (!admin_status_.ok()) admin_.reset();
  }
}

void MonitorService::SampleServiceMetrics(MetricSink& sink) const {
  const ServiceStats s = stats();
  sink.AddCounter("topkmon_cycles_total", "Engine cycles driven",
                  static_cast<double>(s.cycles));
  sink.AddCounter("topkmon_records_ingested_total",
                  "Records accepted by the ingest queue",
                  static_cast<double>(s.records_ingested));
  sink.AddCounter("topkmon_records_applied_total",
                  "Records applied to the engine",
                  static_cast<double>(s.records_applied));
  sink.AddCounter("topkmon_records_shed_total",
                  "TryIngest refusals with the queue full",
                  static_cast<double>(s.records_shed));
  sink.AddCounter("topkmon_records_coerced_total",
                  "Straggler records time-shifted to the frontier",
                  static_cast<double>(s.records_coerced));
  sink.AddCounter("topkmon_records_rate_limited_total",
                  "Session token-bucket ingest refusals",
                  static_cast<double>(s.records_rate_limited));
  sink.AddCounter("topkmon_deltas_published_total",
                  "Engine deltas entering the subscription hub",
                  static_cast<double>(s.deltas_published));
  sink.AddCounter("topkmon_deltas_delivered_total",
                  "Delta events consumed by sessions",
                  static_cast<double>(s.deltas_delivered));
  sink.AddCounter("topkmon_deltas_dropped_total",
                  "Delta events lost to slow consumers",
                  static_cast<double>(s.deltas_dropped));
  sink.AddCounter("topkmon_failed_cycles_total",
                  "ProcessCycle errors (bug guard)",
                  static_cast<double>(s.failed_cycles));
  sink.AddCounter("topkmon_journal_records_total",
                  "Records appended to the cycle journal",
                  static_cast<double>(s.journal_records));
  sink.AddCounter("topkmon_journal_bytes_total",
                  "Bytes written to the cycle journal",
                  static_cast<double>(s.journal_bytes));
  sink.AddCounter("topkmon_journal_snapshots_total",
                  "Snapshot records written to the journal",
                  static_cast<double>(s.journal_snapshots));
  sink.AddCounter("topkmon_journal_failures_total",
                  "Failed journal appends or rotations",
                  static_cast<double>(s.journal_failures));
  sink.AddGauge("topkmon_ingest_queue_depth",
                "Records waiting in the ingest queue",
                static_cast<double>(s.queue_depth));
  sink.AddGauge("topkmon_ingest_queue_pressure",
                "Backpressure byte surfaced to producers (0 calm, "
                "1..255 above the high-water mark)",
                static_cast<double>(IngestPressure()));
  sink.AddGauge("topkmon_open_sessions", "Currently open sessions",
                static_cast<double>(s.open_sessions));
  sink.AddGauge("topkmon_active_queries",
                "Live continuous queries across all sessions",
                static_cast<double>(s.active_queries));
  const ReplicationInfo repl = replication();
  sink.AddGauge("topkmon_is_leader",
                "1 when this service accepts writes, 0 on a follower",
                repl.role == ServiceRole::kLeader ? 1.0 : 0.0);
  sink.AddGauge("topkmon_fenced",
                "1 once this leader has fenced itself (deposed)",
                IsFenced() ? 1.0 : 0.0);
  sink.AddGauge("topkmon_fencing_epoch",
                "Highest fencing epoch adopted or observed",
                static_cast<double>(repl.fencing_epoch));
  sink.AddGauge("topkmon_applied_cycle_timestamp",
                "Timestamp of the last cycle applied to this engine",
                static_cast<double>(repl.applied_cycle_ts));
  sink.AddGauge("topkmon_replication_staleness",
                "Leader cycle timestamp minus applied cycle timestamp "
                "(0 on a leader)",
                static_cast<double>(repl.StaleBy()));
  sink.AddGauge("topkmon_journal_healthy",
                "1 while journaling is healthy or disabled",
                journal_status().ok() ? 1.0 : 0.0);
  // The ingest queue takes all its record storage at construction, so
  // the two gauges read the same; both stay for dashboards that watch
  // the peak.
  const double queue_bytes = static_cast<double>(ingest_.MemoryBytes());
  sink.AddGauge("topkmon_arena_bytes",
                "Record storage bytes held by the ingest queue "
                "(capacity x (28 + 8d), fixed at construction)",
                queue_bytes);
  sink.AddGauge("topkmon_arena_peak_bytes",
                "High-water mark of topkmon_arena_bytes", queue_bytes);
}

AdminResponse MonitorService::ServeMetrics() const {
  AdminResponse r;
  r.content_type = "text/plain; version=0.0.4; charset=utf-8";
  r.body = metrics_.Snapshot().ToPrometheus();
  return r;
}

AdminResponse MonitorService::ServeStatusz() const {
  const ServiceStats s = stats();
  const ReplicationInfo repl = replication();
  const Status js = journal_status();
  std::ostringstream os;
  os << "{\"role\":\""
     << (repl.role == ServiceRole::kFollower ? "follower" : "leader")
     << "\",\"fenced\":" << (IsFenced() ? "true" : "false")
     << ",\"fencing_epoch\":" << repl.fencing_epoch
     << ",\"lease_enabled\":" << (lease_enabled() ? "true" : "false")
     << ",\"leader_endpoint\":\"" << JsonEscape(repl.leader_endpoint)
     << "\"";
  os << ",\"replication\":{\"applied_cycle_ts\":" << repl.applied_cycle_ts
     << ",\"leader_cycle_ts\":" << repl.leader_cycle_ts
     << ",\"stale_by\":" << repl.StaleBy() << "}";
  os << ",\"service\":{\"cycles\":" << s.cycles
     << ",\"records_ingested\":" << s.records_ingested
     << ",\"records_applied\":" << s.records_applied
     << ",\"records_shed\":" << s.records_shed
     << ",\"records_coerced\":" << s.records_coerced
     << ",\"records_rate_limited\":" << s.records_rate_limited
     << ",\"deltas_published\":" << s.deltas_published
     << ",\"deltas_delivered\":" << s.deltas_delivered
     << ",\"deltas_dropped\":" << s.deltas_dropped
     << ",\"failed_cycles\":" << s.failed_cycles << "}";
  os << ",\"ingest\":{\"queue_depth\":" << s.queue_depth
     << ",\"queue_capacity\":" << options_.ingest.capacity
     << ",\"pressure\":" << static_cast<unsigned>(IngestPressure()) << "}";
  os << ",\"journal\":{\"dir\":\"" << JsonEscape(options_.journal.dir)
     << "\",\"healthy\":" << (js.ok() ? "true" : "false")
     << ",\"status\":\"" << JsonEscape(js.ok() ? "ok" : js.message())
     << "\",\"records\":" << s.journal_records
     << ",\"bytes\":" << s.journal_bytes
     << ",\"snapshots\":" << s.journal_snapshots
     << ",\"failures\":" << s.journal_failures << "}";
  os << ",\"sessions\":[";
  bool first = true;
  for (const SessionInfo& info : sessions_.List()) {
    if (!first) os << ",";
    first = false;
    os << "{\"id\":" << info.id << ",\"label\":\""
       << JsonEscape(info.label) << "\",\"queries\":" << info.queries
       << ",\"pending_deltas\":" << hub_.Depth(info.id)
       << ",\"dropped_deltas\":" << hub_.Dropped(info.id) << "}";
  }
  os << "]";
  // Every registered number — the service's own and each attached
  // component's (net, replica, failover) — under its catalog name.
  os << ",\"sections\":" << metrics_.Snapshot().ToJson() << "}";
  AdminResponse r;
  r.content_type = "application/json";
  r.body = os.str();
  return r;
}

AdminResponse MonitorService::ServeHealthz() const {
  AdminResponse r;
  if (role() == ServiceRole::kFollower) {
    r.body = "follower-ok\n";
    return r;
  }
  // A lapsed lease degrades health even before a refused write latches
  // fenced_ — the probe must not depend on write traffic to notice.
  const bool degraded =
      IsFenced() || (lease_ != nullptr && lease_->Expired(NowSeconds()));
  if (degraded) {
    r.status = 503;
    r.body = "fenced-degraded (fencing epoch " +
             std::to_string(fencing_epoch()) + ")\n";
  } else {
    r.body = "leader-ok\n";
  }
  return r;
}

EngineStats MonitorService::EngineCounters() const {
  std::lock_guard<std::mutex> lock(engine_mu_);
  return engine_->stats();
}

MemoryBreakdown MonitorService::Memory() const {
  MemoryBreakdown mb;
  {
    std::lock_guard<std::mutex> lock(engine_mu_);
    mb = engine_->Memory();
  }
  mb.Add("service_ingest", ingest_.MemoryBytes());
  mb.Add("service_hub", hub_.MemoryBytes());
  return mb;
}

void MonitorService::SetCycleObserver(CycleObserver observer) {
  std::lock_guard<std::mutex> lock(state_mu_);
  observer_ = std::move(observer);
}

}  // namespace topkmon
