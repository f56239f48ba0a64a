#include "replica/follower.h"

#include <utility>

#include "journal/format.h"
#include "journal/journal_reader.h"

namespace topkmon {

ReplicaFollower::ReplicaFollower(std::unique_ptr<MonitorService> service,
                                 ReplicaFollowerOptions options,
                                 std::string journal_dir)
    : service_(std::move(service)),
      options_(std::move(options)),
      journal_dir_(std::move(journal_dir)),
      leader_host_(options_.leader_host),
      leader_port_(options_.leader_port) {}

ReplicaFollower::~ReplicaFollower() { Stop(); }

Result<std::unique_ptr<ReplicaFollower>> ReplicaFollower::Open(
    const std::function<std::unique_ptr<MonitorEngine>()>& engine_factory,
    const ServiceOptions& service_options,
    const ReplicaFollowerOptions& options) {
  if (service_options.journal.dir.empty()) {
    return Status::InvalidArgument(
        "a follower needs options.journal.dir — the local directory the "
        "leader's journal is shipped into");
  }
  auto service = MonitorService::OpenFollower(
      engine_factory, service_options,
      options.leader_host + ":" + std::to_string(options.leader_port));
  if (!service.ok()) return service.status();
  std::unique_ptr<ReplicaFollower> follower(new ReplicaFollower(
      std::move(*service), options, service_options.journal.dir));
  TOPKMON_RETURN_IF_ERROR(follower->Bootstrap());
  // Admin plane: the pump's counters and apply lag join the follower
  // service's registry (so /metrics and /statusz) for as long as the
  // pump can run (Stop deregisters the sampler).
  ReplicaFollower* raw = follower.get();
  follower->sampler_id_ = raw->service_->metrics().AddSampler(
      [raw](MetricSink& sink) { raw->SampleReplicaMetrics(sink); });
  follower->pump_ = std::thread([raw] { raw->PumpLoop(); });
  return follower;
}

Status ReplicaFollower::Bootstrap() {
  TOPKMON_RETURN_IF_ERROR(fs::MakeDirs(journal_dir_));
  auto segments = ListSegments(journal_dir_);
  if (!segments.ok()) return segments.status();

  // Resume from the newest locally shipped segment whose anchor snapshot
  // is intact (OpenNewestAnchoredSegment, RecoveryDriver's rule). Newer
  // segments without a usable anchor (ship stopped mid-anchor) and all
  // older segments are deleted; they are only ever prefixes of what the
  // leader still has or superseded history.
  AnchoredSegment start = OpenNewestAnchoredSegment(*segments);
  if (start.reader != nullptr) {
    TOPKMON_RETURN_IF_ERROR(
        service_->ApplyReplicatedAnchor(std::move(start.anchor)));
    segment_ = start.index;
    reader_ = std::move(start.reader);
    anchor_ = Anchor::kDone;
    if (ApplyShipped().ok()) {
      // A torn tail is just an unfinished ship: cut it off, so the next
      // chunk lands right behind the last applied record. The kept
      // segment and its directory entry are made durable before the
      // others are deleted (REPLICATION.md §3's seal rule): a crash in
      // between still finds an anchored segment.
      shipped_ = reader_->offset();
      TOPKMON_RETURN_IF_ERROR(fs::Truncate(start.path, shipped_));
      auto kept = fs::Open(start.path, fs::OpenMode::kAppend);
      if (!kept.ok()) return kept.status();
      segment_file_ = std::move(*kept);
      TOPKMON_RETURN_IF_ERROR(segment_file_.DataSync());
      TOPKMON_RETURN_IF_ERROR(fs::SyncDir(journal_dir_));
      WipeLocalSegments(start.index);
      reader_->DropReadAhead();
      // These bytes predate this process — they may include a deposed
      // leader's unshipped tail. The first connect verifies the leader's
      // fencing epoch before fetching past them (see PumpLoop).
      resumed_from_disk_ = true;
      std::lock_guard<std::mutex> lock(mu_);
      stats_.current_segment = segment_;
      stats_.shipped_offset = shipped_;
      return Status::Ok();
    }
    // Locally damaged or diverged bytes: undo what was applied.
    TOPKMON_RETURN_IF_ERROR(service_->ResetFollowerState());
    reader_.reset();
    segment_ = 0;
    anchor_ = Anchor::kApply;
  }
  // Nothing usable on disk, or damaged bytes: drop everything and start
  // clean. The pump's first fetch (segment 0) either hits the leader's
  // live segment 0 or draws a restart pointing at the leader's oldest
  // segment.
  WipeLocalSegments();
  return Status::Ok();
}

void ReplicaFollower::WipeLocalSegments(std::uint64_t keep) {
  auto segments = ListSegments(journal_dir_);
  if (!segments.ok()) return;  // best-effort
  for (const SegmentInfo& info : *segments) {
    if (info.index == keep) continue;
    (void)fs::Unlink(info.path);
  }
}

Status ReplicaFollower::PersistChunk(const std::string& data) {
  if (!segment_file_.is_open()) {
    // Shipping a segment from offset 0 starts its local file fresh:
    // truncation (not append) makes resync immune to a same-index file
    // a best-effort wipe failed to unlink.
    auto opened = fs::Open(
        journal_dir_ + "/" + SegmentFileName(segment_),
        shipped_ == 0 ? fs::OpenMode::kCreateTruncate : fs::OpenMode::kAppend);
    if (!opened.ok()) return opened.status();
    segment_file_ = std::move(*opened);
  }
  const Status st = segment_file_.Write(data);
  if (!st.ok()) {
    // Discard any partial bytes this chunk managed to land: the retry
    // re-appends the whole chunk at shipped_, and the local file must
    // stay a byte-identical leader prefix.
    (void)fs::Truncate(segment_file_.path(), shipped_);
  }
  return st;
}

Status ReplicaFollower::CloseSegmentFile(bool sync) {
  if (!segment_file_.is_open()) return Status::Ok();
  const Status st = sync ? segment_file_.DataSync() : Status::Ok();
  (void)segment_file_.Close();
  return st;
}

Status ReplicaFollower::ResyncFrom(std::uint64_t segment) {
  // Reset the service first: if the fresh engine cannot be built,
  // nothing has been wiped and the cursor is unchanged — the caller
  // backs off and the next chunk triggers the resync again, instead of
  // fetching mid-segment bytes into a dir that lost its files.
  TOPKMON_RETURN_IF_ERROR(service_->ResetFollowerState());
  CloseSegmentFile(/*sync=*/false);
  WipeLocalSegments();
  reader_.reset();
  segment_ = segment;
  shipped_ = 0;
  anchor_ = Anchor::kApply;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.restarts;
  stats_.current_segment = segment_;
  stats_.shipped_offset = 0;
  return Status::Ok();
}

Status ReplicaFollower::ApplyShipped() {
  if (reader_ == nullptr) {
    // A reader starts at the segment header; wait until all of it landed.
    if (shipped_ < kSegmentHeaderBytes) return Status::Ok();
    auto opened = CycleJournalReader::Open(journal_dir_ + "/" +
                                           SegmentFileName(segment_));
    if (!opened.ok()) return opened.status();
    reader_ = std::move(*opened);
  }
  while (true) {
    CycleJournalReader::Outcome outcome = reader_->Next();
    switch (outcome.kind) {
      case CycleJournalReader::Kind::kEnd:
      case CycleJournalReader::Kind::kTorn:
        return Status::Ok();  // the rest has not been shipped yet
      case CycleJournalReader::Kind::kCorrupt:
      case CycleJournalReader::Kind::kIoError:
        return Status::Internal("shipped segment: " + outcome.detail);
      case CycleJournalReader::Kind::kRecord:
        break;
    }
    if (anchor_ != Anchor::kDone) {
      // OpenNewestAnchoredSegment's rule: a segment opens with its anchor.
      if (outcome.record.type != JournalRecordType::kSnapshot) {
        return Status::Internal("shipped segment has no leading anchor");
      }
      // A skipped anchor describes exactly the state continuous replay
      // already reached crossing the segment boundary.
      if (anchor_ == Anchor::kApply) {
        TOPKMON_RETURN_IF_ERROR(service_->ApplyReplicatedAnchor(
            std::move(outcome.record.snapshot)));
      }
      anchor_ = Anchor::kDone;
    } else {
      // A refused record is divergence: only a resync recovers.
      TOPKMON_RETURN_IF_ERROR(service_->ApplyReplicated(outcome.record));
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.records_applied;
  }
}

void ReplicaFollower::Backoff(std::chrono::milliseconds wait) {
  std::unique_lock<std::mutex> lock(mu_);
  stop_cv_.wait_for(lock, wait,
                    [this] { return stop_.load() || retarget_; });
}

void ReplicaFollower::FailFetch(bool drop_client) {
  if (drop_client) client_.reset();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.fetch_errors;
    if (drop_client) stats_.connected = false;
  }
  Backoff(options_.reconnect_backoff);
}

void ReplicaFollower::PumpLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    std::string host;
    std::uint16_t port = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      host = leader_host_;
      port = leader_port_;
      if (retarget_) {
        // The connection in hand points at a deposed leader; drop it
        // and fetch from the new one. The ship cursor survives — the
        // new leader's journal is a byte-superset of everything this
        // follower applied (it was elected for being longest), so the
        // fetch either continues in place or draws a restart.
        retarget_ = false;
        client_.reset();
      }
    }
    if (client_ == nullptr) {
      // Resume by label: reconnects (and follower restarts) re-adopt the
      // one leader-side session this follower owns instead of leaking a
      // fresh session per attempt into the leader's session limit.
      auto connected = MonitorClient::Connect(
          host, port, options_.label,
          /*resume=*/true, options_.client);
      if (!connected.ok()) {
        FailFetch(/*drop_client=*/true);
        continue;
      }
      client_ = std::move(*connected);
      {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.connected = true;
      }
      // The journal we resumed from was written under an older fencing
      // epoch than the leader serves — a deposed leader's directory
      // rejoining after a failover. Its unshipped tail occupies the same
      // (segment, offset) coordinates the new leader filled with its own
      // term's records, so continuing byte-wise could silently splice
      // two histories. Wipe and re-ship from scratch; the leader's oldest
      // anchor is a complete catch-up.
      if (resumed_from_disk_ &&
          client_->fencing_epoch() > service_->fencing_epoch() &&
          !ResyncFrom(0).ok()) {
        // Nothing was wiped (ResyncFrom resets the service first); the
        // guard stays armed and the pump retries — fetching suspect
        // bytes is never an acceptable fallback.
        FailFetch(/*drop_client=*/true);
        continue;
      }
      resumed_from_disk_ = false;
    }
    auto chunk = client_->ReplFetch(segment_, shipped_,
                                    options_.fetch_bytes,
                                    options_.fetch_wait);
    if (!chunk.ok()) {
      // Leader unreachable (or restarting): keep serving reads, retry.
      FailFetch(/*drop_client=*/true);
      continue;
    }
    service_->SetLeaderProgress(client_->leader_cycle_ts());
    // Adopt the chunk's fencing epoch (v5): this is how a follower
    // learns a failover happened, and how a restarted old leader —
    // rejoining as a follower — durably records that its own old term
    // is over. A failed persist is treated like a fetch error: backing
    // off and retrying is safer than applying bytes whose epoch we
    // could not record.
    if (!service_->ObserveFencingEpoch(client_->fencing_epoch()).ok()) {
      FailFetch(/*drop_client=*/false);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.chunks_received;
      stats_.bytes_shipped += chunk->data.size();
      stats_.last_fetch_ok = std::chrono::steady_clock::now();
    }
    if (chunk->restart) {
      // The leader garbage-collected past us (or the journal was
      // replaced): wipe and catch up from a fresh snapshot anchor.
      if (!ResyncFrom(chunk->next_segment).ok()) {
        FailFetch(/*drop_client=*/false);
      }
      continue;
    }
    if (!chunk->data.empty()) {
      // Persist before apply: the follower applies what is on its disk,
      // and a follower restart resumes from there.
      if (!PersistChunk(chunk->data).ok()) {
        FailFetch(/*drop_client=*/false);
        continue;
      }
      shipped_ += chunk->data.size();
      // Chained replication: a follower of *this* follower parks its
      // fetches against our service's progress counter.
      service_->NoteJournalGrowth();
    }
    Status applied = ApplyShipped();
    if (applied.ok() && chunk->sealed &&
        (anchor_ != Anchor::kDone || reader_->offset() != shipped_)) {
      // A sealed segment must end on a frame boundary; a dangling
      // partial frame means the shipped copy is damaged.
      applied = Status::Internal("sealed segment ends mid-frame");
    }
    if (!applied.ok()) {
      // Damaged or diverged shipped bytes: full resync from the start
      // of this segment (its anchor makes that complete). A failed
      // resync mutated nothing — the next apply failure re-triggers it
      // after the backoff.
      if (ResyncFrom(segment_).ok()) {
        Backoff(options_.reconnect_backoff);
      } else {
        FailFetch(/*drop_client=*/false);
      }
      continue;
    }
    const bool tail_chasing =
        !chunk->sealed && chunk->data.size() < options_.fetch_bytes;
    if (chunk->sealed) {
      // Segment complete: sync it and its directory entry (it is now a
      // local recovery anchor), drop the ones before it, and continue
      // into the next. Its anchor snapshot is skipped — replay already
      // holds that exact state. If it cannot be made durable, the older
      // anchored segment stays as the restart point.
      Status durable = CloseSegmentFile(/*sync=*/true);
      if (durable.ok()) durable = fs::SyncDir(journal_dir_);
      const std::uint64_t finished = segment_;
      segment_ = chunk->next_segment;
      shipped_ = 0;
      reader_.reset();
      anchor_ = Anchor::kSkip;
      if (durable.ok()) WipeLocalSegments(finished);
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.segments_completed;
      if (!durable.ok()) ++stats_.fetch_errors;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.current_segment = segment_;
      stats_.shipped_offset = shipped_;
    }
    if (tail_chasing && options_.fetch_interval.count() > 0) {
      Backoff(options_.fetch_interval);
    }
  }
  CloseSegmentFile(/*sync=*/true);
  reader_.reset();
  client_.reset();
}

ReplicaFollowerStats ReplicaFollower::stats() const {
  ReplicaFollowerStats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = stats_;
  }
  const ReplicationInfo info = service_->replication();
  out.applied_cycle_ts = info.applied_cycle_ts;
  out.leader_cycle_ts = info.leader_cycle_ts;
  return out;
}

void ReplicaFollower::SampleReplicaMetrics(MetricSink& sink) const {
  const ReplicaFollowerStats s = stats();
  sink.AddCounter("topkmon_replica_chunks_received_total",
                  "Replication chunks received from the leader",
                  static_cast<double>(s.chunks_received));
  sink.AddCounter("topkmon_replica_bytes_shipped_total",
                  "Journal bytes shipped from the leader",
                  static_cast<double>(s.bytes_shipped));
  sink.AddCounter("topkmon_replica_records_applied_total",
                  "Journal records replayed into the local engine",
                  static_cast<double>(s.records_applied));
  sink.AddCounter("topkmon_replica_segments_completed_total",
                  "Shipped segments sealed and advanced past",
                  static_cast<double>(s.segments_completed));
  sink.AddCounter("topkmon_replica_restarts_total",
                  "Full resyncs (leader garbage-collected past us)",
                  static_cast<double>(s.restarts));
  sink.AddCounter("topkmon_replica_fetch_errors_total",
                  "Failed fetches and reconnect attempts",
                  static_cast<double>(s.fetch_errors));
  sink.AddGauge("topkmon_replica_connected",
                "1 while the pump holds a live leader connection",
                s.connected ? 1.0 : 0.0);
  sink.AddGauge("topkmon_replica_current_segment",
                "Journal segment currently being shipped",
                static_cast<double>(s.current_segment));
  sink.AddGauge("topkmon_replica_shipped_offset",
                "Bytes of the current segment on local disk",
                static_cast<double>(s.shipped_offset));
  sink.AddGauge("topkmon_replica_apply_lag",
                "Leader cycle timestamp minus applied cycle timestamp",
                static_cast<double>(s.LagTs()));
}

Status ReplicaFollower::WaitForCycleTs(Timestamp ts,
                                       std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (service_->replication().applied_cycle_ts < ts) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::FailedPrecondition(
          "follower did not reach cycle ts " + std::to_string(ts) +
          " within the timeout (applied ts " +
          std::to_string(service_->replication().applied_cycle_ts) + ")");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Status::Ok();
}

void ReplicaFollower::Stop() {
  stop_.store(true, std::memory_order_release);
  stop_cv_.notify_all();
  std::thread pump;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    pump = std::move(pump_);
  }
  if (pump.joinable()) pump.join();
  // First Stop only (later calls returned above). Outside mu_: the
  // sampler takes mu_, and the removal blocks until any in-flight
  // scrape is done with this object.
  if (sampler_id_ != 0) {
    service_->metrics().RemoveSampler(sampler_id_);
    sampler_id_ = 0;
  }
}

Status ReplicaFollower::Promote() {
  Stop();
  // A partial frame at the end of the local segment is simply un-applied
  // prefix bytes; the promotion snapshot anchors a fresh segment, so the
  // torn local tail is superseded, exactly like a crash tail on recovery.
  return service_->Promote();
}

Status ReplicaFollower::Promote(std::uint64_t new_epoch) {
  Stop();
  return service_->Promote(new_epoch);
}

void ReplicaFollower::SetLeader(const std::string& host,
                                std::uint16_t port) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (host == leader_host_ && port == leader_port_) return;
    leader_host_ = host;
    leader_port_ = port;
    retarget_ = true;
  }
  service_->SetLeaderEndpoint(host + ":" + std::to_string(port));
  // Wake the pump if it is backing off between reconnect attempts; an
  // in-flight long-poll fetch is not interrupted, so the re-target
  // takes effect within one fetch_wait at most.
  stop_cv_.notify_all();
}

std::string ReplicaFollower::leader_endpoint() const {
  std::lock_guard<std::mutex> lock(mu_);
  return leader_host_ + ":" + std::to_string(leader_port_);
}

}  // namespace topkmon
