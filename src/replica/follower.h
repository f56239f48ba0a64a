// ReplicaFollower — warm-standby daemon: ships the leader's journal and
// continuously replays it into a read-only MonitorService.
//
// One follower owns one MonitorService in follower role (engine fed by
// replay, writes refused with a redirect) plus a pump thread that drives
// the replication loop against the leader's TCP server:
//
//   ReplFetch (segment, offset) ──► leader TcpServer / JournalShipper
//        ▲                                   │ raw journal bytes
//        │                                   ▼
//   local journal dir  ◄──── append ──── chunk
//   (byte-identical leader prefix)
//        │ CycleJournalReader over the local segment
//        ▼
//   MonitorService::ApplyReplicated (engine + sessions + delta fan-out)
//
// Guarantees and behaviors:
//   * The follower applies exactly what is on its disk: each chunk is
//     persisted to the local journal directory, then read back through
//     the same CycleJournalReader crash recovery uses, in one loop that
//     serves both the bootstrap and the live pump. A follower restart
//     therefore resumes from its own disk (Open replays the newest
//     locally-anchored segment exactly like crash recovery —
//     RecoveryDriver's selection rule — truncates any torn tail, and
//     continues fetching from that offset).
//   * A chunk ending mid-frame (the leader's live tail) just waits for
//     the rest: the reader reports the partial frame as a torn tail and
//     reads on once the next chunk lands, so a torn leader tail can at
//     worst delay the follower, not corrupt it.
//   * `sealed` chunks advance to the next segment; its anchor snapshot
//     is skipped (the follower already holds exactly that state).
//   * `restart` (the leader garbage-collected past us, or was replaced)
//     wipes the local directory, resets the service to a fresh engine
//     (sessions and their delta buffers survive) and re-ships from the
//     leader's oldest segment — whose anchor snapshot is a complete
//     catch-up. Slow followers therefore never stall the leader; they
//     pay with a full resync.
//   * The leader being down is not fatal: fetches fail, the follower
//     keeps serving reads at its last applied state, and the pump
//     reconnects with backoff until Stop() or Promote().
//
// Promote() stops the pump and turns the service into a leader in place
// (MonitorService::Promote): journaling resumes over the shipped
// directory and writes are accepted — the manual failover path.

#ifndef TOPKMON_REPLICA_FOLLOWER_H_
#define TOPKMON_REPLICA_FOLLOWER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "journal/journal_reader.h"
#include "net/client.h"
#include "service/monitor_service.h"
#include "util/fs.h"

namespace topkmon {

struct ReplicaFollowerOptions {
  std::string leader_host = "127.0.0.1";
  std::uint16_t leader_port = 0;
  /// Session label of the fetch connection on the leader (diagnostics).
  std::string label = "replica";
  /// Bytes requested per fetch (server clamps to kMaxReplChunkBytes).
  std::uint32_t fetch_bytes = 256u << 10;
  /// Server-side long-poll per fetch when the journal has nothing new.
  std::chrono::milliseconds fetch_wait{200};
  /// Pacing while tail-chasing: when a chunk comes back *partial* (the
  /// follower is at the live tail, not catching up), wait this long
  /// before the next fetch instead of hammering the leader with a
  /// round trip per appended cycle — each fetch costs the leader's
  /// poll thread fixed work, and at the tail that fixed cost would
  /// otherwise dominate (measured in bench/replica_lag). Full chunks
  /// (catch-up, bandwidth-bound) are never paced. Bounds steady-state
  /// apply lag from below; 0 disables pacing.
  std::chrono::milliseconds fetch_interval{2};
  /// Backoff between reconnect attempts while the leader is unreachable.
  std::chrono::milliseconds reconnect_backoff{200};
  NetClientOptions client;
};

/// Pump-thread counters (snapshot; see also service().replication()).
struct ReplicaFollowerStats {
  std::uint64_t chunks_received = 0;
  std::uint64_t bytes_shipped = 0;     ///< journal bytes received
  std::uint64_t records_applied = 0;   ///< journal records replayed live
  std::uint64_t segments_completed = 0;
  std::uint64_t restarts = 0;          ///< full resyncs (leader GC'd past us)
  std::uint64_t fetch_errors = 0;      ///< failed fetches / reconnects
  std::uint64_t current_segment = 0;
  std::uint64_t shipped_offset = 0;    ///< bytes of current segment on disk
  Timestamp applied_cycle_ts = 0;
  Timestamp leader_cycle_ts = 0;
  bool connected = false;
  /// Steady-clock instant of the last *successful* fetch (including
  /// empty long-poll answers — they still prove the leader is alive).
  /// Zero (epoch of the steady clock) until the first success. The
  /// failover agent's liveness probe: a leader is presumed dead once
  /// this stalls past the election timeout.
  std::chrono::steady_clock::time_point last_fetch_ok{};

  /// Cycle-timestamp apply lag (leader progress minus ours) — the same
  /// staleness formula follower reads carry on the wire.
  Timestamp LagTs() const {
    ReplicationInfo info;
    info.applied_cycle_ts = applied_cycle_ts;
    info.leader_cycle_ts = leader_cycle_ts;
    return info.StaleBy();
  }
};

class ReplicaFollower {
 public:
  /// Builds the follower service (engine from `engine_factory`),
  /// bootstraps it from any journal already shipped into
  /// `service_options.journal.dir` (required non-empty — it is the local
  /// ship target), and starts the pump thread against the leader.
  static Result<std::unique_ptr<ReplicaFollower>> Open(
      const std::function<std::unique_ptr<MonitorEngine>()>& engine_factory,
      const ServiceOptions& service_options,
      const ReplicaFollowerOptions& options);

  ~ReplicaFollower();

  ReplicaFollower(const ReplicaFollower&) = delete;
  ReplicaFollower& operator=(const ReplicaFollower&) = delete;

  /// The follower-mode service: read it (FindSession, CurrentResult,
  /// delta polls) or front it with its own TcpServer for remote readers.
  MonitorService& service() { return *service_; }
  const MonitorService& service() const { return *service_; }

  ReplicaFollowerStats stats() const;

  /// Blocks until the follower has applied a cycle at or past `ts`, or
  /// `timeout` passes (FailedPrecondition). The test/ops barrier for
  /// "caught up to the leader's cycle X".
  Status WaitForCycleTs(Timestamp ts, std::chrono::milliseconds timeout);

  /// Stops the pump thread (idempotent; the service keeps serving reads
  /// at its last applied state).
  void Stop();

  /// Failover: stops the pump, then promotes the service to leader in
  /// place. After Ok, service() accepts writes and journals into the
  /// shipped directory. The follower object is done (pump stays stopped).
  Status Promote();

  /// Election promotion (v5): like Promote(), but names the new fencing
  /// epoch — must exceed every epoch this follower has observed from
  /// shipped chunks. The failover agent calls this with the epoch it
  /// won the election at.
  Status Promote(std::uint64_t new_epoch);

  /// Re-targets the pump at a different leader (v5 failover: a sibling
  /// follower won the election). The current connection is abandoned
  /// and the next fetch goes to `host:port`; the service's
  /// redirect-to-leader endpoint is updated in the same breath. Safe
  /// from any thread, including while the pump is mid-fetch.
  void SetLeader(const std::string& host, std::uint16_t port);

  /// Where the pump currently fetches from ("host:port").
  std::string leader_endpoint() const;

 private:
  ReplicaFollower(std::unique_ptr<MonitorService> service,
                  ReplicaFollowerOptions options, std::string journal_dir);

  /// Replays any locally shipped journal into the fresh service and
  /// positions the ship cursor; called once before the pump starts.
  Status Bootstrap();

  void PumpLoop();
  /// Reads the local copy of the current segment through reader_ and
  /// applies every complete record past it: the segment's anchor first
  /// (applied after a resync, skipped after crossing a sealed segment),
  /// then the records behind it. Ok once it reaches the end of the
  /// shipped bytes, even mid-frame (the next chunk brings the rest); an
  /// error when the copy is damaged or the service refuses a record
  /// (the caller resyncs).
  Status ApplyShipped();
  /// The pump's failure tail: counts a fetch error, drops the leader
  /// connection (and reports disconnected) when `drop_client`, and
  /// backs off before the next attempt.
  void FailFetch(bool drop_client);
  /// Appends chunk bytes to the current local segment file.
  Status PersistChunk(const std::string& data);
  /// Closes the local segment file, fdatasyncing it first when `sync`;
  /// returns the fdatasync failure, if any (the file is closed anyway).
  Status CloseSegmentFile(bool sync);
  /// Deletes every local segment except `keep` (default: delete all).
  void WipeLocalSegments(std::uint64_t keep = ~std::uint64_t{0});
  /// Full resync: wipe local state and restart shipping at `segment`.
  Status ResyncFrom(std::uint64_t segment);
  /// Interruptible sleep (wakes early on Stop).
  void Backoff(std::chrono::milliseconds wait);

  /// Bridges pump counters + apply lag into the service's metric scrape
  /// (registered by Open, removed by Stop).
  void SampleReplicaMetrics(MetricSink& sink) const;

  std::unique_ptr<MonitorService> service_;
  const ReplicaFollowerOptions options_;
  const std::string journal_dir_;

  // Re-targetable leader endpoint (guarded by mu_). retarget_ tells the
  // pump its current connection points at a deposed leader.
  std::string leader_host_;
  std::uint16_t leader_port_ = 0;
  bool retarget_ = false;

  // Pump-thread state (only touched by the pump and, before it starts,
  // by Bootstrap).
  std::unique_ptr<MonitorClient> client_;
  std::uint64_t segment_ = 0;        ///< segment being shipped
  std::uint64_t shipped_ = 0;        ///< bytes of it on local disk
  /// Reads the local copy of segment_; null until its header landed.
  std::unique_ptr<CycleJournalReader> reader_;
  /// The segment's leading anchor snapshot: still to apply (bootstrap,
  /// resync), still to skip (a sealed segment was crossed), or read.
  enum class Anchor { kApply, kSkip, kDone };
  Anchor anchor_ = Anchor::kApply;
  /// Set when Bootstrap resumed from pre-existing local bytes; armed
  /// until the first successful connect. Bytes this process shipped
  /// itself are always a prefix of the elected leader's journal, but
  /// bytes inherited from disk may have been written by a deposed
  /// leader past the ship point — same (segment, offset) coordinates,
  /// different content. If the first leader we reach serves a fencing
  /// epoch newer than the one our journal dir was written under, the
  /// local tail is suspect and we full-resync instead of continuing
  /// byte-wise (the shipper cannot detect divergence at offsets that
  /// still fit inside its segment).
  bool resumed_from_disk_ = false;
  fs::File segment_file_;  ///< the local copy of segment_, while shipping

  mutable std::mutex mu_;
  std::condition_variable stop_cv_;
  ReplicaFollowerStats stats_;
  std::atomic<bool> stop_{false};
  bool stopped_ = false;  ///< pump joined
  /// Admin-plane sampler on the owned service's registry (0 = none).
  /// Removed by the first Stop(), outside mu_ — the sampler takes mu_
  /// itself, so removing under it would deadlock.
  std::uint64_t sampler_id_ = 0;
  std::thread pump_;
};

}  // namespace topkmon

#endif  // TOPKMON_REPLICA_FOLLOWER_H_
