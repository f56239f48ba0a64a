// FailoverAgent — unattended, follower-driven leader election.
//
// One agent rides along each ReplicaFollower and turns the manual
// Promote() runbook step into a closed loop (docs/OPERATIONS.md):
//
//   monitor:  the pump's successful fetches double as leader liveness
//             (every answered ReplFetch proves the leader was alive);
//             once they stall past election_timeout the leader is
//             presumed dead and an election round starts.
//   elect:    probe every peer follower's Status (applied cycle
//             frontier, journal end, fencing epoch). The candidate with
//             the longest *applied* journal wins — primary key
//             applied_cycle_ts, then journal (segment, offset), then
//             the lexicographically smallest endpoint as the
//             deterministic tie-break. Probes also discover an already
//             promoted sibling, which short-circuits the round.
//   promote:  the winner self-promotes through ReplicaFollower::Promote
//             with a fencing epoch minted from the highest epoch
//             observed anywhere (MintFencingEpoch in lease.h: next
//             generation, low byte = this node's rank in the sorted
//             configured membership). The rank makes minted epochs
//             node-unique: two candidates that fail to probe each other
//             (symmetric partition, probe timeout) may both promote,
//             but at DIFFERENT epochs, so the strict greater-than
//             arbitration everywhere still settles on one of them and
//             the split heals. This requires every node to be
//             configured with the same member set (self + peers).
//   adopt:    losers back off and re-probe; when the winner shows up as
//             a leader they re-target their pump at it (SetLeader). A
//             winner that died mid-election simply stops answering
//             probes, drops out of the next round's candidate set, and
//             the second-ranked follower takes over — an election
//             round always converges on *some* leader among the
//             followers still alive.
//
// Safety note (docs/REPLICATION.md): election_timeout MUST exceed the
// leader's lease duration. The lease is renewed by follower fetches, so
// "fetches stalled for election_timeout" implies "the leader has seen
// no contact from *this* follower for longer than its lease" — with a
// single follower that proves the old leader fenced itself before the
// new one accepts a write. With several followers a partitioned subset
// can elect while the old leader still hears the rest; the fencing
// epoch then settles who wins (clients follow the highest epoch), but
// writes accepted by the old leader in that window survive only if it
// later rejoins as a follower of itself — this agent is lease-based,
// not quorum-based, and trades that window for zero extra write-path
// coordination.

#ifndef TOPKMON_REPLICA_FAILOVER_H_
#define TOPKMON_REPLICA_FAILOVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "replica/follower.h"
#include "util/clock.h"

namespace topkmon {

struct FailoverOptions {
  /// How peers reach *this* node's TCP server ("host:port") — the
  /// agent's identity in the candidate ranking and what its siblings
  /// SetLeader to if it wins.
  std::string self_endpoint;
  /// The sibling followers' TCP servers ("host:port" each; not the
  /// leader, not self). Probed every election round.
  std::vector<std::string> peers;
  /// Leader silence (no successful fetch on the pump) after which an
  /// election starts. MUST be strictly greater than the leader's
  /// LeaseOptions::duration_seconds — see the header comment.
  std::chrono::milliseconds election_timeout{3000};
  /// Liveness-check cadence of the monitor loop.
  std::chrono::milliseconds poll_interval{100};
  /// Socket I/O timeout of one peer Status probe.
  std::chrono::milliseconds probe_timeout{1000};
  /// How long a losing candidate waits for the winner to show up as a
  /// leader before re-running the round (the dead-winner takeover
  /// path). Several times smaller than election_timeout is sensible.
  std::chrono::milliseconds takeover_backoff{300};
};

struct FailoverStats {
  std::uint64_t elections_started = 0;  ///< monitor-loop trips into elect
  std::uint64_t rounds = 0;             ///< probe rounds run in total
  std::uint64_t probes_failed = 0;      ///< unreachable peers (cumulative)
  std::uint64_t leaders_adopted = 0;    ///< re-targets to a sibling winner
  bool promoted = false;                ///< this node won and is the leader
};

/// Background failover driver for one ReplicaFollower. Construction
/// starts the monitor thread; Stop() (or destruction) joins it. The
/// follower must outlive the agent.
class FailoverAgent {
 public:
  FailoverAgent(ReplicaFollower* follower, FailoverOptions options);
  ~FailoverAgent();

  FailoverAgent(const FailoverAgent&) = delete;
  FailoverAgent& operator=(const FailoverAgent&) = delete;

  /// Stops the monitor thread (idempotent). A promotion already in
  /// flight completes; one not yet started never will.
  void Stop();

  FailoverStats stats() const;
  /// True once this agent promoted its follower. The service then
  /// accepts writes; the agent's monitor loop has ended.
  bool promoted() const;

 private:
  /// One peer's (or our own) claim in an election round.
  struct Candidate {
    std::string endpoint;
    Timestamp applied_cycle_ts = 0;
    std::uint64_t journal_segment = 0;
    std::uint64_t journal_offset = 0;
  };

  void Loop(Clock::time_point baseline);
  /// Runs probe rounds until a leader exists (self or adopted) or the
  /// agent is stopped. Returns true when a leader was established.
  bool RunElection();
  /// Ranks `a` above `b`: longer applied journal first, then journal
  /// position, then smallest endpoint. Total order — every candidate
  /// set has exactly one winner, no matter who computes it.
  static bool Outranks(const Candidate& a, const Candidate& b);
  /// This node's position in the sorted configured membership (self +
  /// peers) — the node-unique low byte of every epoch this agent mints.
  std::uint8_t SelfRank() const;
  /// Interruptible sleep; returns false if stopped meanwhile.
  bool SleepFor(std::chrono::milliseconds wait);

  /// Bridges election counters into the follower service's metric
  /// scrape (registered at construction, removed by Stop).
  void SampleFailoverMetrics(MetricSink& sink) const;

  ReplicaFollower* const follower_;
  const FailoverOptions options_;

  mutable std::mutex mu_;
  std::condition_variable stop_cv_;
  FailoverStats stats_;
  std::atomic<bool> stop_{false};
  bool joined_ = false;
  /// Admin-plane sampler on the follower service's registry (0 =
  /// none). Removed by the first Stop(), outside mu_ (the sampler takes
  /// mu_ — removing under it would deadlock).
  std::uint64_t sampler_id_ = 0;
  std::thread thread_;
};

}  // namespace topkmon

#endif  // TOPKMON_REPLICA_FAILOVER_H_
