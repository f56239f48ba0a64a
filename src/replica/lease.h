// Leader lease + fencing-epoch primitives for automatic failover.
//
// The replication tier's failure model (docs/REPLICATION.md): one
// journaled leader, N followers pulling journal bytes over ReplFetch.
// The lease rides that existing traffic — every fetch a follower makes
// IS a lease renewal, so a leader that can still reach its followers
// keeps its lease without any extra protocol, and a leader cut off from
// all of them watches the lease run out and fences itself. Elections
// are follower-driven (src/replica/failover.h); the epoch is the
// fencing token that makes the handoff safe:
//
//   - Every leadership term has a fencing epoch, monotone across
//     failovers, persisted in an EPOCH file next to the journal
//     segments (the journal byte format itself is untouched).
//   - A promoting follower bumps the epoch; the old leader — paused,
//     partitioned, or restarted — refuses every write with FENCED the
//     moment its lease lapses or it observes a higher epoch, whichever
//     comes first. Observation is sticky: once deposed, always deposed.
//
// The lease is timed on the leader's node clock (MonitorService::
// clock(), util/clock.h), which a test can freeze and advance, so
// lease-expiry tests are deterministic.

#ifndef TOPKMON_REPLICA_LEASE_H_
#define TOPKMON_REPLICA_LEASE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "util/clock.h"

namespace topkmon {

/// Leader-lease configuration (ServiceOptions::lease). Leases are
/// opt-in: a default-constructed options struct disables them and the
/// service behaves exactly as before v5 (epoch pinned at 0, writes
/// never fenced).
struct LeaseOptions {
  /// Master switch. When false the service neither tracks renewals nor
  /// fences writes.
  bool enabled = false;
  /// Seconds of follower silence after which the leader self-fences.
  /// An electing follower must wait strictly longer than this before
  /// self-promoting (FailoverOptions::election_timeout, in
  /// milliseconds), so the old leader is provably fenced before the new
  /// one accepts a write.
  double duration_seconds = 2.0;
};

/// Thread-safe renewal record for a leader's lease. The server's poll
/// loops renew it on every follower fetch; the write path checks
/// Expired() against the node clock. No internal locking beyond the
/// atomic — callers never need a consistent multi-field view.
class FencingLease {
 public:
  explicit FencingLease(double duration_seconds)
      : duration_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(duration_seconds))) {}

  /// Arms the lease: the grace period starts at `now`, so a freshly
  /// promoted or restarted leader is not instantly expired while its
  /// followers re-target.
  void Start(Clock::time_point now) {
    last_renewal_.store(Ticks(now), std::memory_order_relaxed);
  }

  /// Records follower contact (a ReplFetch served). Monotone: a stale
  /// renewal never moves the record backwards.
  void Renew(Clock::time_point now) {
    const Clock::duration::rep ticks = Ticks(now);
    Clock::duration::rep prev = last_renewal_.load(std::memory_order_relaxed);
    while (prev < ticks && !last_renewal_.compare_exchange_weak(
                               prev, ticks, std::memory_order_relaxed)) {
    }
  }

  bool Expired(Clock::time_point now) const {
    return Ticks(now) - last_renewal_.load(std::memory_order_relaxed) >
           duration_.count();
  }

 private:
  static Clock::duration::rep Ticks(Clock::time_point t) {
    return t.time_since_epoch().count();
  }

  const Clock::duration duration_;
  std::atomic<Clock::duration::rep> last_renewal_{0};
};

// ---- epoch minting ----------------------------------------------------
//
// Minted epochs are node-unique by construction: the low byte of every
// epoch is the minting node's rank, the high bits a monotone
// generation. Two candidates that cannot see each other (symmetric
// partition, probe timeouts) may both win their own election round —
// with a bare max+1 mint they would settle on the SAME epoch, and the
// strictly-greater-than arbitration everywhere (ObserveFencingEpoch,
// router re-resolution, election leader adoption) could then never pick
// between them: an undetectable, unhealing split brain. Distinct ranks
// make the minted epochs distinct, so the split stays inside the
// documented lease-window tradeoff and heals the moment arbitration
// sees both terms. Ranks come from the statically configured membership
// (FailoverOptions::self_endpoint + peers, sorted), so they are stable
// across rounds and identical on every node as long as every node is
// configured with the same member set.

/// Bits of a fencing epoch that carry the minting node's rank.
inline constexpr unsigned kFencingRankBits = 8;

/// Reserved rank for operator-driven promotions (MonitorService::
/// Promote() with no epoch). Election agents clamp their ranks below
/// this, so a manual promotion can never collide with an automatic one.
inline constexpr std::uint8_t kOperatorFencingRank = 0xFF;

/// The generation (monotone failover counter) of an epoch.
constexpr std::uint64_t FencingEpochGeneration(std::uint64_t epoch) {
  return epoch >> kFencingRankBits;
}

/// Mints the epoch of the next generation after `observed`, tagged with
/// the minter's rank. Strictly greater than `observed` for any rank, so
/// Promote()'s monotonicity check always passes; distinct ranks yield
/// distinct epochs no matter what each minter observed.
constexpr std::uint64_t MintFencingEpoch(std::uint64_t observed,
                                         std::uint8_t rank) {
  return ((FencingEpochGeneration(observed) + 1) << kFencingRankBits) |
         rank;
}

/// Reads the persisted fencing epoch from `dir`'s EPOCH file. A missing
/// file is epoch 0 (a group that never failed over); a present but
/// unparsable file is an error — better to refuse startup than to
/// resurrect a deposed leader at a stale epoch.
Result<std::uint64_t> ReadFencingEpoch(const std::string& dir);

/// Durably persists `epoch` into `dir`/EPOCH (write-temp, fsync,
/// rename, fsync dir) — the same crash discipline as journal sealing.
/// Must complete before a promoted leader accepts its first write.
Status WriteFencingEpoch(const std::string& dir, std::uint64_t epoch);

}  // namespace topkmon

#endif  // TOPKMON_REPLICA_LEASE_H_
