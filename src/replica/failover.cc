#include "replica/failover.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "replica/lease.h"

namespace topkmon {
namespace {

/// Splits "host:port"; returns false on anything unparsable.
bool SplitEndpoint(const std::string& endpoint, std::string* host,
                   std::uint16_t* port) {
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= endpoint.size()) {
    return false;
  }
  char* end = nullptr;
  const unsigned long value =
      std::strtoul(endpoint.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || value == 0 || value > 65535) {
    return false;
  }
  *host = endpoint.substr(0, colon);
  *port = static_cast<std::uint16_t>(value);
  return true;
}

}  // namespace

FailoverAgent::FailoverAgent(ReplicaFollower* follower,
                             FailoverOptions options)
    : follower_(follower), options_(std::move(options)) {
  // Admin plane: election counters join the follower service's
  // registry (so /metrics and /statusz) until Stop deregisters them.
  sampler_id_ = follower_->service().metrics().AddSampler(
      [this](MetricSink& sink) { SampleFailoverMetrics(sink); });
  thread_ = std::thread([this] { Loop(); });
}

FailoverAgent::~FailoverAgent() { Stop(); }

void FailoverAgent::Stop() {
  std::thread joinable;
  {
    // The store must happen under mu_: SleepFor evaluates its predicate
    // under the same lock, so a waiter that just saw stop_ false is
    // still inside wait_for and cannot miss the notify — storing
    // outside the lock could slip the notification between its
    // predicate check and its block, stalling Stop() a full backoff.
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true, std::memory_order_release);
    stop_cv_.notify_all();
    if (joined_) return;
    joined_ = true;
    joinable = std::move(thread_);
  }
  if (joinable.joinable()) joinable.join();
  // First Stop only (later calls returned above). Outside mu_: the
  // sampler takes mu_, and the removal blocks until any in-flight
  // scrape is done with this object.
  if (sampler_id_ != 0) {
    follower_->service().metrics().RemoveSampler(sampler_id_);
    sampler_id_ = 0;
  }
}

void FailoverAgent::SampleFailoverMetrics(MetricSink& sink) const {
  const FailoverStats s = stats();
  sink.AddCounter("topkmon_failover_elections_started_total",
                  "Monitor-loop trips into an election",
                  static_cast<double>(s.elections_started));
  sink.AddCounter("topkmon_failover_rounds_total",
                  "Election probe rounds run",
                  static_cast<double>(s.rounds));
  sink.AddCounter("topkmon_failover_probes_failed_total",
                  "Unreachable peers across all probe rounds",
                  static_cast<double>(s.probes_failed));
  sink.AddCounter("topkmon_failover_leaders_adopted_total",
                  "Pump re-targets to a sibling election winner",
                  static_cast<double>(s.leaders_adopted));
  sink.AddGauge("topkmon_failover_promoted",
                "1 once this node won an election and leads",
                s.promoted ? 1.0 : 0.0);
}

FailoverStats FailoverAgent::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

bool FailoverAgent::promoted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.promoted;
}

bool FailoverAgent::SleepFor(std::chrono::milliseconds wait) {
  std::unique_lock<std::mutex> lock(mu_);
  stop_cv_.wait_for(lock, wait, [this] { return stop_.load(); });
  return !stop_.load(std::memory_order_acquire);
}

std::uint8_t FailoverAgent::SelfRank() const {
  // Position of self in the sorted full membership (self + peers). The
  // configuration is static and — when symmetric across nodes — yields
  // a distinct rank per node, which is what makes minted epochs
  // node-unique (see lease.h): two candidates that failed to probe each
  // other may both promote, but never at the same epoch.
  std::vector<std::string> members = options_.peers;
  members.push_back(options_.self_endpoint);
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()),
                members.end());
  const auto it =
      std::find(members.begin(), members.end(), options_.self_endpoint);
  const auto index = static_cast<std::size_t>(it - members.begin());
  return static_cast<std::uint8_t>(std::min<std::size_t>(
      index, kOperatorFencingRank - 1));
}

bool FailoverAgent::Outranks(const Candidate& a, const Candidate& b) {
  if (a.applied_cycle_ts != b.applied_cycle_ts) {
    return a.applied_cycle_ts > b.applied_cycle_ts;
  }
  if (a.journal_segment != b.journal_segment) {
    return a.journal_segment > b.journal_segment;
  }
  if (a.journal_offset != b.journal_offset) {
    return a.journal_offset > b.journal_offset;
  }
  // Frontier tie: the smallest endpoint wins. Every agent computes the
  // same order from the same probe answers, so at most one candidate
  // believes it is the winner.
  return a.endpoint < b.endpoint;
}

void FailoverAgent::Loop() {
  // The silence clock starts now: a follower booted against an already
  // dead leader should still wait a full election_timeout before its
  // first election, not fire instantly off a zero last_fetch_ok.
  auto baseline = std::chrono::steady_clock::now();
  while (SleepFor(options_.poll_interval)) {
    if (follower_->service().role() == ServiceRole::kLeader) {
      // Promoted out from under us (operator Promote, or our own win
      // last round). Nothing left to monitor.
      return;
    }
    const ReplicaFollowerStats st = follower_->stats();
    const auto last = std::max(st.last_fetch_ok, baseline);
    if (std::chrono::steady_clock::now() - last <
        options_.election_timeout) {
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.elections_started;
    }
    if (!RunElection()) return;  // stopped mid-election
    if (promoted()) return;
    // A sibling won and the pump was re-targeted; give the new leader a
    // fresh silence window before judging it.
    baseline = std::chrono::steady_clock::now();
  }
}

bool FailoverAgent::RunElection() {
  NetClientOptions probe_client;
  probe_client.io_timeout = options_.probe_timeout;
  while (!stop_.load(std::memory_order_acquire)) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.rounds;
    }
    // Our own candidacy, sampled once per round. The leader is dead, so
    // nobody's frontier moves mid-round and every agent ranks the same
    // snapshot.
    const ReplicaFollowerStats self_stats = follower_->stats();
    Candidate self;
    self.endpoint = options_.self_endpoint;
    self.applied_cycle_ts = self_stats.applied_cycle_ts;
    self.journal_segment = self_stats.current_segment;
    self.journal_offset = self_stats.shipped_offset;

    std::uint64_t max_epoch = follower_->service().fencing_epoch();
    Candidate winner = self;
    std::string leader_endpoint;
    std::uint64_t leader_epoch = 0;
    for (const std::string& peer : options_.peers) {
      std::string host;
      std::uint16_t port = 0;
      if (!SplitEndpoint(peer, &host, &port)) continue;
      auto client = MonitorClient::Connect(
          host, port, "failover:" + options_.self_endpoint,
          /*resume=*/true, probe_client);
      if (!client.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.probes_failed;
        continue;
      }
      const auto status = (*client)->GetStatus();
      (void)(*client)->Close(/*close_session=*/false);
      if (!status.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.probes_failed;
        continue;
      }
      max_epoch = std::max(max_epoch, status->fencing_epoch);
      if (status->fenced) {
        // A fenced leader is a deposed one: it refuses writes, cannot
        // promote again, and must be neither adopted as a leader nor
        // ranked as a candidate. Its epoch still raised max_epoch
        // above, so our mint outranks its dead term.
        continue;
      }
      if (status->role == static_cast<std::uint8_t>(ServiceRole::kLeader)) {
        // Someone already won (or the probed node was a leader all
        // along). Prefer the highest-epoch leader if several answer —
        // stale deposed leaders lose to the freshest term.
        if (leader_endpoint.empty() || status->fencing_epoch > leader_epoch) {
          leader_endpoint = peer;
          leader_epoch = status->fencing_epoch;
        }
        continue;
      }
      Candidate c;
      c.endpoint = peer;
      c.applied_cycle_ts = status->applied_cycle_ts;
      c.journal_segment = status->journal_segment;
      c.journal_offset = status->journal_offset;
      if (Outranks(c, winner)) winner = c;
    }

    if (!leader_endpoint.empty()) {
      std::string host;
      std::uint16_t port = 0;
      SplitEndpoint(leader_endpoint, &host, &port);
      follower_->SetLeader(host, port);
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.leaders_adopted;
      return true;
    }

    if (winner.endpoint == options_.self_endpoint) {
      const Status st =
          follower_->Promote(MintFencingEpoch(max_epoch, SelfRank()));
      if (st.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.promoted = true;
        return true;
      }
      // Promotion failed locally (journal I/O, epoch raced higher).
      // Re-probe after a backoff — by then either the racing winner
      // answers as a leader or our retry gets a fresh epoch.
      if (!SleepFor(options_.takeover_backoff)) return false;
      continue;
    }

    // We lost this round: wait for the winner to answer probes as a
    // leader. If it died mid-election it stops answering entirely,
    // drops out of the next round's candidate set, and the ranking
    // falls to the next follower — no round ends leaderless while any
    // candidate survives.
    if (!SleepFor(options_.takeover_backoff)) return false;
  }
  return false;
}

}  // namespace topkmon
