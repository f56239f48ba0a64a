// Blocking C++ client for the topkmon binary TCP protocol.
//
// One MonitorClient is one connection plus the session the Hello
// handshake bound it to. The API mirrors the slice of MonitorService a
// remote client is allowed to drive — batched ingest, query
// registration, snapshot reads and long-polled delta subscriptions —
// with every call a strict send-one-frame / read-one-frame round trip
// (an Error response decodes back into the Status the service returned,
// so remote calls fail with the same codes local ones do).
//
// Reconnect/resume: a client constructed with resume=true adopts the
// oldest open session with its label, whose subscription buffer kept
// accumulating sequence-numbered deltas while the client was away —
// polling simply continues where the previous connection stopped, with
// the sequence numbers proving the stream is gap-free (last_seq() is
// maintained across calls for exactly that check).
//
// Thread model: a MonitorClient is NOT thread-safe; use one per thread
// (connections are cheap, and the server multiplexes them all onto one
// poll loop). Blocking reads carry a socket receive timeout
// (NetClientOptions::io_timeout, applied on top of any long-poll
// timeout) so a dead server surfaces as an error, not a hang.

#ifndef TOPKMON_NET_CLIENT_H_
#define TOPKMON_NET_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "replica/shipper.h"
#include "service/subscription_hub.h"
#include "util/socket.h"

namespace topkmon {

struct NetClientOptions {
  /// Per-read *and* per-send socket timeout beyond which the connection
  /// is declared dead (and poisoned — no call can desync the dialog
  /// afterwards). Long polls extend the read side by their own timeout
  /// automatically.
  std::chrono::milliseconds io_timeout{30000};
};

class MonitorClient {
 public:
  /// Connects, performs the Hello/Welcome handshake, and returns a
  /// client bound to a session. With resume=true an existing session
  /// with this label is adopted if the server has one (resumed() tells
  /// which happened).
  static Result<std::unique_ptr<MonitorClient>> Connect(
      const std::string& host, std::uint16_t port, const std::string& label,
      bool resume = true, const NetClientOptions& options = {});

  /// Closes the socket. The session stays open server-side (resume
  /// depends on it); call Close(true) first to release it explicitly.
  ~MonitorClient() = default;

  MonitorClient(const MonitorClient&) = delete;
  MonitorClient& operator=(const MonitorClient&) = delete;

  SessionId session() const { return session_; }
  bool resumed() const { return resumed_; }
  /// True when the Welcome announced a read-only replication follower
  /// (writes will be refused with a redirect-to-leader status).
  bool server_is_follower() const { return server_role_ == 1; }
  /// The server's operator-assigned identity from the Welcome (v4): the
  /// cluster partition index, or kNoServerTag on a standalone server.
  /// The cluster router checks this against its partition map before
  /// trusting a connection.
  std::uint32_t server_tag() const { return server_tag_; }

  /// Highest fencing epoch this client has observed (v5) — carried on
  /// Welcome, IngestAck, ReplChunk and StatusInfo. A jump above the
  /// epoch a leader connection was established at means that leader has
  /// been deposed; routers re-resolve on the FENCED refusal itself, but
  /// this accessor lets them compare candidate leaders by term.
  std::uint64_t fencing_epoch() const { return fencing_epoch_; }

  /// False once a transport error (send/recv failure, timeout, framing
  /// error) has poisoned the connection — every later call fails until
  /// the caller re-Connects. Lets the cluster router tell a dead
  /// partition apart from an ordinary service refusal, which leaves the
  /// connection healthy.
  bool connected() const { return socket_.is_open(); }

  /// Per-batch ingest outcome. A batch is not transactional: tuples are
  /// admitted individually, so some may be accepted and others refused
  /// (rate limit, validation); first_error carries the first refusal.
  struct IngestAck {
    std::uint32_t accepted = 0;
    std::uint32_t rejected = 0;
    Status first_error;
    /// Server backpressure hint (protocol v3): 0 while the server's
    /// ingest queue is healthy, else its fullness scaled into 1..255.
    /// Producers should self-pace as it rises; a RESOURCE_EXHAUSTED
    /// first_error means the queue filled mid-batch — tuples are
    /// admitted in arrival order, so when every rejection in the ack is
    /// that refusal, the accepted tuples are exactly the sorted batch's
    /// prefix and the producer retries the suffix after backing off.
    std::uint8_t queue_hint = 0;
  };

  /// Ships one batch of (position, arrival) tuples. Record ids in
  /// `tuples` are ignored: the batch is stably sorted by arrival and
  /// re-identified with the 0..n-1 ramp the span encoding needs; the
  /// service assigns real record ids at admission. An empty batch is a
  /// no-op Ok.
  Result<IngestAck> Ingest(std::vector<Record> tuples);

  /// Registers a continuous query (spec.id is ignored) and returns the
  /// service-assigned id. Deltas for it flow into this session's
  /// subscription, starting with the initial result.
  Result<QueryId> Register(const QuerySpec& spec);

  Status Unregister(QueryId query);

  /// Registers several queries in one frame (one round trip instead of
  /// N) — how a batch of subscriptions is (re-)announced cheaply, e.g.
  /// after failing over to a promoted follower. Outcomes are per query:
  /// a refused spec does not fail its siblings.
  Result<std::vector<RegisterOutcome>> RegisterBatch(
      const std::vector<QuerySpec>& specs);

  /// Snapshot read of a query's current top-k. `snapshot_as_of()` /
  /// `snapshot_stale_by()` report the freshness of the last snapshot: a
  /// follower answers with the timestamp of its last applied cycle and a
  /// bound on how far that lags the leader (a leader reports 0 lag).
  Result<std::vector<ResultEntry>> CurrentResult(QueryId query);
  Timestamp snapshot_as_of() const { return snapshot_as_of_; }
  Timestamp snapshot_stale_by() const { return snapshot_stale_by_; }

  /// Replication fetch (follower internals; see docs/REPLICATION.md):
  /// raw journal bytes of `segment` from `offset`. Blocks server-side up
  /// to `wait` when the journal has nothing new. max_bytes==0 lets the
  /// server pick its cap.
  Result<ShipChunk> ReplFetch(std::uint64_t segment, std::uint64_t offset,
                              std::uint32_t max_bytes,
                              std::chrono::milliseconds wait);

  /// The leader's last applied cycle timestamp as of the last ReplFetch
  /// answer — the follower's staleness reference.
  Timestamp leader_cycle_ts() const { return leader_cycle_ts_; }

  /// One Status/StatusInfo probe answer (v5): the peer's role, fencing
  /// epoch, applied cycle frontier, and local journal end. Electing
  /// followers rank each other on (applied_cycle_ts, journal position);
  /// operators use it as a cheap liveness/role check.
  struct ServerStatus {
    std::uint8_t role = 0;  ///< 0 = leader, 1 = follower
    std::uint64_t fencing_epoch = 0;
    Timestamp applied_cycle_ts = 0;
    std::uint64_t journal_segment = 0;
    std::uint64_t journal_offset = 0;
    /// A deposed leader still reports role 0; this latch is the truth.
    /// Fenced peers must not be adopted as leaders or routed writes.
    bool fenced = false;
  };

  /// Probes the server's replication status (v5). Cheap and read-only:
  /// safe to call in election loops at sub-second cadence.
  Result<ServerStatus> GetStatus();

  /// Read-your-writes wait (v5): polls `query`'s snapshot until the
  /// server's as-of frontier reaches `target` (e.g. the leader frontier
  /// another client observed after its write) or `timeout` passes
  /// (DEADLINE_EXCEEDED). On Ok, the last CurrentResult this client
  /// issues here — and every later one against the same server — is
  /// guaranteed to reflect all cycles up to `target`.
  Status WaitForAsOf(QueryId query, Timestamp target,
                     std::chrono::milliseconds timeout);

  /// Long-polls the session's delta subscription: blocks server-side
  /// until events arrive or `timeout` expires (empty result = timeout).
  /// max_events==0 lets the server pick its cap.
  Result<std::vector<DeltaEvent>> PollDeltas(
      std::uint32_t max_events, std::chrono::milliseconds timeout);

  /// Highest delta sequence number seen by PollDeltas on this client.
  std::uint64_t last_seq() const { return last_seq_; }

  /// The as_of frontier of the last Deltas answer (v4): the server
  /// engine's applied-cycle timestamp sampled before that answer's
  /// events were drained, i.e. every event at or before this timestamp
  /// has now been delivered to this session — unless that answer was
  /// truncated (below; see DeltaMultiplexer for the truncation rule).
  Timestamp deltas_as_of() const { return deltas_as_of_; }

  /// True when the last Deltas answer was cut at the poll's effective
  /// cap with events still buffered server-side (v4 truncated flag —
  /// the server reports this, so it holds even when the server's own
  /// max_poll_events clamp was the binding cap).
  bool deltas_truncated() const { return deltas_truncated_; }

  /// The queue_hint of the most recent IngestAck — the server's standing
  /// backpressure signal for pacing loops that batch fire-and-forget.
  std::uint8_t last_ingest_hint() const { return last_ingest_hint_; }

  /// Graceful goodbye; with close_session the server also closes the
  /// session (releasing its queries and delta buffer — no resume after
  /// this). The socket is closed either way.
  Status Close(bool close_session = false);

 private:
  MonitorClient(socket::Socket socket, const NetClientOptions& options)
      : socket_(std::move(socket)), options_(options) {}

  Status SendFrame(const std::string& body);
  /// Reads exactly one frame and decodes it. `extra_wait` widens the
  /// socket timeout for long polls.
  Result<NetMessage> RecvMessage(std::chrono::milliseconds extra_wait);
  /// Send + receive; kError responses become their carried Status, any
  /// type other than `want` is an Internal error.
  Result<NetMessage> RoundTrip(const std::string& body, NetMessageType want,
                               std::chrono::milliseconds extra_wait =
                                   std::chrono::milliseconds(0));

  socket::Socket socket_;
  const NetClientOptions options_;
  SessionId session_ = 0;
  bool resumed_ = false;
  std::uint8_t server_role_ = 0;
  std::uint32_t server_tag_ = kNoServerTag;
  std::uint64_t fencing_epoch_ = 0;
  std::uint64_t last_seq_ = 0;
  Timestamp deltas_as_of_ = 0;
  bool deltas_truncated_ = false;
  std::uint8_t last_ingest_hint_ = 0;
  Timestamp snapshot_as_of_ = 0;
  Timestamp snapshot_stale_by_ = 0;
  Timestamp leader_cycle_ts_ = 0;
  std::string inbuf_;
};

}  // namespace topkmon

#endif  // TOPKMON_NET_CLIENT_H_
