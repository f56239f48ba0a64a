// Multi-threaded poll-based TCP front-end for MonitorService.
//
// The server is sharded into N independent poll(2) loops
// (NetServerOptions::server_threads; default min(4, hw_concurrency)).
// One *acceptor* thread owns the listening socket and hands accepted
// connections to the loops round-robin through per-loop handoff queues;
// from then on a connection's buffers, parked state and timeouts belong
// to exactly one loop — loops never touch each other's connections, so
// the data path needs no cross-loop locking (the shared pieces are
// control-plane only: the stats mutex, the handoff queues, and the
// resume-epoch map below).
//
// Each loop multiplexes its connections with poll(2): non-blocking
// reads into per-connection buffers, frame extraction
// (src/net/protocol.h), request dispatch into the service, and buffered
// non-blocking writes. Nothing a client sends can wedge its loop — and
// nothing it does can touch any *other* loop:
//   * a malformed frame (oversized length, CRC mismatch) or an
//     undecodable body fails only that connection — a best-effort error
//     frame is queued, the connection drains its output and closes, and
//     the violation is counted in stats().protocol_errors;
//   * a slow-loris peer that trickles bytes simply leaves a partial
//     frame in its buffer; no loop ever blocks on any single fd;
//   * long-polls never block a loop either — a Poll request with no
//     pending deltas is *parked* (connection remembers max + deadline)
//     and answered from its loop as soon as the session's subscription
//     buffer reports pending events (MonitorService::PendingDeltas) or
//     the deadline passes, whichever is first.
//
// Cross-loop wakeups: every loop owns a self-pipe that is part of its
// poll set. The acceptor writes it to deliver handoffs, and the server
// registers a MonitorService progress listener that writes it whenever
// the driver publishes deltas or the journal grows — so a parked
// long-poll or replication fetch is answered promptly even with a long
// poll_tick, from whichever loop owns the connection.
//
// Ingest backpressure (protocol v3): ingest is admitted with the
// non-blocking TryIngest — a full ingest queue can never stall a poll
// loop. When the queue fills mid-batch the remainder of the batch is
// refused with RESOURCE_EXHAUSTED, and every IngestAck carries the
// service's queue_hint byte (MonitorService::IngestPressure) so
// producers self-pace before hitting the wall.
//
// Session mapping: the Hello/Welcome handshake binds each connection to
// a MonitorService session — freshly opened, or adopted by label
// (FindSession) when the client asks to resume. Disconnects leave the
// session (and its buffered, sequence-numbered deltas) untouched, so a
// reconnecting client continues its delta stream gap-free; an explicit
// Close request with the close-session flag releases it. Resume
// eviction is epoch-based so it stays race-free across loops: resuming
// a session bumps its epoch *before* the Welcome is sent, a parked poll
// remembers the epoch it parked under, and a loop never answers a poll
// whose epoch is stale — the stale connection is failed instead, from
// its own loop, wherever it lives.
//
// Replication: when the service journals, the server also answers
// ReplFetch requests — raw journal byte ranges served through a
// JournalShipper (src/replica/shipper.h) — so any follower can attach to
// the same port clients use. With >= 2 loops the *last* loop is
// dedicated to replication: new client connections round-robin over the
// other loops only, and a connection that issues its first ReplFetch is
// migrated (fd, buffers, session binding and all) to the dedicated loop
// before the fetch is served. Raw journal reads and fetch parking
// therefore live on a loop that client-facing ingest never shares — a
// saturating follower cannot add a microsecond to another connection's
// poll loop. A parked fetch wakes on journal growth
// (MonitorService::JournalProgress) or its deadline, like a long-poll.

#ifndef TOPKMON_NET_SERVER_H_
#define TOPKMON_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/protocol.h"
#include "replica/shipper.h"
#include "service/monitor_service.h"

namespace topkmon {

struct NetServerOptions {
  /// IPv4 address to bind; the default serves loopback only.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back with port()).
  std::uint16_t port = 0;
  int listen_backlog = 64;
  /// Connections beyond this are accepted and immediately closed.
  std::size_t max_connections = 256;
  /// Independent poll loops serving connections (the acceptor thread is
  /// separate). 0 = min(4, hardware_concurrency). With >= 2 loops and a
  /// journaling service, the last loop is dedicated to replication
  /// fetches (see the file comment).
  std::size_t server_threads = 0;
  /// Largest accepted frame body (protocol violation beyond it).
  std::size_t max_frame_bytes = kMaxNetFrameBytes;
  /// Poll granularity: the upper bound on how long a parked long-poll
  /// or fetch waits past its wake condition when the wakeup pipe race
  /// loses (deadlines and idle reaping are also checked per tick).
  std::chrono::milliseconds poll_tick{5};
  /// Server-side clamp on client long-poll timeouts.
  std::chrono::milliseconds max_long_poll{10000};
  /// Server-side clamp on events returned per poll.
  std::size_t max_poll_events = 4096;
  /// Connections that send nothing for this long are reaped (slow-loris
  /// and abandoned sockets cannot hold slots forever). Must exceed
  /// max_long_poll — a healthy long-polling client transmits at least
  /// once per poll round. A *closing* connection gets the same budget to
  /// drain its final frames before it is force-closed. <= 0 disables
  /// reaping.
  std::chrono::milliseconds idle_timeout{60000};
  /// Cap on un-sent response bytes buffered per connection. A peer that
  /// requests faster than it reads (or never reads at all) would
  /// otherwise grow server memory without bound; past the cap the
  /// connection is dropped outright — its socket is not draining, so an
  /// error frame could not be delivered anyway.
  std::size_t max_output_bytes = std::size_t(4) << 20;
  /// Operator-assigned identity echoed in every Welcome (v4) — the
  /// cluster partition index, so a router can verify it dialed the
  /// partition it meant. kNoServerTag (the default) means standalone.
  std::uint32_t server_tag = 0xFFFFFFFFu;
};

/// Observable server counters (snapshot; aggregated across loops under
/// one stats mutex).
struct NetServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t connections_refused = 0;  ///< over max_connections
  std::uint64_t connections_migrated = 0;  ///< moved to the repl loop
  std::uint64_t frames_received = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t protocol_errors = 0;  ///< framing/decode violations
  std::uint64_t bytes_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t records_ingested = 0;  ///< tuples accepted over the wire
  std::uint64_t records_backpressured = 0;  ///< queue-full refusals
  std::uint64_t repl_chunks_sent = 0;  ///< answered replication fetches
  std::uint64_t repl_bytes_shipped = 0;  ///< journal bytes shipped
  std::size_t open_connections = 0;
  /// Records the largest poll-loop ingest decode block can hold (at
  /// most kIngestBlockRecords, whatever frames arrive).
  std::size_t ingest_block_records = 0;

  std::string ToString() const;
};

/// The TCP front-end. Does not own the service; the service must outlive
/// Stop() (which the destructor also runs).
class TcpServer {
 public:
  TcpServer(MonitorService& service, const NetServerOptions& options);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens and starts the acceptor + poll-loop threads.
  /// InvalidArgument for a bad bind address, FailedPrecondition if
  /// already started or the port is taken.
  Status Start();

  /// Closes the listener and every connection, then joins every thread.
  /// Idempotent. Sessions opened by connections stay open in the
  /// service (they are service state, not connection state).
  void Stop();

  /// The bound TCP port (after a successful Start).
  std::uint16_t port() const { return port_; }

  /// Poll loops actually running (after Start resolves server_threads).
  std::size_t loop_count() const { return loops_.size(); }

  /// Index of the loop dedicated to replication fetches; loop_count()
  /// when no loop is dedicated (single loop, or no journal to ship).
  std::size_t replication_loop() const { return repl_loop_; }

  NetServerStats stats() const;

 private:
  struct Connection {
    int fd = -1;
    std::string in;       ///< bytes received, not yet framed
    std::string out;      ///< bytes encoded, not yet sent
    SessionId session = 0;
    bool hello_done = false;
    /// Dialect negotiated at Hello: the client's version, clamped into
    /// [kMinNetProtocolVersion, kNetProtocolVersion]. Every reply on
    /// this connection is shaped for it.
    std::uint32_t wire_version = kNetProtocolVersion;
    /// Protocol violation or Close handled: flush `out`, then close.
    bool closing = false;
    /// First ReplFetch seen on a non-dedicated loop: move to repl_loop_.
    bool migrate = false;
    /// Peer half-closed while a migration was pending: the carried
    /// frames are still served after adoption, then the close runs.
    bool eof_pending = false;
    /// Parked long-poll (see file comment).
    bool poll_parked = false;
    std::size_t poll_max = 0;
    std::chrono::steady_clock::time_point poll_deadline{};
    /// Resume epoch of the session at park time; a bumped epoch means a
    /// newer connection resumed the session and this poll must never be
    /// answered (see ResumeEpoch).
    std::uint64_t poll_epoch = 0;
    /// Parked replication fetch: answered when the journal progress
    /// counter moves past fetch_progress or the deadline passes.
    bool fetch_parked = false;
    std::uint64_t fetch_segment = 0;
    std::uint64_t fetch_offset = 0;
    std::uint32_t fetch_max_bytes = 0;
    std::uint64_t fetch_progress = 0;
    std::chrono::steady_clock::time_point fetch_deadline{};
    /// Last instant bytes arrived (idle-timeout reaping).
    std::chrono::steady_clock::time_point last_activity{};
  };

  /// One poll loop: a thread, the connections it owns, a handoff queue
  /// fed by the acceptor (and by migrations), and a self-pipe wakeup.
  struct PollLoop {
    std::size_t index = 0;
    int wake_rd = -1;  ///< self-pipe read end, part of the poll set
    int wake_wr = -1;
    /// Collapses redundant pipe writes (cleared when the pipe drains).
    std::atomic<bool> wake_pending{false};
    std::mutex handoff_mu;
    std::vector<Connection> handoff;  ///< accepted / migrated, not yet owned
    std::list<Connection> connections;  ///< loop-thread private
    /// Admin-plane gauges, refreshed by the loop thread once per tick
    /// during the poll-set build (free — the iteration happens anyway)
    /// and read by the metrics sampler with {loop="i"} labels.
    std::atomic<std::size_t> gauge_connections{0};
    std::atomic<std::size_t> gauge_parked_polls{0};
    std::atomic<std::size_t> gauge_parked_fetches{0};
    /// Where HandleIngest decodes ingest frames, one block at a time
    /// (loop-thread private, reused frame after frame).
    IngestFrameView ingest_block;
    std::thread thread;
  };

  void AcceptorLoop();
  void LoopRun(PollLoop& loop);
  /// Moves handed-off connections into the loop and processes any bytes
  /// a migration carried along.
  void AdoptHandoffs(PollLoop& loop);
  /// Writes the loop's wake pipe unless a wake is already pending.
  void Wake(PollLoop& loop);
  void WakeAll();
  /// Hands `conn` to `target`'s handoff queue and wakes it.
  void HandOff(PollLoop& target, Connection&& conn);

  /// Reads whatever is available; returns false when the peer is gone.
  bool ReadReady(PollLoop& loop, Connection& conn);
  /// Extracts and dispatches every complete frame in conn.in. Stops
  /// early (leaving the frame unconsumed) when the message must be
  /// served from the replication loop instead (conn.migrate).
  void DrainFrames(PollLoop& loop, Connection& conn);
  void HandleMessage(PollLoop& loop, Connection& conn,
                     const NetMessage& msg);
  void HandleHello(PollLoop& loop, Connection& conn, const NetMessage& msg);
  /// The ingest hot path: DrainFrames routes kIngest frame bodies here
  /// directly (no DecodeNetBody, no NetMessage), decoding them block by
  /// block into the loop's ingest_block and admitting maximal valid runs
  /// batch-at-a-time. Counts and the ack's first_error match what the
  /// per-record path produced.
  void HandleIngest(PollLoop& loop, Connection& conn, const char* body,
                    std::size_t body_len);
  void HandleRegisterBatch(Connection& conn, const NetMessage& msg);
  void HandleReplFetch(Connection& conn, const NetMessage& msg);
  /// Answers a parked poll with whatever is pending (possibly nothing)
  /// — or, when the session's resume epoch moved past the one recorded
  /// at park time, evicts the connection instead of answering. The
  /// epoch re-check and the delta consumption are atomic with respect
  /// to BumpResumeEpoch (one resume_mu_ critical section), so a stale
  /// poll can never consume events once a resume's Welcome is queued.
  void AnswerPoll(Connection& conn);
  /// Error + close for a connection whose parked poll lost its session
  /// to a resume. Unlike FailConnection this is not counted as a
  /// protocol error — the evicted peer did nothing wrong.
  void EvictConnection(Connection& conn);
  /// Answers a parked replication fetch with whatever the journal holds.
  void AnswerFetch(Connection& conn);
  /// Queues one response frame built from `body`.
  void SendBody(Connection& conn, const std::string& body);
  /// Queues an error frame and schedules the connection for close.
  void FailConnection(Connection& conn, const Status& status);
  /// Flushes conn.out as far as the socket allows; false when broken.
  bool WriteReady(Connection& conn);
  void CloseConnection(PollLoop& loop, std::list<Connection>::iterator it);

  /// Bridges the aggregate NetServerStats counters and the per-loop
  /// gauges into a metrics scrape (registered on the service's registry
  /// by Start, removed by Stop).
  void SampleNetMetrics(MetricSink& sink) const;
  /// The "net" section one MonitorService::stats() / /statusz call
  /// carries (registered by Start, removed by Stop).
  std::vector<std::pair<std::string, std::string>> StatsSection() const;

  /// Current resume epoch of a session (0 until first resumed).
  std::uint64_t ResumeEpoch(SessionId session) const;
  /// Bumps the epoch — called by a resuming Hello *before* its Welcome
  /// is queued, so no stale parked poll can consume the stream after.
  void BumpResumeEpoch(SessionId session);
  void ForgetResumeEpoch(SessionId session);

  MonitorService& service_;
  const NetServerOptions options_;
  /// Serves ReplFetch when the service journals (null otherwise).
  std::unique_ptr<JournalShipper> shipper_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::thread acceptor_;

  std::vector<std::unique_ptr<PollLoop>> loops_;
  /// Loops accepting fresh client connections: [0, client_loops_).
  std::size_t client_loops_ = 0;
  /// Dedicated replication loop index, or loops_.size() if none.
  std::size_t repl_loop_ = 0;
  /// Round-robin cursor of the acceptor.
  std::size_t next_loop_ = 0;
  /// Progress-listener registration on the service (0 = none).
  std::uint64_t listener_id_ = 0;
  /// Admin-plane registrations on the service (0 = none). Removed
  /// before loops_ is torn down: RemoveSampler / RemoveStatsSection
  /// block until no in-flight scrape still reads this server.
  std::uint64_t sampler_id_ = 0;
  std::uint64_t section_id_ = 0;

  /// Resume epochs (see Connection::poll_epoch). Touched by every loop,
  /// but only on Hello-resume, park and the per-tick parked check.
  mutable std::mutex resume_mu_;
  std::unordered_map<SessionId, std::uint64_t> resume_epoch_;

  mutable std::mutex stats_mu_;
  NetServerStats stats_;
};

}  // namespace topkmon

#endif  // TOPKMON_NET_SERVER_H_
