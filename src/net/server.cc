#include "net/server.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "journal/wire.h"

namespace topkmon {
namespace {

// Read budget per connection per tick: a peer that fills its socket
// faster than we parse cannot pin its loop or grow its buffer without
// bound; poll() re-reports the rest next tick, round-robin.
constexpr std::size_t kReadBudget = std::size_t(1) << 20;

}  // namespace

std::string NetServerStats::ToString() const {
  std::ostringstream os;
  os << "connections=" << open_connections
     << " accepted=" << connections_accepted
     << " closed=" << connections_closed
     << " refused=" << connections_refused
     << " frames_in=" << frames_received << " frames_out=" << frames_sent
     << " bytes_in=" << bytes_received << " bytes_out=" << bytes_sent
     << " ingested=" << records_ingested
     << " protocol_errors=" << protocol_errors;
  if (records_backpressured > 0) {
    os << " backpressured=" << records_backpressured;
  }
  if (connections_migrated > 0) {
    os << " migrated=" << connections_migrated;
  }
  if (repl_chunks_sent > 0) {
    os << " repl_chunks=" << repl_chunks_sent
       << " repl_bytes=" << repl_bytes_shipped;
  }
  return os.str();
}

TcpServer::TcpServer(MonitorService& service,
                     const NetServerOptions& options)
    : service_(service), options_(options) {
  if (!service_.journal_dir().empty()) {
    shipper_ = std::make_unique<JournalShipper>(service_.journal_dir());
  }
}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  if (started_) {
    return Status::FailedPrecondition("server already started");
  }
  auto listener = socket::Listen(options_.bind_address, options_.port,
                                 options_.listen_backlog, &port_);
  if (!listener.ok()) return listener.status();

  // Resolve the loop topology: N independent poll loops, and — when
  // there is a journal to ship and at least two loops — the last loop
  // dedicated to replication fetches.
  std::size_t threads = options_.server_threads;
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = std::min<std::size_t>(4, hw == 0 ? 1 : hw);
  }
  loops_.clear();
  for (std::size_t i = 0; i < threads; ++i) {
    loops_.push_back(std::make_unique<PollLoop>());
    loops_.back()->index = i;
    TOPKMON_RETURN_IF_ERROR(loops_.back()->wake.Open());
  }
  const bool dedicate = shipper_ != nullptr && threads >= 2;
  client_loops_ = dedicate ? threads - 1 : threads;
  repl_loop_ = dedicate ? threads - 1 : threads;
  next_loop_ = 0;

  listener_ = std::move(*listener);
  started_ = true;
  stop_.store(false);
  // Parked-wakeup path: the service pokes every loop's pipe whenever
  // deltas are published or the journal grows, so parked long-polls and
  // fetches are answered promptly regardless of which loop owns them.
  listener_id_ = service_.AddProgressListener([this] { WakeAll(); });
  // Admin plane: the server's counters and per-loop gauges join the
  // service's registry (so /metrics and /statusz) for as long as the
  // server runs (Stop deregisters the sampler before touching loops_).
  sampler_id_ = service_.metrics().AddSampler(
      [this](MetricSink& sink) { SampleNetMetrics(sink); });
  for (auto& loop : loops_) {
    PollLoop* raw = loop.get();
    raw->thread = std::thread([this, raw] { LoopRun(*raw); });
  }
  acceptor_ = std::thread([this] { AcceptorLoop(); });
  return Status::Ok();
}

void TcpServer::Stop() {
  stop_.store(true);
  if (listener_id_ != 0) {
    service_.RemoveProgressListener(listener_id_);
    listener_id_ = 0;
  }
  // Deregister from the admin plane before any loop state is torn
  // down; the removal blocks until an in-flight scrape is done here.
  if (sampler_id_ != 0) {
    service_.metrics().RemoveSampler(sampler_id_);
    sampler_id_ = 0;
  }
  WakeAll();
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  // Every connection a loop still owns, or was handed (the acceptor or
  // a migration racing shutdown), closes with its loop once every
  // thread is parked.
  for (auto& loop : loops_) {
    const std::size_t left = loop->connections.size() + loop->handoff.size();
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.connections_closed += left;
    stats_.open_connections -= left;
  }
  loops_.clear();
  listener_.Close();
  started_ = false;
}

NetServerStats TcpServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void TcpServer::SampleNetMetrics(MetricSink& sink) const {
  const NetServerStats s = stats();
  sink.AddCounter("topkmon_net_connections_accepted_total",
                  "Client connections accepted",
                  static_cast<double>(s.connections_accepted));
  sink.AddCounter("topkmon_net_connections_closed_total",
                  "Client connections closed",
                  static_cast<double>(s.connections_closed));
  sink.AddCounter("topkmon_net_connections_refused_total",
                  "Connections refused over max_connections",
                  static_cast<double>(s.connections_refused));
  sink.AddCounter("topkmon_net_connections_migrated_total",
                  "Connections migrated to the replication loop",
                  static_cast<double>(s.connections_migrated));
  sink.AddCounter("topkmon_net_frames_received_total",
                  "Protocol frames received",
                  static_cast<double>(s.frames_received));
  sink.AddCounter("topkmon_net_frames_sent_total", "Protocol frames sent",
                  static_cast<double>(s.frames_sent));
  sink.AddCounter("topkmon_net_protocol_errors_total",
                  "Framing/decode violations (each fails its connection)",
                  static_cast<double>(s.protocol_errors));
  sink.AddCounter("topkmon_net_bytes_received_total",
                  "Bytes received from clients",
                  static_cast<double>(s.bytes_received));
  sink.AddCounter("topkmon_net_bytes_sent_total", "Bytes sent to clients",
                  static_cast<double>(s.bytes_sent));
  sink.AddCounter("topkmon_net_records_ingested_total",
                  "Tuples accepted over the wire",
                  static_cast<double>(s.records_ingested));
  sink.AddCounter("topkmon_net_records_backpressured_total",
                  "Wire tuples refused with the ingest queue full",
                  static_cast<double>(s.records_backpressured));
  sink.AddCounter("topkmon_net_repl_chunks_sent_total",
                  "Replication fetches answered",
                  static_cast<double>(s.repl_chunks_sent));
  sink.AddCounter("topkmon_net_repl_bytes_shipped_total",
                  "Journal bytes shipped to followers",
                  static_cast<double>(s.repl_bytes_shipped));
  sink.AddGauge("topkmon_net_open_connections", "Open client connections",
                static_cast<double>(s.open_connections));
  for (const auto& loop : loops_) {
    const MetricLabels labels = {{"loop", std::to_string(loop->index)}};
    sink.AddGauge(
        "topkmon_net_loop_connections",
        "Connections owned by this poll loop",
        static_cast<double>(
            loop->gauge_connections.load(std::memory_order_relaxed)),
        labels);
    sink.AddGauge(
        "topkmon_net_loop_parked_polls",
        "Long-polls parked on this poll loop",
        static_cast<double>(
            loop->gauge_parked_polls.load(std::memory_order_relaxed)),
        labels);
    sink.AddGauge(
        "topkmon_net_loop_parked_fetches",
        "Replication fetches parked on this poll loop",
        static_cast<double>(
            loop->gauge_parked_fetches.load(std::memory_order_relaxed)),
        labels);
  }
}

void TcpServer::WakeAll() {
  for (auto& loop : loops_) loop->wake.Notify();
}

void TcpServer::HandOff(PollLoop& target, Connection&& conn) {
  conn.migrate = false;
  {
    std::lock_guard<std::mutex> lock(target.handoff_mu);
    target.handoff.push_back(std::move(conn));
  }
  target.wake.Notify();
}

void TcpServer::AcceptorLoop() {
  pollfd pfd{listener_.fd(), POLLIN, 0};
  const auto take = [this](socket::Socket accepted) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      // Peers beyond the cap get an immediate accept-and-close (a clean
      // refusal) instead of hanging in the kernel backlog.
      if (stats_.open_connections >= options_.max_connections) {
        ++stats_.connections_refused;
        return;
      }
      ++stats_.connections_accepted;
      ++stats_.open_connections;
    }
    Connection conn;
    conn.socket = std::move(accepted);
    conn.last_activity = std::chrono::steady_clock::now();
    // Fresh connections round-robin over the client-facing loops; the
    // dedicated replication loop (if any) only receives migrations.
    HandOff(*loops_[next_loop_++ % client_loops_], std::move(conn));
  };
  while (!stop_.load()) {
    if (!socket::Poll(&pfd, 1, options_.poll_tick) || stop_.load()) break;
    if ((pfd.revents & POLLIN) != 0) socket::AcceptPending(listener_, take);
  }
}

void TcpServer::AdoptHandoffs(PollLoop& loop) {
  std::vector<Connection> adopted;
  {
    std::lock_guard<std::mutex> lock(loop.handoff_mu);
    if (loop.handoff.empty()) return;
    adopted.swap(loop.handoff);
  }
  for (Connection& handed : adopted) {
    loop.connections.push_back(std::move(handed));
    Connection& conn = loop.connections.back();
    // A migrated connection arrives carrying the unserved frame that
    // triggered the move (and possibly more pipelined after it).
    if (!conn.in.empty() && !conn.closing) {
      DrainFrames(loop, conn);
    }
    if (conn.eof_pending) {
      // The peer had half-closed behind the migration: its final
      // frames are handled now, so the closing path (flush, then
      // close) proceeds exactly as on an unmigrated connection.
      conn.eof_pending = false;
      conn.closing = true;
      conn.in.clear();
    }
  }
}

void TcpServer::LoopRun(PollLoop& loop) {
  std::vector<pollfd> fds;
  std::vector<std::list<Connection>::iterator> conn_of_fd;
  while (!stop_.load()) {
    AdoptHandoffs(loop);
    fds.clear();
    conn_of_fd.clear();
    fds.push_back({loop.wake.fd(), POLLIN, 0});
    std::size_t parked_polls = 0;
    std::size_t parked_fetches = 0;
    for (auto it = loop.connections.begin(); it != loop.connections.end();
         ++it) {
      short events = 0;
      if (!it->closing) events |= POLLIN;
      if (!it->out.empty()) events |= POLLOUT;
      fds.push_back({it->socket.fd(), events, 0});
      conn_of_fd.push_back(it);
      if (it->poll_parked) ++parked_polls;
      if (it->fetch_parked) ++parked_fetches;
    }
    // Per-loop admin gauges ride the poll-set build (no extra pass).
    loop.gauge_connections.store(loop.connections.size(),
                                 std::memory_order_relaxed);
    loop.gauge_parked_polls.store(parked_polls, std::memory_order_relaxed);
    loop.gauge_parked_fetches.store(parked_fetches,
                                    std::memory_order_relaxed);
    if (!socket::Poll(fds.data(), fds.size(), options_.poll_tick) ||
        stop_.load()) {
      break;
    }
    // A Notify racing the drain costs at most one tick: its work is
    // picked up this very iteration (handoffs at the top of the next).
    if (fds[0].revents & POLLIN) loop.wake.Drain();

    std::vector<std::list<Connection>::iterator> doomed;
    std::vector<std::list<Connection>::iterator> migrants;
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < conn_of_fd.size(); ++i) {
      auto it = conn_of_fd[i];
      Connection& conn = *it;
      const short revents = fds[i + 1].revents;
      bool alive = true;
      if (alive && (revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
          !conn.closing) {
        alive = ReadReady(loop, conn);
      }
      // A connection that issued its first ReplFetch moves to the
      // dedicated replication loop with its buffers; the frame itself
      // is still in conn.in and is served after adoption.
      if (alive && conn.migrate && !conn.closing) {
        migrants.push_back(it);
        continue;
      }
      // A closing connection must never have its parked poll answered:
      // PollDeltas would consume the session's events into a socket
      // whose peer is (typically) gone, losing them for the resumed
      // successor. Dropping the park leaves the events buffered.
      if (conn.closing && conn.poll_parked) conn.poll_parked = false;
      // A parked long-poll is answered as soon as the session's buffer
      // has something — or its deadline passed (an empty Deltas frame
      // is the long-poll timeout signal) — or a newer connection
      // resumed the session (possibly on another loop; the bumped
      // epoch makes AnswerPoll evict instead of answer, from here, the
      // holder's own loop — no cross-loop connection state is touched,
      // and the epoch re-check inside AnswerPoll is atomic with the
      // consumption).
      if (alive && conn.poll_parked &&
          (service_.PendingDeltas(conn.session) > 0 ||
           now >= conn.poll_deadline ||
           ResumeEpoch(conn.session) != conn.poll_epoch)) {
        AnswerPoll(conn);
      }
      // A parked replication fetch wakes on journal growth (any append
      // bumps JournalProgress) or its deadline — the empty chunk is the
      // fetch's long-poll timeout signal.
      if (conn.closing && conn.fetch_parked) conn.fetch_parked = false;
      if (alive && conn.fetch_parked &&
          (service_.JournalProgress() != conn.fetch_progress ||
           now >= conn.fetch_deadline)) {
        AnswerFetch(conn);
      }
      if (alive && options_.idle_timeout.count() > 0 &&
          now - conn.last_activity > options_.idle_timeout) {
        if (!conn.closing) {
          FailConnection(conn, Status::FailedPrecondition(
                                   "connection idle timeout"));
        } else {
          // The drain window for its final frames has expired too —
          // the peer is holding the socket open without reading.
          alive = false;
        }
      }
      // A peer that requests faster than it reads is not served into
      // unbounded memory; past the cap its socket is clearly not
      // draining, so no error frame could be delivered either.
      if (alive && conn.out.size() > options_.max_output_bytes) {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.protocol_errors;
        alive = false;
      }
      if (alive && !conn.out.empty()) {
        const socket::IoResult sent = socket::Flush(conn.socket, &conn.out);
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.bytes_sent += sent.bytes;
        alive = sent.error == 0;
      }
      if (!alive || (conn.closing && conn.out.empty())) doomed.push_back(it);
    }
    for (auto it : doomed) CloseConnection(loop, it);
    for (auto it : migrants) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.connections_migrated;
      }
      HandOff(*loops_[repl_loop_], std::move(*it));
      loop.connections.erase(it);
    }
  }
}

bool TcpServer::ReadReady(PollLoop& loop, Connection& conn) {
  const socket::IoResult read =
      socket::ReadSome(conn.socket, &conn.in, kReadBudget);
  if (read.bytes > 0) {
    conn.last_activity = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.bytes_received += read.bytes;
  }
  if (read.error != 0) return false;
  DrainFrames(loop, conn);
  // Half-close: the peer is done sending but may still be reading. Its
  // final buffered requests were processed above and the responses are
  // flushed via the closing path — a client that sends Close and
  // shutdown(SHUT_WR) still gets its CloseAck.
  if (read.eof) {
    // A half-close racing a pending migration must not drop the carried
    // frame: the close is deferred until the target loop served it.
    if (conn.migrate) {
      conn.eof_pending = true;
    } else {
      conn.closing = true;
    }
  }
  return true;
}

void TcpServer::DrainFrames(PollLoop& loop, Connection& conn) {
  std::size_t off = 0;
  while (!conn.closing && !conn.migrate) {
    const char* body = nullptr;
    std::size_t body_len = 0;
    std::size_t consumed = 0;
    Status error;
    const wire::FrameParse parse = wire::TryParseFrame(
        conn.in.data() + off, conn.in.size() - off, options_.max_frame_bytes,
        &body, &body_len, &consumed, &error);
    if (parse == wire::FrameParse::kNeedMore) break;
    if (parse == wire::FrameParse::kBad) {
      FailConnection(conn, error);
      break;
    }
    // Ingest frames bypass DecodeNetBody entirely: the body is decoded
    // block by block into the loop's reusable ingest block (no
    // NetMessage materialization). Pre-handshake frames fall through so
    // the "first frame must be Hello" check still fires.
    if (conn.hello_done &&
        PeekNetMessageType(body, body_len) == NetMessageType::kIngest) {
      off += consumed;
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.frames_received;
      }
      HandleIngest(loop, conn, body, body_len);
      continue;
    }
    NetMessage msg;
    const Status st = DecodeNetBody(body, body_len, &msg);
    if (!st.ok()) {
      FailConnection(conn, st);
      break;
    }
    // Replication fetches are served from the dedicated loop: leave the
    // frame unconsumed and flag the connection for migration — the
    // target loop re-parses it after adoption.
    if (msg.type == NetMessageType::kReplFetch && conn.hello_done &&
        repl_loop_ < loops_.size() && loop.index != repl_loop_) {
      conn.migrate = true;
      break;
    }
    off += consumed;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.frames_received;
    }
    HandleMessage(conn, msg);
  }
  conn.in.erase(0, off);
  if (conn.closing) conn.in.clear();
}

void TcpServer::HandleMessage(Connection& conn, const NetMessage& msg) {
  // A pipelined request while a long-poll is parked would interleave its
  // response with the eventual Deltas frame; answering the poll first
  // (with whatever is pending, possibly nothing) keeps the dialog a
  // strict one-response-per-request sequence. Parked fetches likewise.
  // An evicted poll (stale resume epoch) is never answered — AnswerPoll
  // closes the whole connection instead, and the new request dies with
  // it.
  if (conn.poll_parked) {
    AnswerPoll(conn);
    if (conn.closing) return;
  }
  if (conn.fetch_parked) AnswerFetch(conn);

  if (!conn.hello_done && msg.type != NetMessageType::kHello) {
    FailConnection(conn, Status::FailedPrecondition(
                             "the first frame must be Hello"));
    return;
  }
  switch (msg.type) {
    case NetMessageType::kHello:
      HandleHello(conn, msg);
      return;
    case NetMessageType::kRegister: {
      const Result<QueryId> id = service_.Register(conn.session, msg.spec);
      std::string body;
      if (id.ok()) {
        EncodeRegisterAck(*id, &body);
      } else {
        EncodeError(id.status(), &body);
      }
      SendBody(conn, body);
      return;
    }
    case NetMessageType::kUnregister: {
      const Status st = service_.Unregister(conn.session, msg.query);
      std::string body;
      if (st.ok()) {
        EncodeUnregisterAck(&body);
      } else {
        EncodeError(st, &body);
      }
      SendBody(conn, body);
      return;
    }
    case NetMessageType::kSnapshot: {
      // Scoped to the connection's session, like Unregister: another
      // session's query ids draw the same NotFound as unknown ids, so
      // nothing about foreign queries leaks.
      const auto owner = service_.QueryOwner(msg.query);
      std::string body;
      if (!owner.ok() || *owner != conn.session) {
        EncodeError(Status::NotFound("no query " +
                                     std::to_string(msg.query) +
                                     " in this session"),
                    &body);
      } else if (const auto result = service_.CurrentResult(msg.query);
                 result.ok()) {
        // The as-of timestamp and staleness bound make follower reads
        // honest: a replica answers with how far it may lag the leader.
        const ReplicationInfo repl = service_.replication();
        EncodeSnapshotResult(*result, repl.applied_cycle_ts,
                             repl.StaleBy(), &body);
      } else {
        EncodeError(result.status(), &body);
      }
      SendBody(conn, body);
      return;
    }
    case NetMessageType::kRegisterBatch:
      HandleRegisterBatch(conn, msg);
      return;
    case NetMessageType::kReplFetch:
      HandleReplFetch(conn, msg);
      return;
    case NetMessageType::kPoll: {
      std::size_t max = msg.max_events == 0
                            ? options_.max_poll_events
                            : std::min<std::size_t>(msg.max_events,
                                                    options_.max_poll_events);
      // The as_of frontier must be sampled BEFORE draining the buffer:
      // a cycle completing between the drain and a later sample would
      // advance the frontier past events that are not in this answer,
      // and a delta multiplexer trusting it would merge prematurely.
      const Timestamp as_of = service_.replication().applied_cycle_ts;
      std::vector<DeltaEvent> events;
      service_.PollDeltas(conn.session, max, &events);
      if (!events.empty() || msg.timeout_ms == 0) {
        // Sampled after the drain: anything still buffered is an event
        // this answer could not carry, so the client's frontier must
        // not run ahead of the delivered tail. (Events arriving between
        // the drain and this probe flag a spurious truncation, which
        // only delays a multiplexer's merge by one poll — safe.)
        const bool truncated = service_.PendingDeltas(conn.session) > 0;
        std::string body;
        EncodeDeltas(events, as_of, truncated, &body);
        SendBody(conn, body);
        return;
      }
      const auto timeout = std::min<std::chrono::milliseconds>(
          std::chrono::milliseconds(msg.timeout_ms), options_.max_long_poll);
      conn.poll_parked = true;
      conn.poll_max = max;
      conn.poll_deadline = std::chrono::steady_clock::now() + timeout;
      conn.poll_epoch = ResumeEpoch(conn.session);
      return;
    }
    case NetMessageType::kStatus: {
      // Election probe (v5): role, fencing epoch, applied frontier and
      // the local journal end, so a candidate follower can compare how
      // caught-up its peers are without replaying anything.
      const ReplicationInfo repl = service_.replication();
      std::uint64_t segment = 0;
      std::uint64_t offset = 0;
      if (shipper_ != nullptr) {
        // Best effort: an unreadable journal dir answers (0, 0) rather
        // than failing the probe — the applied frontier still carries
        // the election.
        (void)shipper_->End(&segment, &offset);
      }
      std::string body;
      // The fenced latch rides along because `repl.role` alone lies
      // about a deposed leader: it still says kLeader after a higher
      // epoch fenced it. Probing followers must not adopt such a node.
      EncodeStatusInfo(static_cast<std::uint8_t>(repl.role),
                       repl.fencing_epoch, repl.applied_cycle_ts, segment,
                       offset, service_.IsFenced(), &body);
      SendBody(conn, body);
      return;
    }
    case NetMessageType::kClose: {
      if (msg.close_session && conn.session != 0) {
        service_.CloseSession(conn.session);
        ForgetResumeEpoch(conn.session);
      }
      std::string body;
      EncodeCloseAck(&body);
      SendBody(conn, body);
      conn.closing = true;
      return;
    }
    // Unreachable: post-handshake ingest frames are routed to
    // HandleIngest by DrainFrames before DecodeNetBody ever runs, and a
    // pre-handshake one already failed the Hello check above.
    case NetMessageType::kIngest:
    // Response types have no business arriving at the server.
    case NetMessageType::kWelcome:
    case NetMessageType::kIngestAck:
    case NetMessageType::kRegisterAck:
    case NetMessageType::kUnregisterAck:
    case NetMessageType::kSnapshotResult:
    case NetMessageType::kDeltas:
    case NetMessageType::kCloseAck:
    case NetMessageType::kError:
    case NetMessageType::kRegisterBatchAck:
    case NetMessageType::kReplChunk:
    case NetMessageType::kStatusInfo:
      break;
  }
  FailConnection(conn,
                 Status::InvalidArgument(
                     "message type " +
                     std::to_string(static_cast<int>(msg.type)) +
                     " is not a request"));
}

void TcpServer::HandleHello(Connection& conn, const NetMessage& msg) {
  if (conn.hello_done) {
    FailConnection(conn, Status::FailedPrecondition("duplicate Hello"));
    return;
  }
  if (msg.magic != kNetMagic) {
    FailConnection(conn,
                   Status::InvalidArgument("bad protocol magic — not a "
                                           "topkmon client"));
    return;
  }
  if (msg.version < kMinNetProtocolVersion ||
      msg.version > kNetProtocolVersion) {
    FailConnection(conn, Status::Unimplemented(
                             "protocol version " +
                             std::to_string(msg.version) +
                             " is not supported (server speaks versions " +
                             std::to_string(kMinNetProtocolVersion) + ".." +
                             std::to_string(kNetProtocolVersion) + ")"));
    return;
  }
  // Rolling-upgrade path: a v4 peer gets v4-shaped replies (no trailing
  // fencing epochs) for the life of this connection.
  conn.wire_version = msg.version;
  SessionId session = 0;
  bool resumed = false;
  if (msg.resume) {
    const Result<SessionId> adopted = service_.FindSession(msg.label);
    if (adopted.ok()) {
      session = *adopted;
      resumed = true;
    }
  }
  if (session == 0) {
    Result<SessionId> opened = service_.OpenSession(msg.label);
    if (!opened.ok()) {
      FailConnection(conn, opened.status());
      return;
    }
    session = *opened;
  }
  if (resumed) {
    // Evict any other connection holding a *parked long-poll* on this
    // session — e.g. a half-open predecessor that died without a FIN.
    // Left alone, that poll would keep consuming the session's delta
    // events into a socket buffer nobody reads, and the resumed client
    // would see a sequence gap the drop counters can't explain. The
    // eviction is epoch-based so it works across loops without touching
    // another loop's connections: the epoch is bumped *before* this
    // Welcome is queued, every loop refuses to answer a parked poll
    // whose recorded epoch is stale, and each stale holder is failed by
    // its own loop at its next tick (the WakeAll makes that prompt).
    // Connections sharing the session *without* an outstanding poll (a
    // producer feeding it, say) are deliberately left alone.
    BumpResumeEpoch(session);
    WakeAll();
  }
  conn.session = session;
  conn.hello_done = true;
  std::string body;
  EncodeWelcome(session, resumed,
                static_cast<std::uint8_t>(service_.role()),
                options_.server_tag, service_.fencing_epoch(),
                conn.wire_version, &body);
  SendBody(conn, body);
}

void TcpServer::HandleRegisterBatch(Connection& conn,
                                    const NetMessage& msg) {
  // Per-query outcomes, not a transaction: each spec is admitted
  // independently, exactly as if it had arrived in its own Register.
  std::vector<RegisterOutcome> outcomes;
  outcomes.reserve(msg.specs.size());
  for (const QuerySpec& spec : msg.specs) {
    RegisterOutcome o;
    const Result<QueryId> id = service_.Register(conn.session, spec);
    if (id.ok()) {
      o.query = *id;
    } else {
      o.code = id.status().code();
      o.message = id.status().message();
    }
    outcomes.push_back(std::move(o));
  }
  std::string body;
  EncodeRegisterBatchAck(outcomes, &body);
  SendBody(conn, body);
}

void TcpServer::HandleReplFetch(Connection& conn, const NetMessage& msg) {
  // A follower pulling journal bytes IS the leader's lease renewal —
  // no separate heartbeat message exists. Renewed on arrival, not on
  // answer: a parked empty fetch still proves the follower is alive.
  service_.NoteFollowerContact();
  if (RefuseFencedFetch(conn)) return;
  if (shipper_ == nullptr) {
    std::string body;
    EncodeError(Status::FailedPrecondition(
                    "this server does not journal; nothing to replicate"),
                &body);
    SendBody(conn, body);
    return;
  }
  const std::uint64_t progress = service_.JournalProgress();
  const std::uint32_t max_bytes =
      std::min<std::uint32_t>(msg.max_bytes == 0 ? kMaxReplChunkBytes
                                                 : msg.max_bytes,
                              kMaxReplChunkBytes);
  auto chunk = shipper_->Read(msg.segment, msg.offset, max_bytes);
  if (chunk.ok() && chunk->data.empty() && !chunk->sealed &&
      !chunk->restart && msg.timeout_ms > 0) {
    // Nothing new: park like a long-poll, wake on journal growth.
    const auto timeout = std::min<std::chrono::milliseconds>(
        std::chrono::milliseconds(msg.timeout_ms), options_.max_long_poll);
    conn.fetch_parked = true;
    conn.fetch_segment = msg.segment;
    conn.fetch_offset = msg.offset;
    conn.fetch_max_bytes = max_bytes;
    conn.fetch_progress = progress;
    conn.fetch_deadline = std::chrono::steady_clock::now() + timeout;
    return;
  }
  SendFetchAnswer(conn, chunk);
}

void TcpServer::AnswerFetch(Connection& conn) {
  conn.fetch_parked = false;
  // Fenced while this fetch was parked — same refusal as the immediate
  // path in HandleReplFetch.
  if (RefuseFencedFetch(conn)) return;
  SendFetchAnswer(conn, shipper_->Read(conn.fetch_segment, conn.fetch_offset,
                                       conn.fetch_max_bytes));
}

bool TcpServer::RefuseFencedFetch(Connection& conn) {
  if (!service_.IsFenced()) return false;
  // A deposed leader must not keep feeding a follower whose pump
  // would otherwise never stall: the refusal makes the follower's
  // fetches fail, its election timer fires, and it finds the real
  // leader. Serving stale journal here would pin the follower to a
  // node whose epoch has already lost.
  std::string body;
  EncodeError(Status::Fenced("leader fenced by a higher epoch; "
                             "re-resolve the leader"),
              &body);
  SendBody(conn, body);
  return true;
}

void TcpServer::SendFetchAnswer(Connection& conn,
                                const Result<ShipChunk>& chunk) {
  std::string body;
  if (!chunk.ok()) {
    EncodeError(chunk.status(), &body);
  } else {
    EncodeReplChunk(chunk->segment, chunk->offset, chunk->sealed,
                    chunk->restart, chunk->next_segment,
                    service_.replication().applied_cycle_ts, chunk->data,
                    service_.fencing_epoch(), conn.wire_version, &body);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.repl_chunks_sent;
    stats_.repl_bytes_shipped += chunk->data.size();
  }
  SendBody(conn, body);
}

void TcpServer::HandleIngest(PollLoop& loop, Connection& conn,
                             const char* body, std::size_t body_len) {
  // Same parked-request discipline as HandleMessage: a pipelined ingest
  // while a long-poll is parked answers the poll first, keeping the
  // dialog a strict one-response-per-request sequence.
  if (conn.poll_parked) {
    AnswerPoll(conn);
    if (conn.closing) return;
  }
  if (conn.fetch_parked) AnswerFetch(conn);

  std::uint32_t accepted = 0;
  std::uint32_t rejected = 0;
  std::uint64_t backpressured = 0;
  Status first_error;
  std::size_t examined = 0;  // frame records in the blocks already done
  // Walk each block in record order, admitting each maximal run of valid
  // records in one batch call and interleaving the decode-time refusals
  // where they sit, so counts and first_error come out exactly as the
  // per-record path produced them.
  const auto admit = [&](const IngestFrameView& block) {
    const RecordSpan records(block.records);
    std::size_t i = 0;
    std::size_t inv = 0;
    while (i < records.size()) {
      if (inv < block.invalid.size() && block.invalid[inv] == i) {
        ++rejected;
        if (first_error.ok()) first_error = block.first_invalid;
        ++inv;
        ++i;
        continue;
      }
      const std::size_t end =
          inv < block.invalid.size() ? block.invalid[inv] : records.size();
      const std::size_t run = end - i;
      // Non-blocking admission: a full ingest queue must never stall this
      // poll loop (every other connection on it would stall too). The
      // refusal is RESOURCE_EXHAUSTED and the ack's queue_hint tells the
      // producer to self-pace; rate-limit refusals stay per-record.
      Status err;
      const std::size_t pushed = service_.TryIngestBatch(
          conn.session, records.subspan(i, run), &err);
      accepted += static_cast<std::uint32_t>(pushed);
      if (pushed == run) {
        i = end;
        continue;
      }
      if (first_error.ok()) first_error = err;
      if (err.code() == StatusCode::kResourceExhausted) {
        // The queue filled mid-batch: everything later in the frame
        // would bounce off the same wall (admission is in arrival
        // order), so the whole unadmitted tail is reported rejected
        // wholesale, and the rest of the frame is never decoded.
        const std::size_t remaining =
            block.frame_records - (examined + i + pushed);
        rejected += static_cast<std::uint32_t>(remaining);
        backpressured += remaining;
        return false;
      }
      // Rate-limit / closed / follower / fenced refusal: this run's
      // remainder is refused, later records are still examined (a later
      // invalid record must draw its own validation rejection).
      rejected += static_cast<std::uint32_t>(run - pushed);
      i = end;
    }
    examined += records.size();
    return true;
  };
  const Status decode = DecodeIngestBody(
      body, body_len, service_.dim(), &loop.ingest_block, admit);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.records_ingested += accepted;
    stats_.records_backpressured += backpressured;
    stats_.ingest_block_records = std::max(
        stats_.ingest_block_records, loop.ingest_block.records.capacity());
  }
  // A malformed body admitted nothing (DecodeIngestBody refuses it
  // before the first block).
  if (!decode.ok()) {
    FailConnection(conn, decode);
    return;
  }
  std::string ack;
  EncodeIngestAck(accepted, rejected, first_error,
                  service_.IngestPressure(), service_.fencing_epoch(),
                  conn.wire_version, &ack);
  SendBody(conn, ack);
}

void TcpServer::AnswerPoll(Connection& conn) {
  // The epoch re-check and the delta consumption are one critical
  // section with BumpResumeEpoch: once a resuming Hello has bumped the
  // epoch (which it does before its Welcome is queued), no stale
  // parked poll can reach PollDeltas — checking outside the lock would
  // leave a window where a concurrent resume loses buffered events to
  // the dead predecessor.
  std::vector<DeltaEvent> events;
  bool evicted = false;
  // Sampled before the drain — see the kPoll immediate path.
  const Timestamp as_of = service_.replication().applied_cycle_ts;
  {
    std::lock_guard<std::mutex> lock(resume_mu_);
    const auto it = resume_epoch_.find(conn.session);
    const std::uint64_t epoch =
        it == resume_epoch_.end() ? 0 : it->second;
    if (epoch != conn.poll_epoch) {
      evicted = true;
    } else {
      service_.PollDeltas(conn.session, conn.poll_max, &events);
    }
  }
  conn.poll_parked = false;
  if (evicted) {
    EvictConnection(conn);
    return;
  }
  // Post-drain probe — see the kPoll immediate path for why a spurious
  // true (a racing publish) is safe.
  const bool truncated = service_.PendingDeltas(conn.session) > 0;
  std::string body;
  EncodeDeltas(events, as_of, truncated, &body);
  SendBody(conn, body);
}

void TcpServer::EvictConnection(Connection& conn) {
  // Not a protocol violation (the peer did nothing wrong — a newer
  // connection adopted its session), so stats().protocol_errors stays
  // untouched, unlike FailConnection.
  conn.poll_parked = false;
  conn.fetch_parked = false;
  std::string body;
  EncodeError(Status::FailedPrecondition(
                  "session was resumed by a new connection"),
              &body);
  SendBody(conn, body);
  conn.closing = true;
}

void TcpServer::SendBody(Connection& conn, const std::string& body) {
  wire::PutFrame(body, &conn.out);
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.frames_sent;
}

void TcpServer::FailConnection(Connection& conn, const Status& status) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.protocol_errors;
  }
  if (conn.poll_parked) conn.poll_parked = false;
  if (conn.fetch_parked) conn.fetch_parked = false;
  std::string body;
  EncodeError(status, &body);
  SendBody(conn, body);
  conn.closing = true;
}

void TcpServer::CloseConnection(PollLoop& loop,
                                std::list<Connection>::iterator it) {
  loop.connections.erase(it);
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.connections_closed;
  --stats_.open_connections;
}

std::uint64_t TcpServer::ResumeEpoch(SessionId session) const {
  std::lock_guard<std::mutex> lock(resume_mu_);
  const auto it = resume_epoch_.find(session);
  return it == resume_epoch_.end() ? 0 : it->second;
}

void TcpServer::BumpResumeEpoch(SessionId session) {
  std::lock_guard<std::mutex> lock(resume_mu_);
  ++resume_epoch_[session];
}

void TcpServer::ForgetResumeEpoch(SessionId session) {
  std::lock_guard<std::mutex> lock(resume_mu_);
  resume_epoch_.erase(session);
}

}  // namespace topkmon
