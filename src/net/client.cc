#include "net/client.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include "journal/wire.h"

namespace topkmon {
namespace {

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

void SetRecvTimeout(int fd, std::chrono::milliseconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void SetSendTimeout(int fd, std::chrono::milliseconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

Result<std::unique_ptr<MonitorClient>> MonitorClient::Connect(
    const std::string& host, std::uint16_t port, const std::string& label,
    bool resume, const NetClientOptions& options) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    // Not a dotted quad: resolve it (e.g. "localhost").
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* found = nullptr;
    if (::getaddrinfo(host.c_str(), nullptr, &hints, &found) != 0 ||
        found == nullptr) {
      return Status::InvalidArgument("cannot resolve host '" + host + "'");
    }
    addr.sin_addr =
        reinterpret_cast<sockaddr_in*>(found->ai_addr)->sin_addr;
    ::freeaddrinfo(found);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const Status st = Errno("connect to " + host + ":" +
                            std::to_string(port));
    ::close(fd);
    return st;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  SetRecvTimeout(fd, options.io_timeout);
  // Sends time out too: a wedged server with a full socket buffer must
  // surface as an error (the send path then poisons the connection),
  // never as an indefinite hang inside a batched Ingest.
  SetSendTimeout(fd, options.io_timeout);

  std::unique_ptr<MonitorClient> client(new MonitorClient(fd, options));
  std::string body;
  EncodeHello(resume, label, &body);
  auto welcome = client->RoundTrip(body, NetMessageType::kWelcome);
  if (!welcome.ok()) return welcome.status();
  client->session_ = welcome->session;
  client->resumed_ = welcome->resumed;
  client->server_role_ = welcome->role;
  client->server_tag_ = welcome->server_tag;
  client->fencing_epoch_ = welcome->fencing_epoch;
  return client;
}

MonitorClient::~MonitorClient() {
  if (fd_ >= 0) ::close(fd_);
}

Status MonitorClient::SendFrame(const std::string& body) {
  if (fd_ < 0) return Status::FailedPrecondition("client is closed");
  std::string frame;
  frame.reserve(wire::kFrameHeaderBytes + body.size());
  wire::PutFrame(body, &frame);
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    // A failed (possibly partial) send poisons the connection, same as
    // a failed read: retrying another request would splice its frame
    // into the middle of this one and desync the stream.
    const Status st = Errno("send");
    ::close(fd_);
    fd_ = -1;
    inbuf_.clear();
    return st;
  }
  return Status::Ok();
}

Result<NetMessage> MonitorClient::RecvMessage(
    std::chrono::milliseconds extra_wait) {
  if (extra_wait.count() > 0) {
    SetRecvTimeout(fd_, options_.io_timeout + extra_wait);
  }
  char buf[65536];
  while (true) {
    const char* body = nullptr;
    std::size_t body_len = 0;
    std::size_t consumed = 0;
    Status error;
    const wire::FrameParse parse =
        wire::TryParseFrame(inbuf_.data(), inbuf_.size(), kMaxNetFrameBytes,
                            &body, &body_len, &consumed, &error);
    if (parse == wire::FrameParse::kBad) {
      // After a framing error the stream cannot be re-synchronized.
      ::close(fd_);
      fd_ = -1;
      inbuf_.clear();
      return Status(error.code(), "server frame rejected: " +
                                      error.message());
    }
    if (parse == wire::FrameParse::kFrame) {
      NetMessage msg;
      const Status st = DecodeNetBody(body, body_len, &msg);
      inbuf_.erase(0, consumed);
      if (extra_wait.count() > 0) SetRecvTimeout(fd_, options_.io_timeout);
      if (!st.ok()) return st;
      return msg;
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      inbuf_.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // Any failed read poisons the connection: with a request already on
    // the wire, a later retry would otherwise consume *this* request's
    // late response as its own and desync the dialog permanently.
    const Status st = n == 0
                          ? Status::FailedPrecondition(
                                "server closed the connection")
                          : (errno == EAGAIN || errno == EWOULDBLOCK)
                                ? Status::FailedPrecondition(
                                      "timed out waiting for the server")
                                : Errno("recv");
    ::close(fd_);
    fd_ = -1;
    inbuf_.clear();
    return st;
  }
}

Result<NetMessage> MonitorClient::RoundTrip(
    const std::string& body, NetMessageType want,
    std::chrono::milliseconds extra_wait) {
  TOPKMON_RETURN_IF_ERROR(SendFrame(body));
  Result<NetMessage> response = RecvMessage(extra_wait);
  if (!response.ok()) return response.status();
  if (response->type == NetMessageType::kError) {
    return Status(response->code, response->message);
  }
  if (response->type != want) {
    return Status::Internal(
        "unexpected response type " +
        std::to_string(static_cast<int>(response->type)) + " (wanted " +
        std::to_string(static_cast<int>(want)) + ")");
  }
  return response;
}

Result<MonitorClient::IngestAck> MonitorClient::Ingest(
    std::vector<Record> tuples) {
  if (tuples.empty()) return IngestAck{};
  const int dim = tuples[0].position.dim();
  for (const Record& r : tuples) {
    if (r.position.dim() != dim) {
      return Status::InvalidArgument(
          "ingest batch mixes dimensionalities");
    }
  }
  // The span encoding needs non-decreasing arrivals and strictly
  // increasing ids; arrival order with a 0..n-1 ramp satisfies both.
  std::stable_sort(tuples.begin(), tuples.end(),
                   [](const Record& a, const Record& b) {
                     return a.arrival < b.arrival;
                   });
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    tuples[i].id = static_cast<RecordId>(i);
  }
  std::string body;
  EncodeIngest(tuples, &body);
  auto ack = RoundTrip(body, NetMessageType::kIngestAck);
  if (!ack.ok()) return ack.status();
  IngestAck out;
  out.accepted = ack->accepted;
  out.rejected = ack->rejected;
  out.queue_hint = ack->queue_hint;
  last_ingest_hint_ = ack->queue_hint;
  fencing_epoch_ = std::max(fencing_epoch_, ack->fencing_epoch);
  if (ack->code != StatusCode::kOk) {
    out.first_error = Status(ack->code, ack->message);
  }
  return out;
}

Result<QueryId> MonitorClient::Register(const QuerySpec& spec) {
  std::string body;
  TOPKMON_RETURN_IF_ERROR(EncodeRegister(spec, &body));
  auto ack = RoundTrip(body, NetMessageType::kRegisterAck);
  if (!ack.ok()) return ack.status();
  return ack->query;
}

Status MonitorClient::Unregister(QueryId query) {
  std::string body;
  EncodeUnregister(query, &body);
  return RoundTrip(body, NetMessageType::kUnregisterAck).status();
}

Result<std::vector<RegisterOutcome>> MonitorClient::RegisterBatch(
    const std::vector<QuerySpec>& specs) {
  std::string body;
  TOPKMON_RETURN_IF_ERROR(EncodeRegisterBatch(specs, &body));
  auto ack = RoundTrip(body, NetMessageType::kRegisterBatchAck);
  if (!ack.ok()) return ack.status();
  if (ack->outcomes.size() != specs.size()) {
    return Status::Internal("register-batch ack carries " +
                            std::to_string(ack->outcomes.size()) +
                            " outcomes for " +
                            std::to_string(specs.size()) + " specs");
  }
  return std::move(ack->outcomes);
}

Result<std::vector<ResultEntry>> MonitorClient::CurrentResult(
    QueryId query) {
  std::string body;
  EncodeSnapshotRequest(query, &body);
  auto result = RoundTrip(body, NetMessageType::kSnapshotResult);
  if (!result.ok()) return result.status();
  snapshot_as_of_ = result->as_of;
  snapshot_stale_by_ = result->stale_by;
  return std::move(result->entries);
}

Result<ShipChunk> MonitorClient::ReplFetch(std::uint64_t segment,
                                           std::uint64_t offset,
                                           std::uint32_t max_bytes,
                                           std::chrono::milliseconds wait) {
  std::string body;
  EncodeReplFetch(segment, offset, max_bytes,
                  static_cast<std::uint32_t>(std::max<std::int64_t>(
                      0, std::min<std::int64_t>(wait.count(), 0xFFFFFFFF))),
                  &body);
  auto reply = RoundTrip(body, NetMessageType::kReplChunk, wait);
  if (!reply.ok()) return reply.status();
  leader_cycle_ts_ = std::max(leader_cycle_ts_, reply->leader_cycle_ts);
  fencing_epoch_ = std::max(fencing_epoch_, reply->fencing_epoch);
  ShipChunk chunk;
  chunk.segment = reply->segment;
  chunk.offset = reply->offset;
  chunk.sealed = reply->sealed;
  chunk.restart = reply->restart;
  chunk.next_segment = reply->next_segment;
  chunk.data = std::move(reply->data);
  return chunk;
}

Result<std::vector<DeltaEvent>> MonitorClient::PollDeltas(
    std::uint32_t max_events, std::chrono::milliseconds timeout) {
  std::string body;
  EncodePoll(max_events,
             static_cast<std::uint32_t>(std::max<std::int64_t>(
                 0, std::min<std::int64_t>(timeout.count(), 0xFFFFFFFF))),
             &body);
  auto deltas = RoundTrip(body, NetMessageType::kDeltas, timeout);
  if (!deltas.ok()) return deltas.status();
  deltas_as_of_ = deltas->as_of;
  deltas_truncated_ = deltas->truncated;
  for (const DeltaEvent& e : deltas->events) {
    last_seq_ = std::max(last_seq_, e.seq);
  }
  return std::move(deltas->events);
}

Result<MonitorClient::ServerStatus> MonitorClient::GetStatus() {
  std::string body;
  EncodeStatusRequest(&body);
  auto info = RoundTrip(body, NetMessageType::kStatusInfo);
  if (!info.ok()) return info.status();
  fencing_epoch_ = std::max(fencing_epoch_, info->fencing_epoch);
  ServerStatus out;
  out.role = info->role;
  out.fencing_epoch = info->fencing_epoch;
  out.applied_cycle_ts = info->as_of;
  out.journal_segment = info->segment;
  out.journal_offset = info->offset;
  out.fenced = info->fenced;
  return out;
}

Status MonitorClient::WaitForAsOf(QueryId query, Timestamp target,
                                  std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    auto result = CurrentResult(query);
    if (!result.ok()) return result.status();
    if (snapshot_as_of_ >= target) return Status::Ok();
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::Unavailable(
          "server as-of frontier " + std::to_string(snapshot_as_of_) +
          " did not reach " + std::to_string(target) + " within " +
          std::to_string(timeout.count()) + "ms");
    }
    // The frontier advances one replication cycle at a time; a short
    // sleep keeps the poll from hammering the snapshot path.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

Status MonitorClient::Close(bool close_session) {
  if (fd_ < 0) return Status::Ok();
  std::string body;
  EncodeClose(close_session, &body);
  const Status st = RoundTrip(body, NetMessageType::kCloseAck).status();
  ::close(fd_);
  fd_ = -1;
  return st;
}

}  // namespace topkmon
