#include "net/client.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "journal/wire.h"
#include "util/clock.h"

namespace topkmon {

Result<std::unique_ptr<MonitorClient>> MonitorClient::Connect(
    const std::string& host, std::uint16_t port, const std::string& label,
    bool resume, const NetClientOptions& options) {
  auto connected = socket::Connect(host, port, options.io_timeout);
  if (!connected.ok()) return connected.status();
  std::unique_ptr<MonitorClient> client(
      new MonitorClient(std::move(*connected), options));
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

Status MonitorClient::SendFrame(const std::string& body) {
  if (!socket_.is_open()) {
    return Status::FailedPrecondition("client is closed");
  }
  std::string frame;
  frame.reserve(wire::kFrameHeaderBytes + body.size());
  wire::PutFrame(body, &frame);
  const socket::IoResult sent = socket::Flush(socket_, &frame);
  if (frame.empty()) return Status::Ok();
  // A failed (possibly partial) send poisons the connection, same as a
  // failed read: retrying another request would splice its frame into
  // the middle of this one and desync the stream.
  socket_.Close();
  inbuf_.clear();
  return Status::Internal(sent.error == 0
                              ? std::string("send timed out")
                              : std::string("send: ") +
                                    std::strerror(sent.error));
}

Result<NetMessage> MonitorClient::RecvMessage(
    std::chrono::milliseconds extra_wait) {
  if (extra_wait.count() > 0) {
    socket::SetReadTimeout(socket_, options_.io_timeout + extra_wait);
  }
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
      socket_.Close();
      inbuf_.clear();
      return Status(error.code(), "server frame rejected: " +
                                      error.message());
    }
    if (parse == wire::FrameParse::kFrame) {
      NetMessage msg;
      const Status st = DecodeNetBody(body, body_len, &msg);
      inbuf_.erase(0, consumed);
      if (extra_wait.count() > 0) {
        socket::SetReadTimeout(socket_, options_.io_timeout);
      }
      if (!st.ok()) return st;
      return msg;
    }
    const socket::IoResult read =
        socket::ReadSome(socket_, &inbuf_, socket::kReadChunkBytes);
    if (read.bytes > 0) continue;
    // Any failed read poisons the connection: with a request already on
    // the wire, a later retry would otherwise consume *this* request's
    // late response as its own and desync the dialog permanently.
    const Status st =
        read.eof ? Status::FailedPrecondition("server closed the connection")
        : read.error == 0
            ? Status::FailedPrecondition("timed out waiting for the server")
            : Status::Internal(std::string("recv: ") +
                               std::strerror(read.error));
    socket_.Close();
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
  const auto deadline = Clock::RealNow() + timeout;
  while (true) {
    auto result = CurrentResult(query);
    if (!result.ok()) return result.status();
    if (snapshot_as_of_ >= target) return Status::Ok();
    if (Clock::RealNow() >= deadline) {
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
  if (!socket_.is_open()) return Status::Ok();
  std::string body;
  EncodeClose(close_session, &body);
  const Status st = RoundTrip(body, NetMessageType::kCloseAck).status();
  socket_.Close();
  return st;
}

}  // namespace topkmon
