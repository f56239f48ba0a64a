#include "net/protocol.h"

#include <algorithm>

#include "common/geometry.h"
#include "journal/wire.h"

namespace topkmon {
namespace {

using wire::ByteReader;

void PutType(NetMessageType type, std::string* out) {
  wire::PutU8(static_cast<std::uint8_t>(type), out);
}

void PutEntries(const std::vector<ResultEntry>& entries, std::string* out) {
  wire::PutU32(static_cast<std::uint32_t>(entries.size()), out);
  for (const ResultEntry& e : entries) {
    wire::PutU64(e.id, out);
    wire::PutF64(e.score, out);
  }
}

/// One result entry costs 16 bytes; a count prefix that promises more
/// entries than the remaining bytes could hold is a malformed message,
/// not an allocation request.
Status GetEntries(ByteReader& in, std::vector<ResultEntry>* out) {
  const std::uint32_t count = in.GetU32();
  if (!in.ok() || count > in.remaining() / 16) {
    return Status::InvalidArgument("entry count exceeds body size");
  }
  out->reserve(out->size() + count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ResultEntry e;
    e.id = in.GetU64();
    e.score = in.GetF64();
    out->push_back(e);
  }
  if (!in.ok()) return Status::InvalidArgument("truncated entry list");
  return Status::Ok();
}

}  // namespace

std::uint8_t NetEncodeStatusCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return 0;
    case StatusCode::kInvalidArgument: return 1;
    case StatusCode::kNotFound: return 2;
    case StatusCode::kAlreadyExists: return 3;
    case StatusCode::kOutOfRange: return 4;
    case StatusCode::kFailedPrecondition: return 5;
    case StatusCode::kUnimplemented: return 6;
    case StatusCode::kInternal: return 7;
    case StatusCode::kResourceExhausted: return 8;
    case StatusCode::kUnavailable: return 9;
    case StatusCode::kFenced: return 10;
  }
  return 7;
}

StatusCode NetDecodeStatusCode(std::uint8_t wire_value) {
  switch (wire_value) {
    case 0: return StatusCode::kOk;
    case 1: return StatusCode::kInvalidArgument;
    case 2: return StatusCode::kNotFound;
    case 3: return StatusCode::kAlreadyExists;
    case 4: return StatusCode::kOutOfRange;
    case 5: return StatusCode::kFailedPrecondition;
    case 6: return StatusCode::kUnimplemented;
    case 8: return StatusCode::kResourceExhausted;
    case 9: return StatusCode::kUnavailable;
    case 10: return StatusCode::kFenced;
    default: return StatusCode::kInternal;
  }
}

void EncodeHello(bool resume, const std::string& label, std::string* out) {
  PutType(NetMessageType::kHello, out);
  wire::PutU32(kNetMagic, out);
  wire::PutU32(kNetProtocolVersion, out);
  wire::PutU8(resume ? 1 : 0, out);
  wire::PutString(label, out);
}

void EncodeWelcome(SessionId session, bool resumed, std::uint8_t role,
                   std::uint32_t server_tag, std::uint64_t fencing_epoch,
                   std::uint32_t wire_version, std::string* out) {
  PutType(NetMessageType::kWelcome, out);
  wire::PutU64(session, out);
  wire::PutU8(resumed ? 1 : 0, out);
  // Echo the negotiated version, not ours: a v4 client reads back the
  // dialect this connection actually speaks.
  wire::PutU32(wire_version, out);
  wire::PutU8(role, out);
  wire::PutU32(server_tag, out);
  if (wire_version >= 5) wire::PutU64(fencing_epoch, out);
}

void EncodeIngest(const std::vector<Record>& tuples, std::string* out) {
  std::size_t bytes = out->size() + 1 + 4;
  if (!tuples.empty()) {
    bytes +=
        wire::RecordSpanMaxBytes(tuples.size(), tuples[0].position.dim());
  }
  out->reserve(bytes);
  PutType(NetMessageType::kIngest, out);
  wire::PutU32(static_cast<std::uint32_t>(tuples.size()), out);
  if (!tuples.empty()) {
    wire::PutRecordSpan(tuples.data(), tuples.size(), out);
  }
}

void EncodeIngestAck(std::uint32_t accepted, std::uint32_t rejected,
                     const Status& first_error, std::uint8_t queue_hint,
                     std::uint64_t fencing_epoch,
                     std::uint32_t wire_version, std::string* out) {
  PutType(NetMessageType::kIngestAck, out);
  wire::PutU32(accepted, out);
  wire::PutU32(rejected, out);
  wire::PutU8(NetEncodeStatusCode(first_error.code()), out);
  wire::PutString(first_error.message(), out);
  wire::PutU8(queue_hint, out);
  if (wire_version >= 5) wire::PutU64(fencing_epoch, out);
}

Status EncodeRegister(const QuerySpec& spec, std::string* out) {
  const std::size_t mark = out->size();
  PutType(NetMessageType::kRegister, out);
  const Status st = wire::PutQuerySpec(spec, out);
  if (!st.ok()) out->resize(mark);
  return st;
}

void EncodeRegisterAck(QueryId query, std::string* out) {
  PutType(NetMessageType::kRegisterAck, out);
  wire::PutU32(query, out);
}

void EncodeUnregister(QueryId query, std::string* out) {
  PutType(NetMessageType::kUnregister, out);
  wire::PutU32(query, out);
}

void EncodeUnregisterAck(std::string* out) {
  PutType(NetMessageType::kUnregisterAck, out);
}

void EncodeSnapshotRequest(QueryId query, std::string* out) {
  PutType(NetMessageType::kSnapshot, out);
  wire::PutU32(query, out);
}

void EncodeSnapshotResult(const std::vector<ResultEntry>& entries,
                          Timestamp as_of, Timestamp stale_by,
                          std::string* out) {
  PutType(NetMessageType::kSnapshotResult, out);
  wire::PutI64(as_of, out);
  wire::PutI64(stale_by, out);
  PutEntries(entries, out);
}

void EncodePoll(std::uint32_t max_events, std::uint32_t timeout_ms,
                std::string* out) {
  PutType(NetMessageType::kPoll, out);
  wire::PutU32(max_events, out);
  wire::PutU32(timeout_ms, out);
}

void EncodeDeltas(const std::vector<DeltaEvent>& events, Timestamp as_of,
                  bool truncated, std::string* out) {
  PutType(NetMessageType::kDeltas, out);
  wire::PutI64(as_of, out);
  wire::PutU8(truncated ? 1 : 0, out);
  wire::PutU32(static_cast<std::uint32_t>(events.size()), out);
  for (const DeltaEvent& e : events) {
    wire::PutU64(e.seq, out);
    wire::PutU32(e.delta.query, out);
    wire::PutI64(e.delta.when, out);
    PutEntries(e.delta.added, out);
    PutEntries(e.delta.removed, out);
  }
}

void EncodeClose(bool close_session, std::string* out) {
  PutType(NetMessageType::kClose, out);
  wire::PutU8(close_session ? 1 : 0, out);
}

void EncodeCloseAck(std::string* out) {
  PutType(NetMessageType::kCloseAck, out);
}

void EncodeError(const Status& status, std::string* out) {
  PutType(NetMessageType::kError, out);
  wire::PutU8(NetEncodeStatusCode(status.code()), out);
  wire::PutString(status.message(), out);
}

Status EncodeRegisterBatch(const std::vector<QuerySpec>& specs,
                           std::string* out) {
  if (specs.empty() || specs.size() > kMaxRegisterBatch) {
    return Status::InvalidArgument(
        "RegisterBatch carries 1.." + std::to_string(kMaxRegisterBatch) +
        " specs, not " + std::to_string(specs.size()));
  }
  const std::size_t mark = out->size();
  PutType(NetMessageType::kRegisterBatch, out);
  wire::PutU32(static_cast<std::uint32_t>(specs.size()), out);
  for (const QuerySpec& spec : specs) {
    const Status st = wire::PutQuerySpec(spec, out);
    if (!st.ok()) {
      out->resize(mark);
      return st;
    }
  }
  return Status::Ok();
}

void EncodeRegisterBatchAck(const std::vector<RegisterOutcome>& outcomes,
                            std::string* out) {
  PutType(NetMessageType::kRegisterBatchAck, out);
  wire::PutU32(static_cast<std::uint32_t>(outcomes.size()), out);
  for (const RegisterOutcome& o : outcomes) {
    wire::PutU8(NetEncodeStatusCode(o.code), out);
    wire::PutU32(o.query, out);
    wire::PutString(o.message, out);
  }
}

void EncodeReplFetch(std::uint64_t segment, std::uint64_t offset,
                     std::uint32_t max_bytes, std::uint32_t wait_ms,
                     std::string* out) {
  PutType(NetMessageType::kReplFetch, out);
  wire::PutU64(segment, out);
  wire::PutU64(offset, out);
  wire::PutU32(max_bytes, out);
  wire::PutU32(wait_ms, out);
}

void EncodeReplChunk(std::uint64_t segment, std::uint64_t offset,
                     bool sealed, bool restart, std::uint64_t next_segment,
                     Timestamp leader_cycle_ts, const std::string& data,
                     std::uint64_t fencing_epoch,
                     std::uint32_t wire_version, std::string* out) {
  out->reserve(out->size() + 48 + data.size());
  PutType(NetMessageType::kReplChunk, out);
  wire::PutU64(segment, out);
  wire::PutU64(offset, out);
  wire::PutU8(static_cast<std::uint8_t>((sealed ? 1 : 0) |
                                        (restart ? 2 : 0)),
              out);
  wire::PutU64(next_segment, out);
  wire::PutI64(leader_cycle_ts, out);
  wire::PutU32(static_cast<std::uint32_t>(data.size()), out);
  out->append(data);
  if (wire_version >= 5) wire::PutU64(fencing_epoch, out);
}

void EncodeStatusRequest(std::string* out) {
  PutType(NetMessageType::kStatus, out);
}

void EncodeStatusInfo(std::uint8_t role, std::uint64_t fencing_epoch,
                      Timestamp applied_cycle_ts, std::uint64_t segment,
                      std::uint64_t offset, bool fenced, std::string* out) {
  PutType(NetMessageType::kStatusInfo, out);
  wire::PutU8(role, out);
  wire::PutU64(fencing_epoch, out);
  wire::PutI64(applied_cycle_ts, out);
  wire::PutU64(segment, out);
  wire::PutU64(offset, out);
  wire::PutU8(fenced ? 1 : 0, out);
}

Status DecodeNetBody(const char* data, std::size_t n, NetMessage* out) {
  ByteReader in(data, n);
  const std::uint8_t type = in.GetU8();
  if (!in.ok()) return Status::InvalidArgument("empty message body");
  // Trailing bytes after a well-formed payload are a dialect mismatch;
  // every case below ends by falling through to this check.
  auto done = [&in]() -> Status {
    if (!in.ok() || in.remaining() != 0) {
      return Status::InvalidArgument("malformed message payload");
    }
    return Status::Ok();
  };
  switch (static_cast<NetMessageType>(type)) {
    case NetMessageType::kHello:
      out->type = NetMessageType::kHello;
      out->magic = in.GetU32();
      out->version = in.GetU32();
      out->resume = in.GetU8() == 1;
      out->label = in.GetString();
      return done();
    case NetMessageType::kWelcome:
      out->type = NetMessageType::kWelcome;
      out->session = in.GetU64();
      out->resumed = in.GetU8() == 1;
      out->version = in.GetU32();
      out->role = in.GetU8();
      out->server_tag = in.GetU32();
      // Trailing epoch appeared in v5; a v4 Welcome simply ends here.
      out->fencing_epoch = 0;
      if (in.ok() && in.remaining() > 0) out->fencing_epoch = in.GetU64();
      return done();
    case NetMessageType::kIngest: {
      out->type = NetMessageType::kIngest;
      const std::uint32_t count = in.GetU32();
      if (!in.ok()) return Status::InvalidArgument("truncated ingest header");
      out->tuples.clear();
      if (count > 0) {
        TOPKMON_RETURN_IF_ERROR(
            wire::GetRecordSpan(in, count, &out->tuples));
      }
      return done();
    }
    case NetMessageType::kIngestAck:
      out->type = NetMessageType::kIngestAck;
      out->accepted = in.GetU32();
      out->rejected = in.GetU32();
      out->code = NetDecodeStatusCode(in.GetU8());
      out->message = in.GetString();
      out->queue_hint = in.GetU8();
      // Trailing epoch appeared in v5; a v4 ack simply ends here.
      out->fencing_epoch = 0;
      if (in.ok() && in.remaining() > 0) out->fencing_epoch = in.GetU64();
      return done();
    case NetMessageType::kRegister:
      out->type = NetMessageType::kRegister;
      TOPKMON_RETURN_IF_ERROR(wire::GetQuerySpec(in, &out->spec));
      return done();
    case NetMessageType::kRegisterAck:
      out->type = NetMessageType::kRegisterAck;
      out->query = in.GetU32();
      return done();
    case NetMessageType::kUnregister:
      out->type = NetMessageType::kUnregister;
      out->query = in.GetU32();
      return done();
    case NetMessageType::kUnregisterAck:
      out->type = NetMessageType::kUnregisterAck;
      return done();
    case NetMessageType::kSnapshot:
      out->type = NetMessageType::kSnapshot;
      out->query = in.GetU32();
      return done();
    case NetMessageType::kSnapshotResult:
      out->type = NetMessageType::kSnapshotResult;
      out->as_of = in.GetI64();
      out->stale_by = in.GetI64();
      out->entries.clear();
      TOPKMON_RETURN_IF_ERROR(GetEntries(in, &out->entries));
      return done();
    case NetMessageType::kPoll:
      out->type = NetMessageType::kPoll;
      out->max_events = in.GetU32();
      out->timeout_ms = in.GetU32();
      return done();
    case NetMessageType::kDeltas: {
      out->type = NetMessageType::kDeltas;
      out->as_of = in.GetI64();
      const std::uint8_t truncated = in.GetU8();
      if (!in.ok() || truncated > 1) {
        return Status::InvalidArgument("bad deltas truncated flag");
      }
      out->truncated = truncated == 1;
      const std::uint32_t count = in.GetU32();
      // An event is at least seq + query + when + two empty entry lists.
      if (!in.ok() || count > in.remaining() / 28) {
        return Status::InvalidArgument("event count exceeds body size");
      }
      out->events.clear();
      out->events.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        DeltaEvent e;
        e.seq = in.GetU64();
        e.delta.query = in.GetU32();
        e.delta.when = in.GetI64();
        TOPKMON_RETURN_IF_ERROR(GetEntries(in, &e.delta.added));
        TOPKMON_RETURN_IF_ERROR(GetEntries(in, &e.delta.removed));
        out->events.push_back(std::move(e));
      }
      return done();
    }
    case NetMessageType::kClose: {
      out->type = NetMessageType::kClose;
      const std::uint8_t flag = in.GetU8();
      if (flag > 1) {
        return Status::InvalidArgument("bad close-session flag");
      }
      out->close_session = flag == 1;
      return done();
    }
    case NetMessageType::kCloseAck:
      out->type = NetMessageType::kCloseAck;
      return done();
    case NetMessageType::kError:
      out->type = NetMessageType::kError;
      out->code = NetDecodeStatusCode(in.GetU8());
      out->message = in.GetString();
      return done();
    case NetMessageType::kRegisterBatch: {
      out->type = NetMessageType::kRegisterBatch;
      const std::uint32_t count = in.GetU32();
      // A spec is at least id + k + function header + constraint flag (11
      // bytes); a count promising more is malformed, not an allocation.
      if (!in.ok() || count == 0 || count > kMaxRegisterBatch ||
          count > in.remaining() / 11) {
        return Status::InvalidArgument("bad register-batch count");
      }
      out->specs.clear();
      out->specs.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        QuerySpec spec;
        TOPKMON_RETURN_IF_ERROR(wire::GetQuerySpec(in, &spec));
        out->specs.push_back(std::move(spec));
      }
      return done();
    }
    case NetMessageType::kRegisterBatchAck: {
      out->type = NetMessageType::kRegisterBatchAck;
      const std::uint32_t count = in.GetU32();
      // An outcome is at least code + query + empty string (7 bytes).
      if (!in.ok() || count > in.remaining() / 7) {
        return Status::InvalidArgument("bad register-batch-ack count");
      }
      out->outcomes.clear();
      out->outcomes.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        RegisterOutcome o;
        o.code = NetDecodeStatusCode(in.GetU8());
        o.query = in.GetU32();
        o.message = in.GetString();
        out->outcomes.push_back(std::move(o));
      }
      return done();
    }
    case NetMessageType::kReplFetch:
      out->type = NetMessageType::kReplFetch;
      out->segment = in.GetU64();
      out->offset = in.GetU64();
      out->max_bytes = in.GetU32();
      out->timeout_ms = in.GetU32();
      return done();
    case NetMessageType::kReplChunk: {
      out->type = NetMessageType::kReplChunk;
      out->segment = in.GetU64();
      out->offset = in.GetU64();
      const std::uint8_t flags = in.GetU8();
      if (flags > 3) return Status::InvalidArgument("bad chunk flags");
      out->sealed = (flags & 1) != 0;
      out->restart = (flags & 2) != 0;
      out->next_segment = in.GetU64();
      out->leader_cycle_ts = in.GetI64();
      const std::uint32_t len = in.GetU32();
      if (!in.ok() || len > in.remaining()) {
        return Status::InvalidArgument("chunk length exceeds body size");
      }
      out->data = in.GetBytes(len);
      // Trailing epoch appeared in v5; a v4 chunk simply ends here.
      out->fencing_epoch = 0;
      if (in.ok() && in.remaining() > 0) out->fencing_epoch = in.GetU64();
      return done();
    }
    case NetMessageType::kStatus:
      out->type = NetMessageType::kStatus;
      return done();
    case NetMessageType::kStatusInfo: {
      out->type = NetMessageType::kStatusInfo;
      out->role = in.GetU8();
      out->fencing_epoch = in.GetU64();
      out->as_of = in.GetI64();
      out->segment = in.GetU64();
      out->offset = in.GetU64();
      const std::uint8_t fenced = in.GetU8();
      if (!in.ok() || fenced > 1) {
        return Status::InvalidArgument("bad status fenced flag");
      }
      out->fenced = fenced == 1;
      return done();
    }
  }
  return Status::InvalidArgument("unknown message type " +
                                 std::to_string(type));
}

namespace {

/// One pass over an ingest body's record span (`in` is positioned at
/// it): decodes it block by block into view->records and checks the
/// body ends with the span. With a `sink`, each block is also validated
/// and handed over before the next is decoded.
Status DecodeIngestPass(
    ByteReader in, std::uint32_t count, int dim, IngestFrameView* view,
    const std::function<bool(const IngestFrameView&)>* sink) {
  wire::RecordSpanReader span(in);
  TOPKMON_RETURN_IF_ERROR(span.Open(count));
  std::size_t done = 0;
  while (done < count) {
    const std::size_t n =
        std::min<std::size_t>(kIngestBlockRecords, count - done);
    // reserve() takes exactly n, which keeps the block at its bound.
    if (view->records.capacity() < n) view->records.reserve(n);
    view->records.resize(n);
    view->invalid.clear();
    view->first_invalid = Status::Ok();
    TOPKMON_RETURN_IF_ERROR(span.Read(view->records.data(), n));
    done += n;
    if (done == count && in.remaining() != 0) {
      return Status::InvalidArgument("trailing bytes after message");
    }
    if (sink == nullptr) continue;
    for (std::size_t i = 0; i < n; ++i) {
      const Record& r = view->records[i];
      Status v = ValidatePoint(r.position, dim);
      if (v.ok() && (r.arrival < 0 || r.arrival > kMaxWireArrival)) {
        v = Status::OutOfRange("arrival timestamp outside the wire range");
      }
      if (!v.ok()) {
        if (view->invalid.empty()) view->first_invalid = v;
        view->invalid.push_back(static_cast<std::uint32_t>(i));
      }
    }
    if (!(*sink)(*view)) break;
  }
  return Status::Ok();
}

}  // namespace

Status DecodeIngestBody(
    const char* data, std::size_t n, int dim, IngestFrameView* view,
    const std::function<bool(const IngestFrameView&)>& sink) {
  view->frame_records = 0;
  ByteReader in(data, n);
  const std::uint8_t type = in.GetU8();
  if (!in.ok() ||
      static_cast<NetMessageType>(type) != NetMessageType::kIngest) {
    return Status::InvalidArgument("not an ingest body");
  }
  const std::uint32_t count = in.GetU32();
  if (!in.ok()) return Status::InvalidArgument("truncated ingest header");
  if (count == 0) {
    if (in.remaining() != 0) {
      return Status::InvalidArgument("trailing bytes after message");
    }
    return Status::Ok();
  }
  // Frame-boundary validation is the ONE place wire records are checked
  // against the engine's unit space; downstream stages trust the view.
  if (count > kIngestBlockRecords) {
    TOPKMON_RETURN_IF_ERROR(DecodeIngestPass(in, count, dim, view, nullptr));
  }
  view->frame_records = count;
  return DecodeIngestPass(in, count, dim, view, &sink);
}

}  // namespace topkmon
