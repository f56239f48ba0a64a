#include "journal/format.h"

#include <cstdio>

#include "core/engine.h"
#include "journal/wire.h"

namespace topkmon {
namespace {

// ---- journal-specific composite encodings -----------------------------

/// A journaled query is the shared query-spec encoding plus the owning
/// session's diagnostic label (the recovery key for session adoption).
Status PutQuery(const JournaledQuery& q, std::string* out) {
  TOPKMON_RETURN_IF_ERROR(wire::PutQuerySpec(q.spec, out));
  wire::PutString(q.owner_label, out);
  return Status::Ok();
}

/// Whether `out` holds a chunk for `drain` (checked once per record, so
/// the encode pays a call only per chunk).
bool ChunkDue(const SnapshotDrain* drain, const std::string& out) {
  return drain != nullptr && out.size() >= kAnchorChunkBytes;
}

/// A snapshot body up to and including the window count; the window's
/// record span (when `window_size` > 0) follows. Without a drain it
/// reserves room for that span too.
Status PutSnapshotHead(Timestamp last_cycle_ts, RecordId next_record_id,
                       std::uint64_t next_query_id,
                       const std::vector<JournaledQuery>& live_queries,
                       std::uint64_t window_size, int dim, std::string* out,
                       SnapshotDrain* drain) {
  wire::PutU8(static_cast<std::uint8_t>(JournalRecordType::kSnapshot), out);
  wire::PutI64(last_cycle_ts, out);
  wire::PutU64(next_record_id, out);
  wire::PutU64(next_query_id, out);
  wire::PutU32(static_cast<std::uint32_t>(live_queries.size()), out);
  for (const JournaledQuery& q : live_queries) {
    TOPKMON_RETURN_IF_ERROR(PutQuery(q, out));
    if (ChunkDue(drain, *out)) TOPKMON_RETURN_IF_ERROR(drain->Drain(out));
  }
  wire::PutU64(window_size, out);
  if (drain == nullptr && window_size > 0) {
    out->reserve(out->size() + wire::RecordSpanMaxBytes(window_size, dim));
  }
  return Status::Ok();
}

Status GetQuery(wire::ByteReader& in, JournaledQuery* out) {
  TOPKMON_RETURN_IF_ERROR(wire::GetQuerySpec(in, &out->spec));
  out->owner_label = in.GetString();
  if (!in.ok()) return Status::InvalidArgument("truncated query record");
  return Status::Ok();
}

}  // namespace

void EncodeSegmentHeader(std::string* out) {
  wire::PutU64(kJournalMagic, out);
  wire::PutU32(kJournalFormatVersion, out);
  wire::PutU32(0, out);  // reserved
}

void EncodeCycleBody(Timestamp ts, RecordSpan batch, std::string* out) {
  std::size_t bytes = out->size() + 1 + 8 + 4;
  if (!batch.empty()) {
    bytes +=
        wire::RecordSpanMaxBytes(batch.size(), batch[0].position.dim());
  }
  out->reserve(bytes);
  wire::PutU8(static_cast<std::uint8_t>(JournalRecordType::kCycle), out);
  wire::PutI64(ts, out);
  wire::PutU32(static_cast<std::uint32_t>(batch.size()), out);
  if (!batch.empty()) wire::PutRecordSpan(batch.data(), batch.size(), out);
}

Status EncodeRegisterBody(const JournaledQuery& query, std::string* out) {
  const std::size_t mark = out->size();
  wire::PutU8(static_cast<std::uint8_t>(JournalRecordType::kRegister), out);
  const Status st = PutQuery(query, out);
  if (!st.ok()) out->resize(mark);
  return st;
}

void EncodeUnregisterBody(QueryId id, std::string* out) {
  wire::PutU8(static_cast<std::uint8_t>(JournalRecordType::kUnregister),
              out);
  wire::PutU32(id, out);
}

Status EncodeSnapshotBody(const JournalSnapshot& snapshot, std::string* out) {
  const std::size_t mark = out->size();
  const std::vector<Record>& window = snapshot.window;
  const Status st = PutSnapshotHead(
      snapshot.last_cycle_ts, snapshot.next_record_id, snapshot.next_query_id,
      snapshot.live_queries, window.size(),
      window.empty() ? 0 : window[0].position.dim(), out, nullptr);
  if (!st.ok()) {
    out->resize(mark);
    return st;
  }
  wire::RecordSpanEncoder span(out);
  for (const Record& r : window) span.Add(r.id, r.position, r.arrival);
  return Status::Ok();
}

Status EncodeSnapshotBody(const SnapshotAnchor& anchor, std::string* out,
                          SnapshotDrain* drain) {
  // Writes the head when the walk announces its last cycle and size,
  // then one span entry per record as the engine yields it.
  class Encoder final : public WindowVisitor {
   public:
    Encoder(const SnapshotAnchor& anchor, std::string* out,
            SnapshotDrain* drain)
        : anchor_(anchor), out_(out), drain_(drain), span_(out) {}

    void Begin(Timestamp last_cycle, std::size_t size) override {
      size_ = size;
      status_ = PutSnapshotHead(last_cycle, anchor_.next_record_id,
                                anchor_.next_query_id, anchor_.live_queries,
                                size, anchor_.engine.dim(), out_, drain_);
    }

    void Visit(RecordId id, const Point& position,
               Timestamp arrival) override {
      if (!status_.ok()) return;
      span_.Add(id, position, arrival);
      if (ChunkDue(drain_, *out_)) status_ = drain_->Drain(out_);
    }

    Status Finish() const {
      TOPKMON_RETURN_IF_ERROR(status_);
      if (span_.count() != size_) {
        return Status::Internal("engine walked " +
                                std::to_string(span_.count()) +
                                " window records after announcing " +
                                std::to_string(size_));
      }
      return Status::Ok();
    }

   private:
    const SnapshotAnchor& anchor_;
    std::string* out_;
    SnapshotDrain* drain_;
    wire::RecordSpanEncoder span_;
    std::size_t size_ = 0;
    Status status_ = Status::Internal("engine walk never began");
  };

  const std::size_t mark = out->size();
  Encoder encoder(anchor, out, drain);
  Status st = anchor.engine.VisitWindow(encoder);
  if (st.ok()) st = encoder.Finish();
  if (!st.ok() && drain == nullptr) out->resize(mark);
  return st;
}

Status DecodeSegmentHeader(const char* data, std::size_t n) {
  wire::ByteReader in(data, n);
  const std::uint64_t magic = in.GetU64();
  const std::uint32_t version = in.GetU32();
  in.GetU32();  // reserved
  if (!in.ok() || magic != kJournalMagic) {
    return Status::InvalidArgument("not a topkmon journal segment");
  }
  // Older versions are forward-readable: v1 encodings are a strict
  // subset of v2 (v2 only added the piecewise scoring-function tag), so
  // any version up to the current one is accepted.
  if (version == 0 || version > kJournalFormatVersion) {
    return Status::Unimplemented(
        "journal format version " + std::to_string(version) +
        " is not supported (this build reads versions 1.." +
        std::to_string(kJournalFormatVersion) + ")");
  }
  return Status::Ok();
}

Status DecodeBody(const char* data, std::size_t n, JournalRecord* out) {
  wire::ByteReader in(data, n);
  const std::uint8_t type = in.GetU8();
  if (!in.ok()) return Status::InvalidArgument("empty record body");
  switch (static_cast<JournalRecordType>(type)) {
    case JournalRecordType::kCycle: {
      out->type = JournalRecordType::kCycle;
      out->cycle_ts = in.GetI64();
      const std::uint32_t count = in.GetU32();
      if (!in.ok()) return Status::InvalidArgument("truncated cycle header");
      out->batch.clear();
      if (count > 0) {
        TOPKMON_RETURN_IF_ERROR(wire::GetRecordSpan(in, count, &out->batch));
      }
      if (!in.ok() || in.remaining() != 0) {
        return Status::InvalidArgument("malformed cycle batch");
      }
      return Status::Ok();
    }
    case JournalRecordType::kRegister: {
      out->type = JournalRecordType::kRegister;
      TOPKMON_RETURN_IF_ERROR(GetQuery(in, &out->query));
      if (in.remaining() != 0) {
        return Status::InvalidArgument("trailing bytes after query record");
      }
      return Status::Ok();
    }
    case JournalRecordType::kUnregister: {
      out->type = JournalRecordType::kUnregister;
      out->unregistered = in.GetU32();
      if (!in.ok() || in.remaining() != 0) {
        return Status::InvalidArgument("malformed unregister record");
      }
      return Status::Ok();
    }
    case JournalRecordType::kSnapshot: {
      out->type = JournalRecordType::kSnapshot;
      JournalSnapshot& snap = out->snapshot;
      snap.last_cycle_ts = in.GetI64();
      snap.next_record_id = in.GetU64();
      snap.next_query_id = in.GetU64();
      const std::uint32_t queries = in.GetU32();
      if (!in.ok()) {
        return Status::InvalidArgument("truncated snapshot header");
      }
      snap.live_queries.clear();
      for (std::uint32_t i = 0; i < queries; ++i) {
        JournaledQuery q;
        TOPKMON_RETURN_IF_ERROR(GetQuery(in, &q));
        snap.live_queries.push_back(std::move(q));
      }
      const std::uint64_t count = in.GetU64();
      if (!in.ok()) {
        return Status::InvalidArgument("truncated snapshot window count");
      }
      snap.window.clear();
      if (count > 0) {
        TOPKMON_RETURN_IF_ERROR(
            wire::GetRecordSpan(in, count, &snap.window));
      }
      if (!in.ok() || in.remaining() != 0) {
        return Status::InvalidArgument("malformed snapshot window");
      }
      return Status::Ok();
    }
  }
  return Status::InvalidArgument("unknown journal record type " +
                                 std::to_string(type));
}

std::string SegmentFileName(std::uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "segment-%012llu.wal",
                static_cast<unsigned long long>(index));
  return buf;
}

bool ParseSegmentFileName(const std::string& name, std::uint64_t* index) {
  unsigned long long i = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "segment-%12llu.wal%n", &i, &consumed) != 1 ||
      static_cast<std::size_t>(consumed) != name.size()) {
    return false;
  }
  *index = i;
  return true;
}

}  // namespace topkmon
