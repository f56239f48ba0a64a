#include "journal/format.h"

#include <cstdio>
#include <cstring>

#include "core/engine.h"
#include "journal/wire.h"

namespace topkmon {
namespace {

// ---- CRC-32C (Castagnoli, reflected) ----------------------------------
//
// Every journaled byte is checksummed on the cycle-append hot path, so
// the implementation matters: the SSE4.2 crc32 instruction where the CPU
// has it, slicing-by-8 tables (8 input bytes folded per iteration)
// otherwise.

using Crc32Tables = std::uint32_t[8][256];

const Crc32Tables& Crc32Table() {
  static Crc32Tables table;
  static const bool initialized = [] {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? 0x82F63B38u ^ (c >> 1) : c >> 1;
      }
      table[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = table[k - 1][i];
        table[k][i] = (prev >> 8) ^ table[0][prev & 0xFF];
      }
    }
    return true;
  }();
  (void)initialized;
  return table;
}

std::uint32_t Crc32Software(const unsigned char* p, std::size_t n,
                            std::uint32_t c) {
  const Crc32Tables& t = Crc32Table();
#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  while (n >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    c = t[0][(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c;
}

#if defined(__x86_64__) && defined(__GNUC__)
__attribute__((target("sse4.2"))) std::uint32_t Crc32Hardware(
    const unsigned char* p, std::size_t n, std::uint32_t c) {
  std::uint64_t c64 = c;
  while (n >= 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    c64 = __builtin_ia32_crc32di(c64, chunk);
    p += 8;
    n -= 8;
  }
  c = static_cast<std::uint32_t>(c64);
  while (n > 0) {
    c = __builtin_ia32_crc32qi(c, *p);
    ++p;
    --n;
  }
  return c;
}
#endif

// ---- journal-specific composite encodings -----------------------------

/// A journaled query is the shared query-spec encoding plus the owning
/// session's diagnostic label (the recovery key for session adoption).
Status PutQuery(const JournaledQuery& q, std::string* out) {
  TOPKMON_RETURN_IF_ERROR(wire::PutQuerySpec(q.spec, out));
  wire::PutString(q.owner_label, out);
  return Status::Ok();
}

/// A snapshot body up to and including the window count; the window's
/// record span (when `window_size` > 0) follows.
Status PutSnapshotHead(Timestamp last_cycle_ts, RecordId next_record_id,
                       std::uint64_t next_query_id,
                       const std::vector<JournaledQuery>& live_queries,
                       std::uint64_t window_size, std::string* out) {
  wire::PutU8(static_cast<std::uint8_t>(JournalRecordType::kSnapshot), out);
  wire::PutI64(last_cycle_ts, out);
  wire::PutU64(next_record_id, out);
  wire::PutU64(next_query_id, out);
  wire::PutU32(static_cast<std::uint32_t>(live_queries.size()), out);
  for (const JournaledQuery& q : live_queries) {
    TOPKMON_RETURN_IF_ERROR(PutQuery(q, out));
  }
  wire::PutU64(window_size, out);
  return Status::Ok();
}

Status GetQuery(wire::ByteReader& in, JournaledQuery* out) {
  TOPKMON_RETURN_IF_ERROR(wire::GetQuerySpec(in, &out->spec));
  out->owner_label = in.GetString();
  if (!in.ok()) return Status::InvalidArgument("truncated query record");
  return Status::Ok();
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t n, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  const std::uint32_t c = seed ^ 0xFFFFFFFFu;
#if defined(__x86_64__) && defined(__GNUC__)
  static const bool has_sse42 = __builtin_cpu_supports("sse4.2");
  if (has_sse42) return Crc32Hardware(p, n, c) ^ 0xFFFFFFFFu;
#endif
  return Crc32Software(p, n, c) ^ 0xFFFFFFFFu;
}

void EncodeSegmentHeader(std::string* out) {
  wire::PutU64(kJournalMagic, out);
  wire::PutU32(kJournalFormatVersion, out);
  wire::PutU32(0, out);  // reserved
}

void EncodeFrame(const std::string& body, std::string* out) {
  const std::size_t at = out->size();
  out->append(kFrameHeaderBytes, '\0');
  out->append(body);
  SealFrame(at, out);
}

void SealFrame(std::size_t at, std::string* buf) {
  const std::size_t body_at = at + kFrameHeaderBytes;
  const std::size_t body_len = buf->size() - body_at;
  const auto len32 = static_cast<std::uint32_t>(body_len);
  const std::uint32_t crc = Crc32(buf->data() + body_at, body_len);
  char* prologue = &(*buf)[at];
  for (int i = 0; i < 4; ++i) {
    prologue[i] = static_cast<char>(len32 >> (8 * i));
    prologue[4 + i] = static_cast<char>(crc >> (8 * i));
  }
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
  const Status st =
      PutSnapshotHead(snapshot.last_cycle_ts, snapshot.next_record_id,
                      snapshot.next_query_id, snapshot.live_queries,
                      snapshot.window.size(), out);
  if (!st.ok()) {
    out->resize(mark);
    return st;
  }
  if (!snapshot.window.empty()) {
    out->reserve(out->size() +
                 wire::RecordSpanMaxBytes(snapshot.window.size(),
                                          snapshot.window[0].position.dim()));
    wire::PutRecordSpan(snapshot.window.data(), snapshot.window.size(), out);
  }
  return Status::Ok();
}

Status EncodeSnapshotBody(const SnapshotAnchor& anchor, std::string* out) {
  // Writes the head when the walk announces its last cycle and size,
  // then one span entry per record as the engine yields it.
  class Encoder final : public WindowVisitor {
   public:
    Encoder(const SnapshotAnchor& anchor, std::string* out)
        : anchor_(anchor), out_(out), span_(out) {}

    void Begin(Timestamp last_cycle, std::size_t size) override {
      size_ = size;
      status_ = PutSnapshotHead(last_cycle, anchor_.next_record_id,
                                anchor_.next_query_id, anchor_.live_queries,
                                size, out_);
      if (status_.ok() && size > 0) {
        out_->reserve(out_->size() +
                      wire::RecordSpanMaxBytes(size, anchor_.engine.dim()));
      }
    }

    void Visit(RecordId id, const Point& position,
               Timestamp arrival) override {
      if (status_.ok()) span_.Add(id, position, arrival);
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
    wire::RecordSpanEncoder span_;
    std::size_t size_ = 0;
    Status status_ = Status::Internal("engine walk never began");
  };

  const std::size_t mark = out->size();
  Encoder encoder(anchor, out);
  Status st = anchor.engine.VisitWindow(encoder);
  if (st.ok()) st = encoder.Finish();
  if (!st.ok()) out->resize(mark);
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

JournalFrameParse TryParseJournalFrame(const char* data, std::size_t n,
                                       const char** body,
                                       std::size_t* body_len,
                                       std::size_t* consumed,
                                       std::string* detail) {
  if (n < kFrameHeaderBytes) return JournalFrameParse::kNeedMore;
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(static_cast<unsigned char>(data[i]))
           << (8 * i);
    crc |= static_cast<std::uint32_t>(static_cast<unsigned char>(data[4 + i]))
           << (8 * i);
  }
  if (len == 0 || len > kMaxRecordBytes) {
    *detail = "implausible frame length " + std::to_string(len);
    return JournalFrameParse::kBad;
  }
  if (n - kFrameHeaderBytes < len) return JournalFrameParse::kNeedMore;
  const char* payload = data + kFrameHeaderBytes;
  if (Crc32(payload, len) != crc) {
    *detail = "frame CRC mismatch";
    return JournalFrameParse::kBad;
  }
  *body = payload;
  *body_len = len;
  *consumed = kFrameHeaderBytes + len;
  return JournalFrameParse::kFrame;
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
