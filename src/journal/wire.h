// Shared wire primitives for the on-disk journal and the network protocol.
//
// Both byte formats in this codebase — the durable cycle journal
// (src/journal/format.h, docs/JOURNAL_FORMAT.md) and the binary TCP
// protocol (src/net/protocol.h, docs/PROTOCOL.md) — are built from the
// same little-endian building blocks: fixed-width integers, IEEE-754
// doubles by bit pattern, LEB128 varints, length-prefixed strings, and
// the delta-compressed record span that makes a batch of stream tuples
// cost ~2 + 8·dim bytes per record. This header is the single home of
// those encodings so the two formats can never drift apart on the
// primitives, and the scoring-function / query-spec encodings are shared
// verbatim (a query registered over the wire is journaled byte-identically).
//
// Everything here is format-version-agnostic: framing (length prefixes,
// CRCs, headers, type tags) stays with the owning format.

#ifndef TOPKMON_JOURNAL_WIRE_H_
#define TOPKMON_JOURNAL_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/record.h"
#include "common/scoring.h"
#include "common/status.h"
#include "core/query.h"

namespace topkmon {
namespace wire {

// ---- primitive writers (append to *out) -------------------------------

void PutU8(std::uint8_t v, std::string* out);
void PutU16(std::uint16_t v, std::string* out);
void PutU32(std::uint32_t v, std::string* out);
void PutU64(std::uint64_t v, std::string* out);
void PutI64(std::int64_t v, std::string* out);
void PutF64(double v, std::string* out);

/// dim:u8 then dim raw f64 coordinates.
void PutPoint(const Point& p, std::string* out);

/// Unsigned LEB128: 7 value bits per byte, low group first, high bit =
/// continuation; at most 10 bytes.
void PutUvarint(std::uint64_t v, std::string* out);

/// len:u16 + raw bytes; silently truncates beyond 65535 bytes.
void PutString(const std::string& s, std::string* out);

/// Upper bound on PutRecordSpan output (the hot-path reserve hint).
std::size_t RecordSpanMaxBytes(std::size_t count, int dim);

/// Serializes `count` > 0 records as a span: shared dimensionality and
/// base (id, arrival), then per record the varint deltas against the
/// previous record plus the raw coordinates. A stream batch has
/// consecutive ids and near-constant arrivals, so the common entry is
/// 2 + 8·dim bytes — and every byte is CRC'd and written on hot paths
/// (journal cycle appends, network ingest), so wire compactness is
/// throughput. Requires: uniform dimensionality, strictly increasing ids,
/// non-decreasing arrivals (the engines' arrival-batch contract).
void PutRecordSpan(const Record* records, std::size_t count,
                   std::string* out);

/// The PutRecordSpan encoding fed one record at a time, for records that
/// are not stored as a Record array (a snapshot anchor walks the
/// engine's grid). PutRecordSpan is this encoder run over an array, so
/// both write the same bytes. The span header goes out with the first
/// record; an encoder that is never fed writes nothing. Same
/// requirements as PutRecordSpan.
class RecordSpanEncoder {
 public:
  explicit RecordSpanEncoder(std::string* out) : out_(out) {}

  void Add(RecordId id, const Point& position, Timestamp arrival);

  /// Records encoded so far.
  std::size_t count() const { return count_; }

 private:
  std::string* out_;
  std::size_t count_ = 0;
  int dim_ = 0;
  RecordId prev_id_ = 0;
  Timestamp prev_arrival_ = 0;
};

/// Scoring-function encoding (family tag + payload). Linear / Product /
/// SumOfSquares encode as dim coefficients; Piecewise (tag 4, journal
/// format v2) encodes a piece count followed by per-piece domain corners
/// and the inner monotone function. Fails with Unimplemented for
/// function types without a wire encoding.
Status PutFunction(const ScoringFunction& fn, std::string* out);

/// Full query spec: id:u32 k:u32 function constraint-presence:u8
/// [lo-point hi-point].
Status PutQuerySpec(const QuerySpec& spec, std::string* out);

// ---- primitive readers ------------------------------------------------

/// Bounds-checked cursor over a message body. Every Get* reports overruns
/// through the sticky status; callers check once per record.
class ByteReader {
 public:
  ByteReader(const char* data, std::size_t n) : data_(data), n_(n) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return n_ - pos_; }

  std::uint8_t GetU8() {
    if (!Require(1)) return 0;
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint16_t GetU16() {
    if (!Require(2)) return 0;
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i) {
      v = static_cast<std::uint16_t>(
          v | (static_cast<std::uint16_t>(
                   static_cast<std::uint8_t>(data_[pos_ + i]))
               << (8 * i)));
    }
    pos_ += 2;
    return v;
  }

  std::uint32_t GetU32() {
    if (!Require(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t GetU64() {
    if (!Require(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  std::int64_t GetI64() { return static_cast<std::int64_t>(GetU64()); }

  std::uint64_t GetUvarint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (shift < 64) {
      if (!Require(1)) return 0;
      const auto byte = static_cast<std::uint8_t>(data_[pos_++]);
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return v;
      shift += 7;
    }
    ok_ = false;  // over-long varint
    return 0;
  }

  double GetF64();

  Point GetPoint();

  std::string GetString() {
    const std::size_t n = GetU16();
    return GetBytes(n);
  }

  /// Raw byte run of caller-known length (the replication chunk payload
  /// — one memcpy, not a per-byte loop).
  std::string GetBytes(std::size_t n) {
    if (!Require(n)) return std::string();
    std::string s(data_ + pos_, n);
    pos_ += n;
    return s;
  }

 private:
  bool Require(std::size_t n) {
    if (!ok_ || n_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const char* data_;
  std::size_t n_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Reads a record span of `count` > 0 records (see PutRecordSpan),
/// appending to *out. Validates monotone ids within the span and bounds
/// `count` against the bytes actually present, so a hostile count can
/// never drive an allocation beyond the message size.
Status GetRecordSpan(ByteReader& in, std::uint64_t count,
                     std::vector<Record>* out);

/// Cursor over a record span, for a decoder that stores the records
/// somewhere other than a growing vector (the ingest path decodes a
/// frame block by block into reusable storage). Open reads the span
/// header and bounds `count` like GetRecordSpan; each Read decodes the
/// next records. The same validation as GetRecordSpan.
class RecordSpanReader {
 public:
  explicit RecordSpanReader(ByteReader& in) : in_(in) {}

  Status Open(std::uint64_t count);
  /// Decodes the next `n` records into out[0, n) (InvalidArgument on a
  /// truncated span or a non-increasing id).
  Status Read(Record* out, std::size_t n);

 private:
  ByteReader& in_;
  int dim_ = 0;
  bool first_ = true;
  RecordId prev_id_ = 0;
  Timestamp prev_arrival_ = 0;
};

/// Inverse of PutFunction.
Status GetFunction(ByteReader& in,
                   std::shared_ptr<const ScoringFunction>* out);

/// Inverse of PutQuerySpec (validates the constraint rectangle).
Status GetQuerySpec(ByteReader& in, QuerySpec* out);

}  // namespace wire
}  // namespace topkmon

#endif  // TOPKMON_JOURNAL_WIRE_H_
