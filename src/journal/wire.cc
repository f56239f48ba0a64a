#include "journal/wire.h"

#include <algorithm>
#include <cstring>

#include "common/geometry.h"
#include "core/piecewise.h"

namespace topkmon {
namespace wire {

void PutU8(std::uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

void PutU16(std::uint16_t v, std::string* out) {
  char b[2];
  for (int i = 0; i < 2; ++i) b[i] = static_cast<char>(v >> (8 * i));
  out->append(b, 2);
}

void PutU32(std::uint32_t v, std::string* out) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(v >> (8 * i));
  out->append(b, 4);
}

void PutU64(std::uint64_t v, std::string* out) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
  out->append(b, 8);
}

void PutI64(std::int64_t v, std::string* out) {
  PutU64(static_cast<std::uint64_t>(v), out);
}

void PutF64(double v, std::string* out) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits, out);
}

void PutPoint(const Point& p, std::string* out) {
  PutU8(static_cast<std::uint8_t>(p.dim()), out);
  for (int i = 0; i < p.dim(); ++i) PutF64(p[i], out);
}

void PutUvarint(std::uint64_t v, std::string* out) {
  char b[10];
  std::size_t n = 0;
  while (v >= 0x80) {
    b[n++] = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  b[n++] = static_cast<char>(v);
  out->append(b, n);
}

void PutString(const std::string& s, std::string* out) {
  const std::size_t n = std::min<std::size_t>(s.size(), 0xFFFF);
  PutU16(static_cast<std::uint16_t>(n), out);
  out->append(s.data(), n);
}

std::size_t RecordSpanMaxBytes(std::size_t count, int dim) {
  return 1 + 8 + 8 + count * (10 + 10 + static_cast<std::size_t>(dim) * 8);
}

void RecordSpanEncoder::Add(RecordId id, const Point& position,
                            Timestamp arrival) {
  if (count_ == 0) {
    dim_ = position.dim();
    PutU8(static_cast<std::uint8_t>(dim_), out_);
    PutU64(id, out_);
    PutI64(arrival, out_);
    prev_id_ = id;
    prev_arrival_ = arrival;
  }
  PutUvarint(id - prev_id_, out_);
  PutUvarint(static_cast<std::uint64_t>(arrival - prev_arrival_), out_);
#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  out_->append(reinterpret_cast<const char*>(position.data()),
               static_cast<std::size_t>(dim_) * 8);
#else
  for (int d = 0; d < dim_; ++d) PutF64(position[d], out_);
#endif
  prev_id_ = id;
  prev_arrival_ = arrival;
  ++count_;
}

void PutRecordSpan(const Record* records, std::size_t count,
                   std::string* out) {
  RecordSpanEncoder span(out);
  for (std::size_t i = 0; i < count; ++i) {
    span.Add(records[i].id, records[i].position, records[i].arrival);
  }
}

namespace {

// Scoring-function family tags (wire values; see docs/JOURNAL_FORMAT.md
// and docs/PROTOCOL.md — both formats share this encoding).
constexpr std::uint8_t kFnLinear = 1;
constexpr std::uint8_t kFnProduct = 2;
constexpr std::uint8_t kFnSumOfSquares = 3;
constexpr std::uint8_t kFnPiecewise = 4;  // journal format v2 / protocol v4

}  // namespace

Status PutFunction(const ScoringFunction& fn, std::string* out) {
  if (const auto* linear = dynamic_cast<const LinearFunction*>(&fn)) {
    PutU8(kFnLinear, out);
    PutU8(static_cast<std::uint8_t>(linear->dim()), out);
    for (double w : linear->weights()) PutF64(w, out);
    PutF64(linear->bias(), out);
    return Status::Ok();
  }
  if (const auto* product = dynamic_cast<const ProductFunction*>(&fn)) {
    PutU8(kFnProduct, out);
    PutU8(static_cast<std::uint8_t>(product->dim()), out);
    for (double a : product->offsets()) PutF64(a, out);
    return Status::Ok();
  }
  if (const auto* squares = dynamic_cast<const SumOfSquaresFunction*>(&fn)) {
    PutU8(kFnSumOfSquares, out);
    PutU8(static_cast<std::uint8_t>(squares->dim()), out);
    for (double a : squares->coeffs()) PutF64(a, out);
    return Status::Ok();
  }
  if (const auto* piecewise = dynamic_cast<const PiecewiseFunction*>(&fn)) {
    PutU8(kFnPiecewise, out);
    PutU8(static_cast<std::uint8_t>(piecewise->dim()), out);
    PutU8(static_cast<std::uint8_t>(piecewise->pieces().size()), out);
    for (const MonotonePiece& piece : piecewise->pieces()) {
      PutPoint(piece.domain.lo(), out);
      PutPoint(piece.domain.hi(), out);
      // PiecewiseFunction::Create bans nested pieces, so this recursion
      // is one level deep and the inner call cannot hit this branch.
      TOPKMON_RETURN_IF_ERROR(PutFunction(*piece.function, out));
    }
    return Status::Ok();
  }
  return Status::Unimplemented(
      "scoring function '" + fn.ToString() +
      "' has no wire encoding (only the linear / product / "
      "sum-of-squares / piecewise families are encodable)");
}

Status PutQuerySpec(const QuerySpec& spec, std::string* out) {
  PutU32(spec.id, out);
  PutU32(static_cast<std::uint32_t>(spec.k), out);
  if (spec.function == nullptr) {
    return Status::InvalidArgument("query spec has no scoring function");
  }
  TOPKMON_RETURN_IF_ERROR(PutFunction(*spec.function, out));
  PutU8(spec.constraint.has_value() ? 1 : 0, out);
  if (spec.constraint.has_value()) {
    PutPoint(spec.constraint->lo(), out);
    PutPoint(spec.constraint->hi(), out);
  }
  return Status::Ok();
}

double ByteReader::GetF64() {
  const std::uint64_t bits = GetU64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Point ByteReader::GetPoint() {
  const int dim = GetU8();
  if (dim < 1 || dim > kMaxDims) {
    ok_ = false;
    return Point();
  }
  Point p(dim);
  for (int i = 0; i < dim; ++i) p[i] = GetF64();
  return p;
}

// Not built on RecordSpanReader: emplacing each record straight into the
// vector measured faster on the copying decode (bench_ingest_path's
// decode-copying row) than decoding into a Record and copying it in.
Status GetRecordSpan(ByteReader& in, std::uint64_t count,
                     std::vector<Record>* out) {
  const int dim = in.GetU8();
  if (!in.ok() || dim < 1 || dim > kMaxDims) {
    return Status::InvalidArgument("bad record-span dimensionality");
  }
  // Each entry is at least 2 varint bytes + dim coordinates.
  const std::size_t min_entry = 2 + static_cast<std::size_t>(dim) * 8;
  if (count > in.remaining() / min_entry + 1) {
    return Status::InvalidArgument("record count exceeds body size");
  }
  RecordId prev_id = in.GetU64();
  Timestamp prev_arrival = in.GetI64();
  out->reserve(out->size() + count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t id_delta = in.GetUvarint();
    const std::uint64_t arrival_delta = in.GetUvarint();
    if (i > 0 && id_delta == 0) {
      return Status::InvalidArgument("non-increasing record id in span");
    }
    Point p(dim);
    for (int d = 0; d < dim; ++d) p[d] = in.GetF64();
    if (!in.ok()) return Status::InvalidArgument("truncated record span");
    prev_id += id_delta;
    // Unsigned accumulation: deltas are attacker-controlled when this
    // decodes network bytes, and signed overflow would be UB. Wraparound
    // is well-defined here; semantic bounds are the caller's policy
    // (the TCP server range-checks arrivals before admitting tuples).
    prev_arrival = static_cast<Timestamp>(
        static_cast<std::uint64_t>(prev_arrival) + arrival_delta);
    out->emplace_back(prev_id, std::move(p), prev_arrival);
  }
  return Status::Ok();
}

Status RecordSpanReader::Open(std::uint64_t count) {
  dim_ = in_.GetU8();
  if (!in_.ok() || dim_ < 1 || dim_ > kMaxDims) {
    return Status::InvalidArgument("bad record-span dimensionality");
  }
  // Each entry is at least 2 varint bytes + dim coordinates.
  const std::size_t min_entry = 2 + static_cast<std::size_t>(dim_) * 8;
  if (count > in_.remaining() / min_entry + 1) {
    return Status::InvalidArgument("record count exceeds body size");
  }
  prev_id_ = in_.GetU64();
  prev_arrival_ = in_.GetI64();
  first_ = true;
  return Status::Ok();
}

Status RecordSpanReader::Read(Record* out, std::size_t n) {
  // Locals, not members, in the loop: stores into `out` could alias
  // members of the same type and force a reload per record.
  ByteReader& in = in_;
  const int dim = dim_;
  RecordId prev_id = prev_id_;
  Timestamp prev_arrival = prev_arrival_;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t id_delta = in.GetUvarint();
    const std::uint64_t arrival_delta = in.GetUvarint();
    if (!first_ && id_delta == 0) {
      return Status::InvalidArgument("non-increasing record id in span");
    }
    first_ = false;
    Record& rec = out[i];
    rec.position = Point(dim);
    for (int d = 0; d < dim; ++d) rec.position[d] = in.GetF64();
    if (!in.ok()) return Status::InvalidArgument("truncated record span");
    prev_id += id_delta;
    // Unsigned accumulation: see GetRecordSpan.
    prev_arrival = static_cast<Timestamp>(
        static_cast<std::uint64_t>(prev_arrival) + arrival_delta);
    rec.id = prev_id;
    rec.arrival = prev_arrival;
  }
  prev_id_ = prev_id;
  prev_arrival_ = prev_arrival;
  return Status::Ok();
}

namespace {

/// Reads the `dim` raw f64 coefficients shared by the linear / product /
/// sum-of-squares payloads.
Status GetCoefficients(ByteReader& in, int dim, std::vector<double>* out) {
  out->resize(static_cast<std::size_t>(dim));
  for (double& c : *out) c = in.GetF64();
  if (!in.ok()) {
    return Status::InvalidArgument("truncated scoring function");
  }
  return Status::Ok();
}

/// `allow_piecewise` is false for the inner slots of a piecewise payload:
/// the family tag is rejected BEFORE any recursive parse, so hostile
/// bytes can nest at most one level deep no matter what follows the tag
/// (a post-parse check would let a piecewise-in-piecewise chain recurse
/// once per ~21 input bytes and overflow the stack on a 16MB frame).
Status GetFunctionImpl(ByteReader& in,
                       std::shared_ptr<const ScoringFunction>* out,
                       bool allow_piecewise) {
  const std::uint8_t family = in.GetU8();
  const int dim = in.GetU8();
  if (!in.ok() || dim < 1 || dim > kMaxDims) {
    return Status::InvalidArgument("malformed scoring function header");
  }
  if (family == kFnPiecewise && !allow_piecewise) {
    // Also a dialect violation: the encoder never emits a nested
    // piecewise function.
    return Status::InvalidArgument("nested piecewise function");
  }
  std::vector<double> coeffs;
  switch (family) {
    case kFnLinear: {
      TOPKMON_RETURN_IF_ERROR(GetCoefficients(in, dim, &coeffs));
      const double bias = in.GetF64();
      if (!in.ok()) {
        return Status::InvalidArgument("truncated linear function bias");
      }
      *out = std::make_shared<LinearFunction>(std::move(coeffs), bias);
      return Status::Ok();
    }
    case kFnProduct:
      TOPKMON_RETURN_IF_ERROR(GetCoefficients(in, dim, &coeffs));
      *out = std::make_shared<ProductFunction>(std::move(coeffs));
      return Status::Ok();
    case kFnSumOfSquares:
      TOPKMON_RETURN_IF_ERROR(GetCoefficients(in, dim, &coeffs));
      *out = std::make_shared<SumOfSquaresFunction>(std::move(coeffs));
      return Status::Ok();
    case kFnPiecewise: {
      const int count = in.GetU8();
      if (!in.ok() || count < 1) {
        return Status::InvalidArgument("bad piecewise piece count");
      }
      std::vector<MonotonePiece> pieces;
      pieces.reserve(static_cast<std::size_t>(count));
      for (int i = 0; i < count; ++i) {
        const Point lo = in.GetPoint();
        const Point hi = in.GetPoint();
        if (!in.ok() || lo.dim() != dim || hi.dim() != dim) {
          return Status::InvalidArgument("malformed piecewise domain");
        }
        for (int d = 0; d < dim; ++d) {
          if (lo[d] > hi[d]) {
            return Status::InvalidArgument("inverted piecewise domain");
          }
        }
        std::shared_ptr<const ScoringFunction> inner;
        TOPKMON_RETURN_IF_ERROR(
            GetFunctionImpl(in, &inner, /*allow_piecewise=*/false));
        pieces.push_back(MonotonePiece{Rect(lo, hi), std::move(inner)});
      }
      auto built = PiecewiseFunction::Create(std::move(pieces));
      if (!built.ok()) {
        return Status::InvalidArgument("malformed piecewise function: " +
                                       built.status().message());
      }
      *out = std::move(built).value();
      return Status::Ok();
    }
    default:
      return Status::InvalidArgument("unknown scoring-function family tag " +
                                     std::to_string(family));
  }
}

}  // namespace

Status GetFunction(ByteReader& in,
                   std::shared_ptr<const ScoringFunction>* out) {
  return GetFunctionImpl(in, out, /*allow_piecewise=*/true);
}

Status GetQuerySpec(ByteReader& in, QuerySpec* out) {
  out->id = in.GetU32();
  out->k = static_cast<int>(in.GetU32());
  TOPKMON_RETURN_IF_ERROR(GetFunction(in, &out->function));
  const std::uint8_t has_constraint = in.GetU8();
  if (has_constraint == 1) {
    const Point lo = in.GetPoint();
    const Point hi = in.GetPoint();
    if (!in.ok() || lo.dim() != hi.dim()) {
      return Status::InvalidArgument("malformed constraint rectangle");
    }
    for (int i = 0; i < lo.dim(); ++i) {
      if (lo[i] > hi[i]) {
        return Status::InvalidArgument("inverted constraint rectangle");
      }
    }
    out->constraint = Rect(lo, hi);
  } else if (has_constraint != 0) {
    return Status::InvalidArgument("bad constraint presence byte");
  }
  if (!in.ok()) return Status::InvalidArgument("truncated query spec");
  return Status::Ok();
}

namespace {

// ---- CRC-32C (Castagnoli, reflected) ----------------------------------
//
// Every framed byte is checksummed on the cycle-append and ingest hot
// paths, so the implementation matters: the SSE4.2 crc32 instruction
// where the CPU has it, slicing-by-8 tables (8 input bytes folded per
// iteration) otherwise.

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

void PutFramePrologue(std::uint32_t body_len, std::uint32_t crc, char* at) {
  for (int i = 0; i < 4; ++i) {
    at[i] = static_cast<char>(body_len >> (8 * i));
    at[4 + i] = static_cast<char>(crc >> (8 * i));
  }
}

void SealFrame(std::size_t at, std::string* buf) {
  const std::size_t body_at = at + kFrameHeaderBytes;
  const std::size_t body_len = buf->size() - body_at;
  PutFramePrologue(static_cast<std::uint32_t>(body_len),
                   Crc32(buf->data() + body_at, body_len), &(*buf)[at]);
}

void PutFrame(const std::string& body, std::string* out) {
  const std::size_t at = out->size();
  out->append(kFrameHeaderBytes, '\0');
  out->append(body);
  SealFrame(at, out);
}

FrameParse TryParseFrame(const char* data, std::size_t n,
                         std::size_t max_body, const char** body,
                         std::size_t* body_len, std::size_t* consumed,
                         Status* error) {
  if (n < kFrameHeaderBytes) return FrameParse::kNeedMore;
  ByteReader in(data, n);
  const std::uint32_t len = in.GetU32();
  const std::uint32_t crc = in.GetU32();
  if (len == 0 || len > max_body) {
    *error = Status::InvalidArgument(
        "frame length " + std::to_string(len) + " is outside [1, " +
        std::to_string(max_body) + "]");
    return FrameParse::kBad;
  }
  if (n - kFrameHeaderBytes < len) return FrameParse::kNeedMore;
  const char* payload = data + kFrameHeaderBytes;
  const std::uint32_t actual = Crc32(payload, len);
  if (actual != crc) {
    *error = Status::InvalidArgument(
        "frame CRC mismatch (stored " + std::to_string(crc) +
        ", computed " + std::to_string(actual) + ")");
    return FrameParse::kBad;
  }
  *body = payload;
  *body_len = len;
  *consumed = kFrameHeaderBytes + len;
  return FrameParse::kFrame;
}

}  // namespace wire
}  // namespace topkmon
