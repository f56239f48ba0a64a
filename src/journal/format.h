// On-disk format of the durable cycle journal.
//
// The journal is a write-ahead log of everything that mutates an engine:
// processing cycles (the arrival batches the driver applied), query
// registrations and terminations, and periodic snapshot records carrying
// an engine-ready image of the window so recovery never replays more than
// one segment. The byte-level layout is specified in
// docs/JOURNAL_FORMAT.md, which is kept in lockstep with this header (CI
// fails when kJournalFormatVersion diverges between the two).
//
// Layout summary (all integers little-endian, fixed width):
//   segment  := header frame*
//   header   := magic:u64 version:u32 reserved:u32
//   frame    := body_len:u32 crc32(body):u32 body
//   body     := type:u8 payload
// Every segment begins with a snapshot record, making each segment
// self-contained: recovery reads exactly one segment — the newest one
// whose leading snapshot is intact.

#ifndef TOPKMON_JOURNAL_FORMAT_H_
#define TOPKMON_JOURNAL_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/record.h"
#include "common/status.h"
#include "core/query.h"

namespace topkmon {

class MonitorEngine;

/// First eight bytes of every segment file: "TKMJRNL1" in file order.
inline constexpr std::uint64_t kJournalMagic = 0x314C4E524A4D4B54ull;

/// Version of the record encodings below. Bump on any incompatible layout
/// change and document the migration in docs/JOURNAL_FORMAT.md (CI checks
/// that the spec's version matches this constant).
///
/// v2: the piecewise-monotone scoring-function family (wire tag 4) became
/// journalable. Every v1 byte sequence is also valid v2, so this build
/// still reads v1 segments; v2 segments containing a piecewise register
/// record are refused by v1 builds (unknown family tag).
inline constexpr std::uint32_t kJournalFormatVersion = 2;

/// Bytes of the segment header (magic + version + reserved).
inline constexpr std::size_t kSegmentHeaderBytes = 16;

/// Bytes of a frame prologue (body_len + crc32).
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Upper bound on one frame body; a length prefix beyond this is treated
/// as corruption rather than an allocation request.
inline constexpr std::uint32_t kMaxRecordBytes = 1u << 30;

/// Frame body type tags.
enum class JournalRecordType : std::uint8_t {
  kSnapshot = 1,    ///< engine-ready window + live query set (segment anchor)
  kCycle = 2,       ///< one processing cycle: timestamp + arrival batch
  kRegister = 3,    ///< query registration (spec + owning session label)
  kUnregister = 4,  ///< query termination
};

/// A registered query as journaled: the full spec plus the diagnostic
/// label of the session that owns it, so recovery can rebuild per-client
/// session ownership.
struct JournaledQuery {
  QuerySpec spec;
  std::string owner_label;
};

/// Snapshot payload: everything needed to rebuild a fresh engine (and the
/// service-level id allocators) without reading older segments.
struct JournalSnapshot {
  Timestamp last_cycle_ts = 0;     ///< timestamp of the last applied cycle
  RecordId next_record_id = 0;     ///< next id the ingest path will assign
  std::uint64_t next_query_id = 1; ///< next id the service will assign
  std::vector<Record> window;      ///< valid records in arrival (id) order
  std::vector<JournaledQuery> live_queries;  ///< in registration order
};

/// A snapshot taken from live state instead of a copy of it: the
/// service's id allocators and query set, plus the engine whose last
/// cycle and window are encoded straight from its own storage
/// (MonitorEngine::VisitWindow). It encodes to the bytes of the
/// JournalSnapshot that holds the engine's SnapshotState(). It refers to
/// the engine and the query set, so it is used while both are held still
/// (the service's engine lock).
struct SnapshotAnchor {
  const MonitorEngine& engine;
  RecordId next_record_id = 0;
  std::uint64_t next_query_id = 1;
  const std::vector<JournaledQuery>& live_queries;
};

/// One decoded journal record (tagged by `type`; only the matching member
/// is meaningful).
struct JournalRecord {
  JournalRecordType type = JournalRecordType::kCycle;
  Timestamp cycle_ts = 0;          ///< kCycle
  std::vector<Record> batch;       ///< kCycle
  JournaledQuery query;            ///< kRegister
  QueryId unregistered = 0;        ///< kUnregister
  JournalSnapshot snapshot;        ///< kSnapshot
};

/// CRC-32C (Castagnoli, reflected, polynomial 0x82F63B38) of `n` bytes,
/// continuing from `seed` (pass 0 to start). Uses the SSE4.2 crc32
/// instruction where available (every journaled byte is checksummed on
/// the cycle-append hot path); check value: Crc32("123456789") ==
/// 0xE3069283.
std::uint32_t Crc32(const void* data, std::size_t n, std::uint32_t seed = 0);

// ---- encoding ---------------------------------------------------------

/// Appends the 16-byte segment header to *out.
void EncodeSegmentHeader(std::string* out);

/// Appends a full frame (prologue + body) for the given record body.
void EncodeFrame(const std::string& body, std::string* out);

/// Fills in the prologue of the frame that starts at (*buf)[at]: a
/// kFrameHeaderBytes placeholder whose body is the rest of *buf. Lets a
/// writer encode a body in place behind its prologue instead of copying
/// it into a frame.
void SealFrame(std::size_t at, std::string* buf);

/// Body builders (type byte + payload). EncodeRegisterBody fails with
/// Unimplemented for scoring-function types the journal cannot encode
/// (the Linear / Product / SumOfSquares / Piecewise families are
/// journalable).
void EncodeCycleBody(Timestamp ts, RecordSpan batch, std::string* out);
Status EncodeRegisterBody(const JournaledQuery& query, std::string* out);
void EncodeUnregisterBody(QueryId id, std::string* out);
Status EncodeSnapshotBody(const JournalSnapshot& snapshot, std::string* out);
/// The snapshot body of `anchor`, its window encoded record by record as
/// the engine walks it. Fails with the engine's status when it cannot
/// walk its window (*out is then left as it was).
Status EncodeSnapshotBody(const SnapshotAnchor& anchor, std::string* out);

// ---- decoding ---------------------------------------------------------

/// Validates a segment header. InvalidArgument on bad magic,
/// Unimplemented on an unknown (newer) format version.
Status DecodeSegmentHeader(const char* data, std::size_t n);

/// Decodes one frame body (type byte + payload) into *out.
/// InvalidArgument on any malformed content (treated as corruption by the
/// reader; the CRC already vouched for bit-level integrity).
Status DecodeBody(const char* data, std::size_t n, JournalRecord* out);

/// Outcome of scanning an in-memory byte buffer for one journal frame.
/// The file-based CycleJournalReader is the recovery-time reader; this is
/// the streaming flavor the replication follower uses to apply frames as
/// their bytes arrive off the wire (a partial frame is kNeedMore — more
/// bytes are coming — not a torn tail).
enum class JournalFrameParse {
  kNeedMore,  ///< prefix of a valid frame; wait for more bytes
  kFrame,     ///< a complete, CRC-verified frame was extracted
  kBad,       ///< implausible length or CRC mismatch (corruption)
};

/// Tries to extract one frame from `data[0..n)`. On kFrame, *body /
/// *body_len reference the frame body inside `data` and *consumed is the
/// full frame size to discard (the body still needs DecodeBody). On kBad,
/// *detail describes the damage.
JournalFrameParse TryParseJournalFrame(const char* data, std::size_t n,
                                       const char** body,
                                       std::size_t* body_len,
                                       std::size_t* consumed,
                                       std::string* detail);

/// Segment file name for index `i`: "segment-000000000042.wal".
std::string SegmentFileName(std::uint64_t index);

/// Parses a segment file name; returns false for other files.
bool ParseSegmentFileName(const std::string& name, std::uint64_t* index);

}  // namespace topkmon

#endif  // TOPKMON_JOURNAL_FORMAT_H_
