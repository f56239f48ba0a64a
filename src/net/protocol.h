// Wire format of the binary TCP protocol in front of MonitorService.
//
// The protocol is a framed request/response dialog designed for batched
// ingest from day one: the ingest message reuses the journal's
// delta-compressed record-span encoding (src/journal/wire.h), so a batch
// of stream tuples costs ~2 + 8·dim bytes per tuple on the wire — the
// same bytes the server would journal. The byte-level layout is
// specified in docs/PROTOCOL.md, kept in lockstep with this header by CI
// (tools/check_docs.py fails when kNetProtocolVersion diverges).
//
// Layout summary (all integers little-endian, fixed width):
//   frame := body_len:u32 crc32c(body):u32 body   (wire.h's frame codec,
//            shared with the journal)
//   body  := type:u8 payload
// Each direction of a connection is a plain stream of frames; there is
// no stream-level header. Versioning rides in the Hello/Welcome exchange
// that must open every connection: the client's Hello carries a protocol
// magic + version, the server's Welcome answers with the session it
// bound. After the handshake the client sends one request frame at a
// time and reads exactly one response frame per request (the long-poll
// request blocks server-side until deltas arrive or the poll times out).
//
// Session model: Hello carries a client-chosen label. With the resume
// flag set, the server first tries to adopt the oldest open session with
// that label (MonitorService::FindSession) — the same label adoption the
// journal recovery path uses — so a reconnecting client keeps its
// session's queries and its gap-free, sequence-numbered delta buffer.
// Connections do NOT close their session on disconnect (that is what
// makes resume work); an explicit Close request with the close-session
// flag releases it.

#ifndef TOPKMON_NET_PROTOCOL_H_
#define TOPKMON_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/record.h"
#include "common/status.h"
#include "core/query.h"
#include "service/subscription_hub.h"

namespace topkmon {

/// First four bytes of every Hello payload: "TKMP" in wire order.
inline constexpr std::uint32_t kNetMagic = 0x504D4B54u;

/// Version of the message encodings below. Bump on any incompatible
/// layout change and document the migration in docs/PROTOCOL.md (CI
/// checks that the spec's version matches this constant).
///
/// v2: Welcome carries the server's role (leader/follower), SnapshotResult
/// carries the as-of cycle timestamp and a staleness bound, and the
/// replication (ReplFetch/ReplChunk) and batched-registration
/// (RegisterBatch/RegisterBatchAck) messages were added — see
/// docs/REPLICATION.md.
///
/// v3: IngestAck carries a trailing queue_hint byte — the server's
/// backpressure signal (0 healthy, 1..255 = ingest-queue fullness past
/// the high-water mark) — and the RESOURCE_EXHAUSTED status code (wire
/// value 8) was added for queue-full refusals, which no longer block
/// the server's poll loop. See docs/OPERATIONS.md for producer pacing.
///
/// v4 (the cluster tier, docs/CLUSTER.md): Welcome carries a trailing
/// server_tag (the operator-assigned partition index, kNoServerTag when
/// unset) so a router can verify it dialed the partition it meant;
/// Deltas carries a leading as_of timestamp — the answering engine's
/// applied-cycle frontier sampled BEFORE the delta buffer was drained —
/// plus a truncated flag (events remained buffered after the answer was
/// cut at the poll's cap), which together are what let a delta
/// multiplexer merge N per-partition streams without gaps without
/// guessing the server's cap; the UNAVAILABLE status code (wire value
/// 9) was added
/// for requests routed to an unreachable partition; and the piecewise
/// scoring-function family (wire tag 4) became encodable in
/// Register/RegisterBatch specs.
///
/// v5 (automatic failover, docs/REPLICATION.md): Welcome, IngestAck and
/// ReplChunk carry a trailing fencing_epoch (u64) — the monotone lease
/// epoch of the answering server's replication group — so clients and
/// the cluster router can detect a deposed leader the moment it answers;
/// the FENCED status code (wire value 10) was added for writes refused
/// by a server whose lease lapsed or that observed a higher epoch; and
/// the Status/StatusInfo message pair (types 20/21) was added so
/// followers can poll each other's role, epoch, fenced latch and
/// applied-journal position during a leader election.
///
/// v4 compatibility (rolling upgrades): the trailing fencing_epoch is
/// the ONLY layout difference between v4 and v5 bodies, so the decoder
/// accepts those three messages with the field absent (defaulting to
/// epoch 0) and the server accepts Hello version 4, answering that
/// connection with v4-shaped bodies (encoders take the negotiated
/// wire_version). Upgrade a replication group leader-first: a v5 leader
/// serves v4 followers until each is restarted on v5.
inline constexpr std::uint32_t kNetProtocolVersion = 5;

/// Oldest protocol version a v5 server still speaks (see above).
inline constexpr std::uint32_t kMinNetProtocolVersion = 4;

/// Welcome server_tag value meaning "no tag configured" (a standalone,
/// un-clustered server).
inline constexpr std::uint32_t kNoServerTag = 0xFFFFFFFFu;

/// Upper bound on one frame body (wire::TryParseFrame's max_body); a
/// length prefix beyond this is treated as a protocol violation rather
/// than an allocation request.
inline constexpr std::uint32_t kMaxNetFrameBytes = 1u << 24;

/// Admissible arrival-timestamp range for wire ingest. Timestamps are
/// client-supplied, and the service's reordering frontier is shared
/// state: an absurd arrival (say INT64_MAX) would drag the frontier
/// forward for *every* session and overflow slack arithmetic. The
/// server rejects out-of-range tuples per record (OutOfRange in the
/// IngestAck) instead of admitting them.
inline constexpr Timestamp kMaxWireArrival = Timestamp{1} << 62;

/// Frame body type tags. Odd half: client -> server requests; the server
/// answers every request with exactly one response frame (the matching
/// ack type, or kError).
enum class NetMessageType : std::uint8_t {
  kHello = 1,         ///< open/resume a session (magic, version, label)
  kWelcome = 2,       ///< session bound (id, resumed flag)
  kIngest = 3,        ///< batched tuples (record-span encoded)
  kIngestAck = 4,     ///< per-batch accept/reject counts + first error
  kRegister = 5,      ///< register a continuous query (spec, id ignored)
  kRegisterAck = 6,   ///< the service-assigned query id
  kUnregister = 7,    ///< terminate a query
  kUnregisterAck = 8,
  kSnapshot = 9,      ///< read a query's current top-k
  kSnapshotResult = 10,
  kPoll = 11,         ///< long-poll the session's delta subscription
  kDeltas = 12,       ///< sequence-numbered delta events (may be empty)
  kClose = 13,        ///< end the dialog (optionally closing the session)
  kCloseAck = 14,
  kError = 15,        ///< request failed: status code + message
  kRegisterBatch = 16,     ///< register N queries in one frame
  kRegisterBatchAck = 17,  ///< per-query outcome (status + assigned id)
  kReplFetch = 18,    ///< replication: journal bytes at (segment, offset)
  kReplChunk = 19,    ///< raw journal bytes + shipping metadata
  kStatus = 20,       ///< v5: poll the server's role/epoch/progress
  kStatusInfo = 21,   ///< v5: role, fencing epoch, applied frontier,
                      ///< journal write position
};

/// Maximum queries in one RegisterBatch (bounds the work a single frame
/// can demand of the control plane).
inline constexpr std::uint32_t kMaxRegisterBatch = 1024;

/// Server-side clamp on bytes returned per ReplChunk.
inline constexpr std::uint32_t kMaxReplChunkBytes = 1u << 20;

/// One query's outcome inside a RegisterBatchAck.
struct RegisterOutcome {
  StatusCode code = StatusCode::kOk;
  QueryId query = 0;    ///< service-assigned id; valid iff code == kOk
  std::string message;  ///< refusal detail; empty on success
};

/// One decoded protocol message (tagged by `type`; only the members of
/// the matching message are meaningful — mirrors JournalRecord).
struct NetMessage {
  NetMessageType type = NetMessageType::kError;

  // kHello
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  bool resume = false;
  std::string label;

  // kWelcome
  SessionId session = 0;
  bool resumed = false;
  std::uint8_t role = 0;  ///< 0 leader, 1 read-only follower
  /// v4: operator-assigned identity of the answering server (the cluster
  /// partition index); kNoServerTag on a standalone server.
  std::uint32_t server_tag = kNoServerTag;

  // kIngest (record ids are a synthetic 0..n-1 ramp — the service
  // assigns real ids at admission; arrivals must be non-decreasing).
  std::vector<Record> tuples;

  // kIngestAck
  std::uint32_t accepted = 0;
  std::uint32_t rejected = 0;
  /// Backpressure hint (v3): 0 while the server's ingest queue is below
  /// its high-water mark, else fullness scaled into 1..255. Producers
  /// should self-pace when it rises (see docs/OPERATIONS.md).
  std::uint8_t queue_hint = 0;

  // kIngestAck (first rejection) and kError.
  StatusCode code = StatusCode::kOk;
  std::string message;

  // kRegister
  QuerySpec spec;

  // kRegisterAck / kUnregister / kSnapshot
  QueryId query = 0;

  // kSnapshotResult and kDeltas (v4). as_of is the timestamp of the last
  // cycle applied to the answering engine — for kDeltas, sampled before
  // the delta buffer was drained, so every event up to that frontier is
  // either in this answer or was delivered earlier; stale_by bounds how
  // far the engine lags the leader (always 0 from a leader).
  std::vector<ResultEntry> entries;
  Timestamp as_of = 0;
  Timestamp stale_by = 0;

  // kPoll
  std::uint32_t max_events = 0;
  std::uint32_t timeout_ms = 0;

  // kDeltas
  std::vector<DeltaEvent> events;
  /// v4: the answer was cut at the poll's effective cap with events
  /// still buffered server-side — the frontier must not advance past
  /// the last delivered event (see DeltaMultiplexer).
  bool truncated = false;

  // kClose
  bool close_session = false;

  // kRegisterBatch / kRegisterBatchAck
  std::vector<QuerySpec> specs;
  std::vector<RegisterOutcome> outcomes;

  // kReplFetch (segment/offset name the next unshipped journal byte;
  // max_bytes caps the reply; timeout_ms is the long-poll wait when the
  // journal has nothing new) and kReplChunk (raw journal-file bytes of
  // `segment` starting at `offset`; `sealed` marks the segment complete
  // with `next_segment` following it; `restart` means the requested
  // segment is gone — wipe and re-ship from `next_segment`;
  // leader_cycle_ts is the leader's apply progress for lag accounting).
  std::uint64_t segment = 0;
  std::uint64_t offset = 0;
  std::uint32_t max_bytes = 0;
  bool sealed = false;
  bool restart = false;
  std::uint64_t next_segment = 0;
  Timestamp leader_cycle_ts = 0;
  std::string data;

  // kWelcome / kIngestAck / kReplChunk / kStatusInfo (v5): the fencing
  // epoch of the answering server's replication group. Monotone across
  // failovers; a client that has seen epoch E treats any server
  // answering with a lower epoch as deposed. 0 on servers that never
  // enabled leases — and on v4 peers, whose bodies simply end before
  // the field (the decoder accepts both shapes).
  std::uint64_t fencing_epoch = 0;

  // kStatusInfo (v5) additionally reuses `role` (0 leader, 1 follower),
  // `as_of` (the applied-cycle frontier) and `segment`/`offset` (the
  // journal write position: on a leader the next unwritten byte, on a
  // follower the next unapplied shipped byte) — the election inputs.
  /// kStatusInfo (v5): the answering server's fenced latch. A fenced
  /// leader still reports role 0 (it never demotes in place), so this
  /// is what lets electing followers and the cluster router skip a
  /// deposed leader instead of adopting it.
  bool fenced = false;
};

// ---- status codes on the wire -----------------------------------------

/// Stable wire value of a StatusCode (the enum's numeric values are an
/// internal detail; the wire contract is pinned here and in the spec).
std::uint8_t NetEncodeStatusCode(StatusCode code);

/// Inverse of NetEncodeStatusCode; unknown values map to kInternal.
StatusCode NetDecodeStatusCode(std::uint8_t wire);

// ---- encoding (append one message body to *out) -----------------------

void EncodeHello(bool resume, const std::string& label, std::string* out);
/// `wire_version` is the version negotiated in the Hello/Welcome
/// exchange (the server echoes the client's accepted version): bodies
/// encoded for a v4 peer omit the trailing fencing_epoch.
void EncodeWelcome(SessionId session, bool resumed, std::uint8_t role,
                   std::uint32_t server_tag, std::uint64_t fencing_epoch,
                   std::uint32_t wire_version, std::string* out);
/// Requires tuples non-empty with uniform dimensionality, strictly
/// increasing ids and non-decreasing arrivals (use a 0..n-1 id ramp over
/// an arrival-sorted batch — see MonitorClient::Ingest).
void EncodeIngest(const std::vector<Record>& tuples, std::string* out);
void EncodeIngestAck(std::uint32_t accepted, std::uint32_t rejected,
                     const Status& first_error, std::uint8_t queue_hint,
                     std::uint64_t fencing_epoch,
                     std::uint32_t wire_version, std::string* out);
/// Fails with Unimplemented for scoring-function families without a wire
/// encoding; *out is unchanged on failure.
Status EncodeRegister(const QuerySpec& spec, std::string* out);
void EncodeRegisterAck(QueryId query, std::string* out);
void EncodeUnregister(QueryId query, std::string* out);
void EncodeUnregisterAck(std::string* out);
void EncodeSnapshotRequest(QueryId query, std::string* out);
void EncodeSnapshotResult(const std::vector<ResultEntry>& entries,
                          Timestamp as_of, Timestamp stale_by,
                          std::string* out);
void EncodePoll(std::uint32_t max_events, std::uint32_t timeout_ms,
                std::string* out);
/// `as_of` must be sampled from the answering engine BEFORE the events
/// were drained from the subscription buffer (see the NetMessage field
/// comment — the ordering is what makes the frontier trustworthy).
/// `truncated` must be true when events remained buffered after the
/// drain (the answer hit the poll's effective cap).
void EncodeDeltas(const std::vector<DeltaEvent>& events, Timestamp as_of,
                  bool truncated, std::string* out);
void EncodeClose(bool close_session, std::string* out);
void EncodeCloseAck(std::string* out);
void EncodeError(const Status& status, std::string* out);
/// Fails with Unimplemented when any spec's scoring function has no wire
/// encoding, or InvalidArgument on an empty/oversized batch; *out is
/// unchanged on failure.
Status EncodeRegisterBatch(const std::vector<QuerySpec>& specs,
                           std::string* out);
void EncodeRegisterBatchAck(const std::vector<RegisterOutcome>& outcomes,
                            std::string* out);
void EncodeReplFetch(std::uint64_t segment, std::uint64_t offset,
                     std::uint32_t max_bytes, std::uint32_t wait_ms,
                     std::string* out);
void EncodeReplChunk(std::uint64_t segment, std::uint64_t offset,
                     bool sealed, bool restart, std::uint64_t next_segment,
                     Timestamp leader_cycle_ts, const std::string& data,
                     std::uint64_t fencing_epoch,
                     std::uint32_t wire_version, std::string* out);
void EncodeStatusRequest(std::string* out);
void EncodeStatusInfo(std::uint8_t role, std::uint64_t fencing_epoch,
                      Timestamp applied_cycle_ts, std::uint64_t segment,
                      std::uint64_t offset, bool fenced, std::string* out);

// ---- decoding ---------------------------------------------------------

/// Decodes one frame body into *out. InvalidArgument on any malformed
/// content; the frame CRC already vouched for bit-level integrity, so a
/// decode failure is a peer speaking a different dialect, not line noise.
Status DecodeNetBody(const char* data, std::size_t n, NetMessage* out);

/// The message type tag of a frame body (its first byte), or kError for
/// an empty body. Lets the server route kIngest frames to the block
/// decoder without a full DecodeNetBody pass.
inline NetMessageType PeekNetMessageType(const char* data, std::size_t n) {
  if (n == 0) return NetMessageType::kError;
  return static_cast<NetMessageType>(static_cast<std::uint8_t>(data[0]));
}

/// Records a kIngest body is decoded into at a time (DecodeIngestBody):
/// however many records a frame declares, a decode block never holds
/// more than this.
inline constexpr std::size_t kIngestBlockRecords = 4096;

/// One decoded block of a kIngest body, in frame order. Validation
/// happens exactly once, at decode: dimensionality + unit-space
/// containment (ValidatePoint) and the wire arrival range. Indices into
/// `records` of records failing it are listed in `invalid` (ascending;
/// normally empty, so no allocation) with the first refusal in
/// `first_invalid`. A caller keeps one view (the TCP server keeps one
/// per poll loop) and passes it to every decode, so its storage is
/// reused frame after frame and stays within kIngestBlockRecords
/// records.
struct IngestFrameView {
  std::vector<Record> records;
  std::size_t frame_records = 0;  ///< records in the whole frame
  std::vector<std::uint32_t> invalid;
  Status first_invalid;
};

/// Decodes a kIngest body into `view`, at most kIngestBlockRecords
/// records at a time, and calls `sink` after each block, in frame
/// order; `sink` returns false to stop (the rest of the frame is not
/// decoded). A malformed body returns InvalidArgument before `sink`
/// sees any block: a body of more than one block is decoded once in
/// full without calling `sink` first, so refusal is all or nothing.
/// `dim` is the engine dimensionality records are validated against.
Status DecodeIngestBody(
    const char* data, std::size_t n, int dim, IngestFrameView* view,
    const std::function<bool(const IngestFrameView&)>& sink);

}  // namespace topkmon

#endif  // TOPKMON_NET_PROTOCOL_H_
