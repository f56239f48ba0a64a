// Wire-protocol unit tests: every message type round-trips through its
// encoder and DecodeNetBody, frames round-trip through EncodeNetFrame and
// TryParseNetFrame, and hostile inputs (truncation, bit flips, oversized
// lengths, lying counts) decode to clean errors, never crashes or
// over-allocations.

#include "net/protocol.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/scoring.h"
#include "journal/wire.h"
#include "tests/test_util.h"

namespace topkmon {
namespace {

/// Encodes `body` as a frame and re-extracts it, asserting a clean parse.
NetMessage RoundTrip(const std::string& body) {
  std::string stream;
  EncodeNetFrame(body, &stream);
  const char* parsed_body = nullptr;
  std::size_t body_len = 0;
  std::size_t consumed = 0;
  Status error;
  EXPECT_EQ(TryParseNetFrame(stream.data(), stream.size(), kMaxNetFrameBytes,
                             &parsed_body, &body_len, &consumed, &error),
            FrameParse::kFrame)
      << error;
  EXPECT_EQ(consumed, stream.size());
  NetMessage msg;
  const Status st = DecodeNetBody(parsed_body, body_len, &msg);
  EXPECT_TRUE(st.ok()) << st;
  return msg;
}

TEST(NetProtocolTest, HelloAndWelcomeRoundTrip) {
  std::string body;
  EncodeHello(true, "dashboard-7", &body);
  NetMessage hello = RoundTrip(body);
  EXPECT_EQ(hello.type, NetMessageType::kHello);
  EXPECT_EQ(hello.magic, kNetMagic);
  EXPECT_EQ(hello.version, kNetProtocolVersion);
  EXPECT_TRUE(hello.resume);
  EXPECT_EQ(hello.label, "dashboard-7");

  body.clear();
  EncodeWelcome(42, true, /*role=*/1, /*server_tag=*/7,
                /*fencing_epoch=*/3, kNetProtocolVersion, &body);
  NetMessage welcome = RoundTrip(body);
  EXPECT_EQ(welcome.type, NetMessageType::kWelcome);
  EXPECT_EQ(welcome.session, 42u);
  EXPECT_TRUE(welcome.resumed);
  EXPECT_EQ(welcome.role, 1);
  EXPECT_EQ(welcome.server_tag, 7u);
  EXPECT_EQ(welcome.fencing_epoch, 3u);

  // An untagged (standalone) server answers with the sentinel; a group
  // that never failed over carries epoch 0.
  body.clear();
  EncodeWelcome(43, false, /*role=*/0, kNoServerTag, /*fencing_epoch=*/0,
                kNetProtocolVersion, &body);
  NetMessage plain = RoundTrip(body);
  EXPECT_EQ(plain.server_tag, kNoServerTag);
  EXPECT_EQ(plain.fencing_epoch, 0u);
}

TEST(NetProtocolTest, V4ShapedRepliesDecodeWithEpochZero) {
  // A v4 connection gets replies without the trailing fencing epoch;
  // a v5 decoder accepts them and defaults the epoch to 0. The echoed
  // Welcome version carries the negotiated dialect.
  std::string body;
  EncodeWelcome(42, false, /*role=*/0, /*server_tag=*/7,
                /*fencing_epoch=*/99, /*wire_version=*/4, &body);
  NetMessage welcome = RoundTrip(body);
  EXPECT_EQ(welcome.version, 4u);
  EXPECT_EQ(welcome.fencing_epoch, 0u);  // not shipped at v4

  body.clear();
  EncodeIngestAck(5, 0, Status::Ok(), /*queue_hint=*/0,
                  /*fencing_epoch=*/99, /*wire_version=*/4, &body);
  NetMessage ack = RoundTrip(body);
  EXPECT_EQ(ack.accepted, 5u);
  EXPECT_EQ(ack.fencing_epoch, 0u);

  body.clear();
  EncodeReplChunk(/*segment=*/2, /*offset=*/64, /*sealed=*/false,
                  /*restart=*/false, /*next_segment=*/0,
                  /*leader_cycle_ts=*/123, "abc", /*fencing_epoch=*/99,
                  /*wire_version=*/4, &body);
  NetMessage chunk = RoundTrip(body);
  EXPECT_EQ(chunk.data, "abc");
  EXPECT_EQ(chunk.fencing_epoch, 0u);

  // A partial trailing epoch (1..7 bytes) is still malformed, not a
  // quietly truncated v4 body.
  body.clear();
  EncodeWelcome(42, false, 0, 7, 99, kNetProtocolVersion, &body);
  body.resize(body.size() - 3);
  NetMessage out;
  EXPECT_FALSE(DecodeNetBody(body.data(), body.size(), &out).ok());
}

TEST(NetProtocolTest, IngestBatchRoundTripsThroughTheSpanEncoding) {
  std::vector<Record> tuples;
  for (RecordId id = 0; id < 50; ++id) {
    tuples.emplace_back(id,
                        Point{0.01 * static_cast<double>(id), 0.5},
                        static_cast<Timestamp>(100 + id / 7));
  }
  std::string body;
  EncodeIngest(tuples, &body);
  // Span compactness: ~2 bytes of deltas + 16 coordinate bytes per tuple
  // after the span header — the design target for batched ingest.
  EXPECT_LT(body.size(), 1 + 4 + 17 + tuples.size() * 20);
  NetMessage msg = RoundTrip(body);
  ASSERT_EQ(msg.type, NetMessageType::kIngest);
  ASSERT_EQ(msg.tuples.size(), tuples.size());
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    EXPECT_EQ(msg.tuples[i].id, tuples[i].id);
    EXPECT_EQ(msg.tuples[i].arrival, tuples[i].arrival);
    EXPECT_EQ(msg.tuples[i].position[0], tuples[i].position[0]);
  }

  body.clear();
  EncodeIngestAck(48, 2,
                  Status::FailedPrecondition("session rate limit"),
                  /*queue_hint=*/0, /*fencing_epoch=*/0,
                  kNetProtocolVersion, &body);
  NetMessage ack = RoundTrip(body);
  EXPECT_EQ(ack.type, NetMessageType::kIngestAck);
  EXPECT_EQ(ack.accepted, 48u);
  EXPECT_EQ(ack.rejected, 2u);
  EXPECT_EQ(ack.code, StatusCode::kFailedPrecondition);
  EXPECT_EQ(ack.message, "session rate limit");
  EXPECT_EQ(ack.queue_hint, 0);
  EXPECT_EQ(ack.fencing_epoch, 0u);

  // The v3 backpressure byte roundtrips, including the saturated value;
  // the v5 fencing epoch rides along.
  body.clear();
  EncodeIngestAck(7, 9, Status::ResourceExhausted("ingest queue is full"),
                  /*queue_hint=*/255, /*fencing_epoch=*/12,
                  kNetProtocolVersion, &body);
  NetMessage pressured = RoundTrip(body);
  EXPECT_EQ(pressured.type, NetMessageType::kIngestAck);
  EXPECT_EQ(pressured.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(pressured.queue_hint, 255);
  EXPECT_EQ(pressured.fencing_epoch, 12u);

  // A FENCED refusal (v5) round-trips its dedicated wire status code.
  body.clear();
  EncodeIngestAck(0, 9, Status::Fenced("leader lease lapsed"),
                  /*queue_hint=*/0, /*fencing_epoch=*/13,
                  kNetProtocolVersion, &body);
  NetMessage fenced = RoundTrip(body);
  EXPECT_EQ(fenced.code, StatusCode::kFenced);
  EXPECT_EQ(fenced.fencing_epoch, 13u);
}

TEST(NetProtocolTest, StatusProbeRoundTripsRoleEpochAndJournalEnd) {
  std::string body;
  EncodeStatusRequest(&body);
  NetMessage request = RoundTrip(body);
  EXPECT_EQ(request.type, NetMessageType::kStatus);

  body.clear();
  EncodeStatusInfo(/*role=*/1, /*fencing_epoch=*/9,
                   /*applied_cycle_ts=*/777, /*segment=*/4,
                   /*offset=*/65536, /*fenced=*/false, &body);
  NetMessage info = RoundTrip(body);
  EXPECT_EQ(info.type, NetMessageType::kStatusInfo);
  EXPECT_EQ(info.role, 1);
  EXPECT_EQ(info.fencing_epoch, 9u);
  EXPECT_EQ(info.as_of, 777);
  EXPECT_EQ(info.segment, 4u);
  EXPECT_EQ(info.offset, 65536u);
  EXPECT_FALSE(info.fenced);

  // The fenced latch rides last: a deposed leader still reports role 0,
  // so the flag — not the role — is what probing followers trust.
  body.clear();
  EncodeStatusInfo(/*role=*/0, /*fencing_epoch=*/256,
                   /*applied_cycle_ts=*/777, /*segment=*/4,
                   /*offset=*/65536, /*fenced=*/true, &body);
  NetMessage deposed = RoundTrip(body);
  EXPECT_EQ(deposed.role, 0);
  EXPECT_TRUE(deposed.fenced);

  // Any value beyond 0/1 in the flag byte is a malformed body.
  std::string junk = body;
  junk.back() = 2;
  NetMessage out;
  EXPECT_FALSE(DecodeNetBody(junk.data(), junk.size(), &out).ok());
}

TEST(NetProtocolTest, RegisterRoundTripsSpecsIncludingConstraints) {
  QuerySpec spec;
  spec.id = 7;
  spec.k = 12;
  spec.function = std::make_shared<LinearFunction>(
      std::vector<double>{0.25, -0.5, 1.0}, 0.125);
  spec.constraint = Rect(Point{0.1, 0.2, 0.3}, Point{0.9, 0.8, 0.7});
  std::string body;
  TOPKMON_ASSERT_OK(EncodeRegister(spec, &body));
  NetMessage msg = RoundTrip(body);
  ASSERT_EQ(msg.type, NetMessageType::kRegister);
  EXPECT_EQ(msg.spec.id, 7u);
  EXPECT_EQ(msg.spec.k, 12);
  ASSERT_NE(msg.spec.function, nullptr);
  EXPECT_EQ(msg.spec.function->Score(Point{1.0, 1.0, 1.0}),
            spec.function->Score(Point{1.0, 1.0, 1.0}));
  ASSERT_TRUE(msg.spec.constraint.has_value());
  EXPECT_EQ(msg.spec.constraint->lo()[2], 0.3);

  body.clear();
  EncodeRegisterAck(31, &body);
  EXPECT_EQ(RoundTrip(body).query, 31u);
}

TEST(NetProtocolTest, SnapshotAndDeltasRoundTrip) {
  std::string body;
  EncodeSnapshotRequest(9, &body);
  EXPECT_EQ(RoundTrip(body).query, 9u);

  body.clear();
  EncodeSnapshotResult({{101, 0.75}, {88, 0.5}}, /*as_of=*/777,
                       /*stale_by=*/3, &body);
  NetMessage snap = RoundTrip(body);
  ASSERT_EQ(snap.entries.size(), 2u);
  EXPECT_EQ(snap.entries[0].id, 101u);
  EXPECT_EQ(snap.entries[1].score, 0.5);
  EXPECT_EQ(snap.as_of, 777);
  EXPECT_EQ(snap.stale_by, 3);

  std::vector<DeltaEvent> events(2);
  events[0].seq = 5;
  events[0].delta.query = 3;
  events[0].delta.when = 1234;
  events[0].delta.added = {{7, 0.9}};
  events[1].seq = 6;
  events[1].delta.query = 3;
  events[1].delta.when = 1235;
  events[1].delta.removed = {{7, 0.9}, {8, 0.1}};
  body.clear();
  EncodeDeltas(events, /*as_of=*/1235, /*truncated=*/false, &body);
  NetMessage deltas = RoundTrip(body);
  ASSERT_EQ(deltas.events.size(), 2u);
  EXPECT_EQ(deltas.events[0].seq, 5u);
  EXPECT_EQ(deltas.events[0].delta.added.size(), 1u);
  EXPECT_EQ(deltas.events[1].delta.removed[1].id, 8u);
  EXPECT_EQ(deltas.events[1].delta.when, 1235);
  EXPECT_EQ(deltas.as_of, 1235);
  EXPECT_FALSE(deltas.truncated);

  // The v4 truncated flag survives the wire; values past 1 are a
  // dialect violation, not silently truthy.
  body.clear();
  EncodeDeltas(events, /*as_of=*/1235, /*truncated=*/true, &body);
  EXPECT_TRUE(RoundTrip(body).truncated);
  body[1 + 8] = 2;  // the flag byte follows the type byte and as_of
  NetMessage bad;
  EXPECT_FALSE(DecodeNetBody(body.data(), body.size(), &bad).ok());
}

TEST(NetProtocolTest, PollCloseAndErrorRoundTrip) {
  std::string body;
  EncodePoll(256, 1500, &body);
  NetMessage poll = RoundTrip(body);
  EXPECT_EQ(poll.max_events, 256u);
  EXPECT_EQ(poll.timeout_ms, 1500u);

  body.clear();
  EncodeClose(true, &body);
  EXPECT_TRUE(RoundTrip(body).close_session);

  body.clear();
  EncodeError(Status::NotFound("no query 12"), &body);
  NetMessage err = RoundTrip(body);
  EXPECT_EQ(err.type, NetMessageType::kError);
  EXPECT_EQ(err.code, StatusCode::kNotFound);
  EXPECT_EQ(err.message, "no query 12");
}

TEST(NetProtocolTest, StatusCodesSurviveTheWire) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kUnimplemented,
        StatusCode::kInternal, StatusCode::kResourceExhausted,
        StatusCode::kUnavailable}) {
    EXPECT_EQ(NetDecodeStatusCode(NetEncodeStatusCode(code)), code);
  }
  EXPECT_EQ(NetDecodeStatusCode(255), StatusCode::kInternal);
}

TEST(NetFrameTest, PartialFramesAskForMoreBytes) {
  std::string body;
  EncodeHello(false, "x", &body);
  std::string stream;
  EncodeNetFrame(body, &stream);
  const char* out_body = nullptr;
  std::size_t body_len = 0;
  std::size_t consumed = 0;
  Status error;
  for (std::size_t n = 0; n < stream.size(); ++n) {
    EXPECT_EQ(TryParseNetFrame(stream.data(), n, kMaxNetFrameBytes,
                               &out_body, &body_len, &consumed, &error),
              FrameParse::kNeedMore)
        << "prefix length " << n;
  }
}

TEST(NetFrameTest, EveryBitFlipIsCaughtByTheCrc) {
  std::string body;
  EncodeRegisterAck(1234, &body);
  std::string pristine;
  EncodeNetFrame(body, &pristine);
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    std::string stream = pristine;
    stream[i] = static_cast<char>(stream[i] ^ 0x01);
    const char* out_body = nullptr;
    std::size_t body_len = 0;
    std::size_t consumed = 0;
    Status error;
    const FrameParse parse =
        TryParseNetFrame(stream.data(), stream.size(), kMaxNetFrameBytes,
                         &out_body, &body_len, &consumed, &error);
    // A flip in the length prefix may shrink the frame below the
    // available bytes (kNeedMore) or trip the size limit (kBad); any
    // flip that leaves a complete frame must fail the CRC — a damaged
    // frame is never decoded.
    if (parse == FrameParse::kFrame) {
      ADD_FAILURE() << "bit flip at byte " << i << " went undetected";
    }
  }
}

TEST(NetFrameTest, OversizedLengthPrefixIsRejectedNotAllocated) {
  std::string stream;
  // A length prefix of ~4 GiB: must be refused via the max_body bound
  // without ever waiting for (or allocating) that many bytes.
  const std::uint32_t huge = 0xFFFFFF00u;
  for (int i = 0; i < 4; ++i) {
    stream.push_back(static_cast<char>(huge >> (8 * i)));
  }
  stream.append(4, '\0');  // crc
  const char* body = nullptr;
  std::size_t body_len = 0;
  std::size_t consumed = 0;
  Status error;
  EXPECT_EQ(TryParseNetFrame(stream.data(), stream.size(), kMaxNetFrameBytes,
                             &body, &body_len, &consumed, &error),
            FrameParse::kBad);
  EXPECT_EQ(error.code(), StatusCode::kInvalidArgument);
}

TEST(NetProtocolTest, TruncatedBodiesDecodeToCleanErrors) {
  std::vector<std::string> bodies;
  bodies.emplace_back();
  EncodeHello(true, "client", &bodies.back());
  bodies.emplace_back();
  {
    std::vector<Record> tuples;
    for (RecordId id = 0; id < 5; ++id) {
      tuples.emplace_back(id, Point{0.5, 0.5}, 1);
    }
    EncodeIngest(tuples, &bodies.back());
  }
  bodies.emplace_back();
  {
    QuerySpec spec;
    spec.k = 3;
    spec.function =
        std::make_shared<LinearFunction>(std::vector<double>{1.0, 1.0}, 0.0);
    TOPKMON_ASSERT_OK(EncodeRegister(spec, &bodies.back()));
  }
  bodies.emplace_back();
  {
    std::vector<DeltaEvent> events(1);
    events[0].seq = 1;
    events[0].delta.added = {{1, 0.5}};
    EncodeDeltas(events, /*as_of=*/99, /*truncated=*/false, &bodies.back());
  }
  for (const std::string& body : bodies) {
    for (std::size_t n = 1; n < body.size(); ++n) {
      NetMessage msg;
      const Status st = DecodeNetBody(body.data(), n, &msg);
      EXPECT_FALSE(st.ok())
          << "truncating a " << body.size() << "-byte body to " << n
          << " bytes decoded anyway";
    }
    // Trailing garbage is a dialect mismatch, also refused.
    std::string padded = body + "x";
    NetMessage msg;
    EXPECT_FALSE(DecodeNetBody(padded.data(), padded.size(), &msg).ok());
  }
}

TEST(NetProtocolTest, LyingCountsCannotDriveAllocations) {
  // An ingest body promising 2^32-1 records in a handful of bytes.
  std::string body;
  body.push_back(static_cast<char>(NetMessageType::kIngest));
  for (int i = 0; i < 4; ++i) body.push_back(static_cast<char>(0xFF));
  body.push_back(2);  // dim
  body.append(20, '\0');
  NetMessage msg;
  EXPECT_FALSE(DecodeNetBody(body.data(), body.size(), &msg).ok());

  // A deltas body promising 100M events.
  body.clear();
  body.push_back(static_cast<char>(NetMessageType::kDeltas));
  body.append(8, '\0');  // as_of (v4)
  body.push_back(0);     // truncated flag (v4)
  const std::uint32_t count = 100000000;
  for (int i = 0; i < 4; ++i) {
    body.push_back(static_cast<char>(count >> (8 * i)));
  }
  body.append(8, '\0');
  EXPECT_FALSE(DecodeNetBody(body.data(), body.size(), &msg).ok());
}

TEST(NetProtocolTest, DeeplyNestedPiecewiseCannotOverflowTheStack) {
  // A Register body whose scoring function nests piecewise-inside-
  // piecewise ~200k levels deep (~21 bytes per level, well under the
  // 16 MiB frame cap). The decoder must reject the nested family tag
  // BEFORE recursing into it — a post-parse check would recurse once
  // per level and smash the stack long before the first rejection.
  std::string body;
  body.push_back(static_cast<char>(NetMessageType::kRegister));
  body.append(4, '\0');  // spec id
  body.append(4, '\0');  // k
  const auto put_f64 = [&](double) { body.append(8, '\0'); };
  for (int level = 0; level < 200000; ++level) {
    body.push_back(4);  // family: piecewise
    body.push_back(1);  // dim
    body.push_back(1);  // piece count
    body.push_back(1);  // lo point dim
    put_f64(0.0);
    body.push_back(1);  // hi point dim
    put_f64(1.0);
    // ... followed by the piece's inner function: the next level.
  }
  NetMessage msg;
  const Status st = DecodeNetBody(body.data(), body.size(), &msg);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("nested piecewise"), std::string::npos) << st;
}

TEST(NetProtocolTest, PiecewiseRefusedByCreateIsRefusedOnTheWire) {
  // Every piece parses on its own, but the second piece's function is
  // 3-d while the first one's is 2-d: only PiecewiseFunction::Create sees
  // the disagreement, and the decoder must pass its refusal on.
  std::string body;
  body.push_back(static_cast<char>(NetMessageType::kRegister));
  wire::PutU32(1, &body);  // spec id
  wire::PutU32(3, &body);  // k
  wire::PutU8(4, &body);   // family: piecewise
  wire::PutU8(2, &body);   // dim
  wire::PutU8(2, &body);   // piece count
  const Point lo{0.0, 0.0};
  const Point hi{1.0, 1.0};
  for (const LinearFunction& fn :
       {LinearFunction({1.0, 1.0}), LinearFunction({1.0, 1.0, 1.0})}) {
    wire::PutPoint(lo, &body);
    wire::PutPoint(hi, &body);
    TOPKMON_ASSERT_OK(wire::PutFunction(fn, &body));
  }
  wire::PutU8(0, &body);  // no constraint
  NetMessage msg;
  const Status st = DecodeNetBody(body.data(), body.size(), &msg);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("piece 1 has dimensionality 3, expected 2"),
            std::string::npos)
      << st;
}

}  // namespace
}  // namespace topkmon
