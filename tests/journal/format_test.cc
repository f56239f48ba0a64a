#include "journal/format.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/scoring.h"

namespace topkmon {
namespace {

TEST(JournalFormatTest, Crc32MatchesTheStandardCheckValue) {
  // The canonical CRC-32C (Castagnoli) check value for "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xE3069283u);
  // Incremental computation matches one-shot.
  const std::uint32_t partial = Crc32("12345", 5);
  EXPECT_EQ(Crc32("6789", 4, partial), 0xE3069283u);
  EXPECT_EQ(Crc32("", 0), 0u);
  // Byte-at-a-time equals the sliced/hardware bulk path on a long input
  // (exercises the 8-byte folding loop and the unaligned tail).
  std::string long_input;
  for (int i = 0; i < 1000; ++i) long_input.push_back(static_cast<char>(i));
  std::uint32_t rolling = 0;
  for (char c : long_input) rolling = Crc32(&c, 1, rolling);
  EXPECT_EQ(Crc32(long_input.data(), long_input.size()), rolling);
}

TEST(JournalFormatTest, CycleBodyRoundtrips) {
  std::vector<Record> batch;
  batch.emplace_back(41, Point{0.25, 0.75}, 99);
  batch.emplace_back(42, Point{0.0, 1.0}, 100);
  std::string body;
  EncodeCycleBody(100, batch, &body);

  JournalRecord record;
  ASSERT_TRUE(DecodeBody(body.data(), body.size(), &record).ok());
  EXPECT_EQ(record.type, JournalRecordType::kCycle);
  EXPECT_EQ(record.cycle_ts, 100);
  ASSERT_EQ(record.batch.size(), 2u);
  EXPECT_EQ(record.batch[0].id, 41u);
  EXPECT_EQ(record.batch[0].arrival, 99);
  EXPECT_EQ(record.batch[0].position, (Point{0.25, 0.75}));
  EXPECT_EQ(record.batch[1].id, 42u);
}

TEST(JournalFormatTest, RegisterBodyRoundtripsEveryFunctionFamily) {
  std::vector<std::shared_ptr<const ScoringFunction>> functions = {
      std::make_shared<LinearFunction>(std::vector<double>{0.3, -0.7}, 1.5),
      std::make_shared<ProductFunction>(std::vector<double>{0.1, 0.9}),
      std::make_shared<SumOfSquaresFunction>(std::vector<double>{0.4, 0.6}),
  };
  for (const auto& fn : functions) {
    JournaledQuery query;
    query.spec.id = 7;
    query.spec.k = 12;
    query.spec.function = fn;
    query.spec.constraint =
        Rect(Point{0.1, 0.2}, Point{0.8, 0.9});
    query.owner_label = "dashboard-3";

    std::string body;
    ASSERT_TRUE(EncodeRegisterBody(query, &body).ok()) << fn->ToString();
    JournalRecord record;
    ASSERT_TRUE(DecodeBody(body.data(), body.size(), &record).ok());
    EXPECT_EQ(record.type, JournalRecordType::kRegister);
    EXPECT_EQ(record.query.spec.id, 7u);
    EXPECT_EQ(record.query.spec.k, 12);
    EXPECT_EQ(record.query.owner_label, "dashboard-3");
    ASSERT_TRUE(record.query.spec.constraint.has_value());
    EXPECT_EQ(record.query.spec.constraint->lo(), (Point{0.1, 0.2}));
    EXPECT_EQ(record.query.spec.constraint->hi(), (Point{0.8, 0.9}));
    // The decoded function scores identically (same family, same coeffs).
    const Point probe{0.37, 0.61};
    EXPECT_DOUBLE_EQ(record.query.spec.function->Score(probe),
                     fn->Score(probe));
    EXPECT_EQ(record.query.spec.function->ToString(), fn->ToString());
  }
}

TEST(JournalFormatTest, UnregisterBodyRoundtrips) {
  std::string body;
  EncodeUnregisterBody(123456, &body);
  JournalRecord record;
  ASSERT_TRUE(DecodeBody(body.data(), body.size(), &record).ok());
  EXPECT_EQ(record.type, JournalRecordType::kUnregister);
  EXPECT_EQ(record.unregistered, 123456u);
}

TEST(JournalFormatTest, SnapshotBodyRoundtrips) {
  JournalSnapshot snap;
  snap.last_cycle_ts = 777;
  snap.next_record_id = 5001;
  snap.next_query_id = 42;
  for (RecordId id = 4990; id < 5001; ++id) {
    snap.window.emplace_back(id, Point{0.5, 0.5}, 770 + (id % 7));
  }
  JournaledQuery q;
  q.spec.id = 41;
  q.spec.k = 3;
  q.spec.function =
      std::make_shared<LinearFunction>(std::vector<double>{1.0, 1.0});
  q.owner_label = "alice";
  snap.live_queries.push_back(q);

  std::string body;
  ASSERT_TRUE(EncodeSnapshotBody(snap, &body).ok());
  JournalRecord record;
  ASSERT_TRUE(DecodeBody(body.data(), body.size(), &record).ok());
  EXPECT_EQ(record.type, JournalRecordType::kSnapshot);
  EXPECT_EQ(record.snapshot.last_cycle_ts, 777);
  EXPECT_EQ(record.snapshot.next_record_id, 5001u);
  EXPECT_EQ(record.snapshot.next_query_id, 42u);
  ASSERT_EQ(record.snapshot.window.size(), 11u);
  EXPECT_EQ(record.snapshot.window.front().id, 4990u);
  ASSERT_EQ(record.snapshot.live_queries.size(), 1u);
  EXPECT_EQ(record.snapshot.live_queries[0].spec.id, 41u);
  EXPECT_EQ(record.snapshot.live_queries[0].owner_label, "alice");
}

/// A monotone function the journal has no encoding for.
class OpaqueFunction final : public ScoringFunction {
 public:
  int dim() const override { return 2; }
  double Score(const Point& p) const override { return p[0] + p[1]; }
  Monotonicity direction(int) const override {
    return Monotonicity::kIncreasing;
  }
  std::string ToString() const override { return "opaque(x1, x2)"; }
};

TEST(JournalFormatTest, UnknownFunctionTypesAreRefusedNotMangled) {
  JournaledQuery query;
  query.spec.id = 1;
  query.spec.k = 1;
  query.spec.function = std::make_shared<OpaqueFunction>();
  std::string body;
  const Status st = EncodeRegisterBody(query, &body);
  EXPECT_EQ(st.code(), StatusCode::kUnimplemented);
  EXPECT_TRUE(body.empty()) << "refused encode must not leave partial bytes";
}

TEST(JournalFormatTest, TruncatedAndGarbageBodiesAreRejected) {
  std::vector<Record> batch;
  batch.emplace_back(1, Point{0.5, 0.5}, 10);
  std::string body;
  EncodeCycleBody(10, batch, &body);
  JournalRecord record;
  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_FALSE(DecodeBody(body.data(), cut, &record).ok())
        << "prefix of length " << cut << " decoded successfully";
  }
  const std::string garbage = "\xFFthis is not a journal record";
  EXPECT_FALSE(DecodeBody(garbage.data(), garbage.size(), &record).ok());
}

TEST(JournalFormatTest, SegmentFileNamesRoundtrip) {
  EXPECT_EQ(SegmentFileName(0), "segment-000000000000.wal");
  EXPECT_EQ(SegmentFileName(42), "segment-000000000042.wal");
  std::uint64_t index = 99;
  EXPECT_TRUE(ParseSegmentFileName("segment-000000000042.wal", &index));
  EXPECT_EQ(index, 42u);
  EXPECT_FALSE(ParseSegmentFileName("segment-xyz.wal", &index));
  EXPECT_FALSE(ParseSegmentFileName("other.txt", &index));
  EXPECT_FALSE(ParseSegmentFileName("segment-000000000042.wal.bak", &index));
}

TEST(JournalFormatTest, FormatVersionIsTwo) {
  // docs/JOURNAL_FORMAT.md documents version 2; CI cross-checks the two.
  EXPECT_EQ(kJournalFormatVersion, 2u);
}

TEST(JournalFormatTest, VersionOneSegmentsRemainReadable) {
  // v1 encodings are a strict subset of v2 (v2 only added the piecewise
  // scoring-function tag), so a v1 header must still be accepted while
  // future versions and version 0 are refused.
  std::string header;
  EncodeSegmentHeader(&header);
  ASSERT_EQ(header.size(), kSegmentHeaderBytes);
  std::string v1 = header;
  v1[8] = 1;  // version:u32 little-endian at offset 8
  EXPECT_TRUE(DecodeSegmentHeader(v1.data(), v1.size()).ok());
  std::string v0 = header;
  v0[8] = 0;
  EXPECT_EQ(DecodeSegmentHeader(v0.data(), v0.size()).code(),
            StatusCode::kUnimplemented);
  std::string v9 = header;
  v9[8] = 9;
  EXPECT_EQ(DecodeSegmentHeader(v9.data(), v9.size()).code(),
            StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace topkmon
