// The ingest frame decoder under hostile bytes: DecodeIngestBody decodes
// a kIngest body block by block into a caller-held, reusable view. A
// malformed body must be refused before any block reaches the sink (no
// record of it can be admitted), and the view's storage never grows past
// kIngestBlockRecords records whatever count a frame declares.
//
// The suite name (ZeroCopy*) is pinned by CI's TSan filter
// (.github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/record.h"
#include "net/protocol.h"

namespace topkmon {
namespace {

std::string EncodeIngestBody(const std::vector<Record>& records) {
  std::string body;
  EncodeIngest(records, &body);
  return body;
}

std::vector<Record> SampleRecords(std::size_t n) {
  std::vector<Record> records;
  for (std::size_t i = 0; i < n; ++i) {
    Point p(2);
    p[0] = 0.1 + 0.8 * static_cast<double>(i) / static_cast<double>(n);
    p[1] = 0.9 - 0.8 * static_cast<double>(i) / static_cast<double>(n);
    records.emplace_back(static_cast<RecordId>(i), p,
                         static_cast<Timestamp>(100 + i));
  }
  return records;
}

/// Everything the sink saw, concatenated in frame order, with the
/// invalid indices made frame-relative.
struct Decoded {
  Status status;
  std::size_t blocks = 0;
  std::vector<Record> records;
  std::vector<std::size_t> invalid;
  Status first_invalid;
};

Decoded Decode(const std::string& body, std::size_t n, int dim,
               IngestFrameView* view) {
  Decoded out;
  out.status = DecodeIngestBody(
      body.data(), n, dim, view, [&out](const IngestFrameView& block) {
        EXPECT_LE(block.records.size(), kIngestBlockRecords);
        for (const std::uint32_t i : block.invalid) {
          out.invalid.push_back(out.records.size() + i);
        }
        if (out.first_invalid.ok()) out.first_invalid = block.first_invalid;
        out.records.insert(out.records.end(), block.records.begin(),
                           block.records.end());
        ++out.blocks;
        return true;
      });
  return out;
}

void ExpectBitwise(const std::vector<Record>& got,
                   const std::vector<Record>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(got[i].arrival, want[i].arrival);
    ASSERT_EQ(got[i].position.dim(), want[i].position.dim());
    for (int d = 0; d < got[i].position.dim(); ++d) {
      const double a = got[i].position[d];
      const double b = want[i].position[d];
      EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0);
    }
  }
}

TEST(ZeroCopyDecodeTest, ValidFrameDecodesBitwise) {
  IngestFrameView view;
  const std::vector<Record> records = SampleRecords(17);
  const std::string body = EncodeIngestBody(records);
  const Decoded d = Decode(body, body.size(), 2, &view);
  ASSERT_TRUE(d.status.ok()) << d.status;
  EXPECT_EQ(d.blocks, 1u);
  EXPECT_EQ(view.frame_records, records.size());
  EXPECT_TRUE(d.invalid.empty());
  ExpectBitwise(d.records, records);
}

TEST(ZeroCopyDecodeTest, TruncatedFrameReleasesItsAllocation) {
  IngestFrameView view;
  const std::string body = EncodeIngestBody(SampleRecords(9));
  // Chop the body mid-span: the count prefix survives, the records do
  // not — decode must fail without handing a single block on.
  for (std::size_t cut = 6; cut < body.size(); cut += 7) {
    const Decoded d = Decode(body, cut, 2, &view);
    EXPECT_FALSE(d.status.ok()) << "cut=" << cut;
    EXPECT_EQ(d.blocks, 0u) << "cut=" << cut;
  }
  // The same view decodes the next, intact frame.
  const std::vector<Record> good = SampleRecords(4);
  const std::string good_body = EncodeIngestBody(good);
  const Decoded d = Decode(good_body, good_body.size(), 2, &view);
  ASSERT_TRUE(d.status.ok()) << d.status;
  ExpectBitwise(d.records, good);
  EXPECT_LE(view.records.capacity(), 9u);
}

TEST(ZeroCopyDecodeTest, HostileCountRefusedBeforeAllocation) {
  IngestFrameView view;
  std::string body = EncodeIngestBody(SampleRecords(3));
  // Rewrite the u32 count (bytes 1..4, after the type tag) to promise
  // ~16M records backed by a handful of bytes.
  const std::uint32_t hostile = 0x00FFFFFFu;
  std::memcpy(&body[1], &hostile, sizeof(hostile));
  const Decoded d = Decode(body, body.size(), 2, &view);
  EXPECT_FALSE(d.status.ok());
  EXPECT_EQ(d.blocks, 0u);
  // Refused before sizing a block: the view never grew.
  EXPECT_EQ(view.records.capacity(), 0u);
}

TEST(ZeroCopyDecodeTest, TrailingGarbageRefusedAndReleased) {
  IngestFrameView view;
  std::string body = EncodeIngestBody(SampleRecords(5));
  body.append("garbage");
  const Decoded d = Decode(body, body.size(), 2, &view);
  EXPECT_FALSE(d.status.ok());
  EXPECT_EQ(d.blocks, 0u);
}

TEST(ZeroCopyDecodeTest, OutOfSpacePointsFlaggedNotRefused) {
  IngestFrameView view;
  std::vector<Record> records = SampleRecords(6);
  records[2].position[0] = 1.5;   // outside the unit space
  records[4].position[1] = -0.5;  // ditto
  const std::string body = EncodeIngestBody(records);
  // Unit-space violations are PER-RECORD refusals, not frame failures:
  // the frame decodes, the offenders land in `invalid`, and the caller
  // interleaves their rejections between the valid runs.
  const Decoded d = Decode(body, body.size(), 2, &view);
  ASSERT_TRUE(d.status.ok()) << d.status;
  ASSERT_EQ(d.records.size(), 6u);
  EXPECT_EQ(d.invalid, (std::vector<std::size_t>{2, 4}));
  EXPECT_FALSE(d.first_invalid.ok());
}

TEST(ZeroCopyDecodeTest, DimensionMismatchFlagsEveryRecord) {
  IngestFrameView view;
  const std::string body = EncodeIngestBody(SampleRecords(4));
  const Decoded d = Decode(body, body.size(), /*dim=*/3, &view);
  ASSERT_TRUE(d.status.ok()) << d.status;
  ASSERT_EQ(d.records.size(), 4u);
  EXPECT_EQ(d.invalid.size(), 4u);
  EXPECT_FALSE(d.first_invalid.ok());
}

TEST(ZeroCopyDecodeTest, LargeFrameDecodesInBoundedBlocks) {
  // Two full blocks and a short one; an invalid record in the last block
  // keeps its frame-relative index.
  const std::size_t n = 2 * kIngestBlockRecords + 5;
  std::vector<Record> records = SampleRecords(n);
  records[n - 2].arrival = -1;  // outside the wire range
  const std::string body = EncodeIngestBody(records);
  IngestFrameView view;
  const Decoded d = Decode(body, body.size(), 2, &view);
  ASSERT_TRUE(d.status.ok()) << d.status;
  EXPECT_EQ(d.blocks, 3u);
  EXPECT_EQ(view.frame_records, n);
  EXPECT_EQ(view.records.capacity(), kIngestBlockRecords);
  EXPECT_EQ(d.invalid, (std::vector<std::size_t>{n - 2}));
  EXPECT_EQ(d.first_invalid.code(), StatusCode::kOutOfRange);
  ExpectBitwise(d.records, records);
}

TEST(ZeroCopyDecodeTest, MalformedTailOfALargeFrameReachesNoSink) {
  // The damage sits past the first block: a one-pass decoder would have
  // handed the first block on before finding it.
  const std::string body =
      EncodeIngestBody(SampleRecords(kIngestBlockRecords + 3));
  IngestFrameView view;
  for (const std::size_t cut : {body.size() - 1, body.size() - 9}) {
    const Decoded d = Decode(body, cut, 2, &view);
    EXPECT_FALSE(d.status.ok()) << "cut=" << cut;
    EXPECT_EQ(d.blocks, 0u) << "cut=" << cut;
  }
  std::string trailing = body + "x";
  const Decoded d = Decode(trailing, trailing.size(), 2, &view);
  EXPECT_FALSE(d.status.ok());
  EXPECT_EQ(d.blocks, 0u);
  EXPECT_LE(view.records.capacity(), kIngestBlockRecords);
}

TEST(ZeroCopyDecodeTest, SinkStopsTheDecode) {
  const std::string body =
      EncodeIngestBody(SampleRecords(2 * kIngestBlockRecords + 1));
  IngestFrameView view;
  std::size_t blocks = 0;
  const Status st = DecodeIngestBody(
      body.data(), body.size(), 2, &view, [&blocks](const IngestFrameView&) {
        ++blocks;
        return false;
      });
  EXPECT_TRUE(st.ok()) << st;
  EXPECT_EQ(blocks, 1u);
}

}  // namespace
}  // namespace topkmon
