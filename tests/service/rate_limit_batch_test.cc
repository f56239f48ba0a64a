// The session token bucket on the batch admission path
// (MonitorService::TryIngestBatch, which the wire ingest frame uses): a
// batch larger than the bucket admits exactly what the bucket covers and
// counts each record beyond it as rate limited. Runs on the injected
// virtual clock, like rate_limit_test.cc.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/brute_force_engine.h"
#include "service/monitor_service.h"
#include "tests/test_util.h"

namespace topkmon {
namespace {

std::vector<Record> Batch(Timestamp first_ts, std::size_t n) {
  std::vector<Record> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.emplace_back(0, Point{0.2, 0.6}, first_ts + static_cast<Timestamp>(i));
  }
  return out;
}

TEST(RateLimitBatchTest, BatchBeyondTheBurstAdmitsOnlyWhatTheBucketCovers) {
  ServiceOptions opt;
  opt.ingest.slack = 0;
  opt.drain_wait = std::chrono::milliseconds(1);
  opt.session.ingest_rate_per_sec = 10.0;  // one token per 100 virtual ms
  opt.session.ingest_burst = 4.0;
  MonitorService service(
      std::make_unique<BruteForceEngine>(2, WindowSpec::Count(100)), opt);
  double virtual_now = 0.0;
  service.SetClockForTesting([&virtual_now] { return virtual_now; });
  const SessionId session = *service.OpenSession("batcher");

  // One batch of 10 against a full bucket of 4: the burst is admitted,
  // the other 6 are refused with the single-record refusal.
  Status error;
  EXPECT_EQ(service.TryIngestBatch(session, Batch(1, 10), &error), 4u);
  EXPECT_EQ(error.code(), StatusCode::kFailedPrecondition) << error;
  EXPECT_NE(error.message().find("rate limit"), std::string::npos) << error;
  TOPKMON_ASSERT_OK(service.Flush());
  EXPECT_EQ(service.stats().records_ingested, 4u);
  EXPECT_EQ(service.stats().records_rate_limited, 6u);

  // 250 virtual ms refill 2.5 tokens: whole tokens only, so 2 of 5.
  virtual_now = 0.25;
  error = Status::Ok();
  EXPECT_EQ(service.TryIngestBatch(session, Batch(11, 5), &error), 2u);
  EXPECT_EQ(error.code(), StatusCode::kFailedPrecondition) << error;
  EXPECT_EQ(service.stats().records_rate_limited, 9u);

  // A long idle refills to the burst cap, never beyond: a batch the
  // bucket covers is admitted whole.
  virtual_now = 100.0;
  error = Status::Ok();
  EXPECT_EQ(service.TryIngestBatch(session, Batch(16, 4), &error), 4u);
  TOPKMON_EXPECT_OK(error);
  EXPECT_EQ(service.TryIngestBatch(session, Batch(20, 1), &error), 0u);
  EXPECT_EQ(error.code(), StatusCode::kFailedPrecondition) << error;
  TOPKMON_ASSERT_OK(service.Flush());
  EXPECT_EQ(service.stats().records_ingested, 10u);
  EXPECT_EQ(service.stats().records_rate_limited, 10u);
}

}  // namespace
}  // namespace topkmon
