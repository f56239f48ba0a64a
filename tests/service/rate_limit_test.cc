// Per-session ingest rate limiting (token bucket in SessionManager) and
// session lookup by label.

#include <gtest/gtest.h>

#include <memory>

#include "core/brute_force_engine.h"
#include "service/monitor_service.h"
#include "service/session.h"
#include "tests/test_util.h"

namespace topkmon {
namespace {

TEST(RateLimitTest, TokenBucketRefillsAtTheConfiguredRate) {
  SessionOptions options;
  options.ingest_rate_per_sec = 100.0;
  options.ingest_burst = 10.0;
  SessionManager sessions(options);
  const SessionId s = *sessions.Open("client");

  // The bucket starts full: exactly `burst` tokens at t=0.
  for (int i = 0; i < 10; ++i) {
    TOPKMON_ASSERT_OK(sessions.ConsumeIngestTokens(s, 1.0, 0.0));
  }
  EXPECT_EQ(sessions.ConsumeIngestTokens(s, 1.0, 0.0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(sessions.stats().rate_limited, 1u);

  // 50 ms later: 5 tokens have dripped in.
  for (int i = 0; i < 5; ++i) {
    TOPKMON_ASSERT_OK(sessions.ConsumeIngestTokens(s, 1.0, 0.05));
  }
  EXPECT_EQ(sessions.ConsumeIngestTokens(s, 1.0, 0.05).code(),
            StatusCode::kFailedPrecondition);

  // A long idle period refills to the burst cap, never beyond it.
  for (int i = 0; i < 10; ++i) {
    TOPKMON_ASSERT_OK(sessions.ConsumeIngestTokens(s, 1.0, 60.0));
  }
  EXPECT_EQ(sessions.ConsumeIngestTokens(s, 1.0, 60.0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(sessions.stats().rate_limited, 3u);
}

TEST(RateLimitTest, BurstDefaultsToOneSecondOfRate) {
  SessionOptions options;
  options.ingest_rate_per_sec = 7.0;  // burst unset -> 7 tokens
  SessionManager sessions(options);
  const SessionId s = *sessions.Open("client");
  for (int i = 0; i < 7; ++i) {
    TOPKMON_ASSERT_OK(sessions.ConsumeIngestTokens(s, 1.0, 0.0));
  }
  EXPECT_FALSE(sessions.ConsumeIngestTokens(s, 1.0, 0.0).ok());
}

TEST(RateLimitTest, DisabledByDefaultAndUnknownSessionsAreNotFound) {
  SessionManager sessions(SessionOptions{});
  const SessionId s = *sessions.Open("client");
  for (int i = 0; i < 10000; ++i) {
    TOPKMON_ASSERT_OK(sessions.ConsumeIngestTokens(s, 1.0, 0.0));
  }
  EXPECT_EQ(sessions.stats().rate_limited, 0u);
  EXPECT_EQ(sessions.ConsumeIngestTokens(9999, 1.0, 0.0).code(),
            StatusCode::kNotFound);
}

TEST(RateLimitTest, EachSessionHasItsOwnBucket) {
  SessionOptions options;
  options.ingest_rate_per_sec = 1.0;
  options.ingest_burst = 2.0;
  SessionManager sessions(options);
  const SessionId a = *sessions.Open("a");
  const SessionId b = *sessions.Open("b");
  TOPKMON_ASSERT_OK(sessions.ConsumeIngestTokens(a, 2.0, 0.0));
  EXPECT_FALSE(sessions.ConsumeIngestTokens(a, 1.0, 0.0).ok());
  // Session b is unaffected by a's exhaustion.
  TOPKMON_ASSERT_OK(sessions.ConsumeIngestTokens(b, 2.0, 0.0));
}

TEST(RateLimitTest, FindByLabelReturnsTheOldestMatch) {
  SessionManager sessions(SessionOptions{});
  const SessionId first = *sessions.Open("dup");
  (void)*sessions.Open("dup");
  (void)*sessions.Open("other");
  const auto found = sessions.FindByLabel("dup");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, first);
  EXPECT_EQ(sessions.FindByLabel("missing").status().code(),
            StatusCode::kNotFound);
}

// The service-level bucket tests run on the service's frozen clock
// (MonitorService::clock()), advanced by hand, so no wall-clock instant
// — not even a sanitizer-slowed one — can drip tokens mid-assertion:
// the suite is deterministic by construction, with no sleeps.

TEST(RateLimitTest, ServiceIngestEnforcesTheSessionBucket) {
  ServiceOptions opt;
  opt.ingest.slack = 0;
  opt.drain_wait = std::chrono::milliseconds(1);
  opt.session.ingest_rate_per_sec = 100.0;
  opt.session.ingest_burst = 3.0;
  MonitorService service(
      std::make_unique<BruteForceEngine>(2, WindowSpec::Count(100)), opt);
  service.clock().Freeze();  // frozen unless the test advances it
  const SessionId session = *service.OpenSession("meter");

  for (Timestamp ts = 1; ts <= 3; ++ts) {
    TOPKMON_ASSERT_OK(service.Ingest(session, Point{0.5, 0.5}, ts));
  }
  EXPECT_EQ(service.Ingest(session, Point{0.5, 0.5}, 4).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.TryIngest(session, Point{0.5, 0.5}, 4).code(),
            StatusCode::kFailedPrecondition);
  // Anonymous producers bypass the bucket.
  TOPKMON_ASSERT_OK(service.Ingest(Point{0.5, 0.5}, 5));
  TOPKMON_ASSERT_OK(service.Flush());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.records_rate_limited, 2u);
  EXPECT_EQ(stats.records_ingested, 4u);
  // An unknown session cannot ingest at all.
  EXPECT_EQ(service.Ingest(777, Point{0.5, 0.5}, 6).code(),
            StatusCode::kNotFound);
}

TEST(RateLimitTest, ServiceBucketRefillsOnTheInjectedClock) {
  ServiceOptions opt;
  opt.ingest.slack = 0;
  opt.drain_wait = std::chrono::milliseconds(1);
  opt.session.ingest_rate_per_sec = 10.0;  // one token per 100 virtual ms
  opt.session.ingest_burst = 2.0;
  MonitorService service(
      std::make_unique<BruteForceEngine>(2, WindowSpec::Count(100)), opt);
  service.clock().Freeze();
  const SessionId session = *service.OpenSession("meter");

  // Drain the initial burst at a frozen instant.
  TOPKMON_ASSERT_OK(service.Ingest(session, Point{0.1, 0.1}, 1));
  TOPKMON_ASSERT_OK(service.Ingest(session, Point{0.1, 0.1}, 2));
  EXPECT_EQ(service.Ingest(session, Point{0.1, 0.1}, 3).code(),
            StatusCode::kFailedPrecondition);

  // 150 virtual ms later exactly 1.5 tokens dripped in: one ingest
  // passes, the next still fails.
  service.clock().Advance(std::chrono::milliseconds(150));
  TOPKMON_ASSERT_OK(service.Ingest(session, Point{0.1, 0.1}, 4));
  EXPECT_EQ(service.Ingest(session, Point{0.1, 0.1}, 5).code(),
            StatusCode::kFailedPrecondition);

  // A long virtual idle refills to the burst cap, never beyond.
  service.clock().Advance(std::chrono::seconds(100));
  TOPKMON_ASSERT_OK(service.Ingest(session, Point{0.1, 0.1}, 6));
  TOPKMON_ASSERT_OK(service.Ingest(session, Point{0.1, 0.1}, 7));
  EXPECT_EQ(service.Ingest(session, Point{0.1, 0.1}, 8).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.stats().records_rate_limited, 3u);
}

}  // namespace
}  // namespace topkmon
