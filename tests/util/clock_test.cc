#include "util/clock.h"

#include <gtest/gtest.h>

#include <chrono>

namespace topkmon {
namespace {

TEST(ClockTest, RunningClockFollowsTheRealClock) {
  Clock clock;
  const Clock::time_point before = Clock::RealNow();
  const Clock::time_point read = clock.Now();
  EXPECT_LE(before, read);
  EXPECT_LE(read, Clock::RealNow());
}

TEST(ClockTest, FrozenClockMovesOnlyWhenAdvanced) {
  Clock clock;
  const Clock::time_point before = clock.Now();
  clock.Freeze();
  const Clock::time_point frozen = clock.Now();
  EXPECT_LE(before, frozen) << "freezing never moves time back";
  EXPECT_EQ(clock.Now(), frozen);
  clock.Freeze();  // a no-op on a frozen clock
  EXPECT_EQ(clock.Now(), frozen);
  clock.Advance(std::chrono::milliseconds(1500));
  EXPECT_EQ(clock.Now() - frozen, std::chrono::milliseconds(1500));
}

TEST(ClockTest, AdvanceFreezesARunningClock) {
  Clock clock;
  const Clock::time_point before = Clock::RealNow();
  clock.Advance(std::chrono::seconds(60));
  const Clock::time_point advanced = clock.Now();
  EXPECT_GE(advanced - before, std::chrono::seconds(60));
  EXPECT_EQ(clock.Now(), advanced);
  // The real read is nobody's to move.
  EXPECT_LT(Clock::RealNow(), advanced);
}

}  // namespace
}  // namespace topkmon
