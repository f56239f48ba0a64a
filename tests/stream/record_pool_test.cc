#include "stream/record_pool.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "util/rng.h"

namespace topkmon {
namespace {

Record Rec(RecordId id, double x) { return Record(id, Point{x, x}, 0); }

TEST(RecordPoolTest, InsertFindErase) {
  RecordPool pool;
  ASSERT_TRUE(pool.Insert(Rec(7, 0.5)).ok());
  EXPECT_TRUE(pool.Contains(7));
  EXPECT_EQ(pool.size(), 1u);
  const Result<PointHandle> found = pool.Find(7);
  ASSERT_TRUE(found.ok());
  EXPECT_DOUBLE_EQ(pool.At(*found).position[0], 0.5);
  ASSERT_TRUE(pool.Erase(7).ok());
  EXPECT_FALSE(pool.Contains(7));
  EXPECT_TRUE(pool.empty());
}

TEST(RecordPoolTest, DuplicateInsertFails) {
  RecordPool pool;
  ASSERT_TRUE(pool.Insert(Rec(1, 0.1)).ok());
  EXPECT_EQ(pool.Insert(Rec(1, 0.2)).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(RecordPoolTest, EraseMissingFails) {
  RecordPool pool;
  EXPECT_EQ(pool.Erase(3).code(), StatusCode::kNotFound);
}

TEST(RecordPoolTest, FindMissingFails) {
  RecordPool pool;
  EXPECT_EQ(pool.Find(3).status().code(), StatusCode::kNotFound);
}

TEST(RecordPoolTest, RejectsInvalidId) {
  RecordPool pool;
  EXPECT_EQ(pool.Insert(Rec(kInvalidRecordId, 0.5)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RecordPoolTest, SlotsAreReused) {
  RecordPool pool;
  for (RecordId i = 0; i < 100; ++i) ASSERT_TRUE(pool.Insert(Rec(i, 0.5)).ok());
  const std::size_t bytes_full = pool.MemoryBytes();
  for (RecordId i = 0; i < 100; ++i) ASSERT_TRUE(pool.Erase(i).ok());
  for (RecordId i = 100; i < 200; ++i) {
    ASSERT_TRUE(pool.Insert(Rec(i, 0.5)).ok());
  }
  // Reinsertion into freed slots must not grow the slab: the footprint at
  // 100 live records is the same before and after the churn.
  EXPECT_LE(pool.MemoryBytes(), bytes_full + 64);
}

TEST(RecordPoolTest, ForEachVisitsAllLiveRecords) {
  RecordPool pool;
  for (RecordId i = 0; i < 20; ++i) ASSERT_TRUE(pool.Insert(Rec(i, 0.5)).ok());
  for (RecordId i = 0; i < 20; i += 2) ASSERT_TRUE(pool.Erase(i).ok());
  std::unordered_set<RecordId> seen;
  pool.ForEach([&seen](const Record& r) { seen.insert(r.id); });
  EXPECT_EQ(seen.size(), 10u);
  for (RecordId i = 1; i < 20; i += 2) EXPECT_TRUE(seen.count(i));
}

TEST(RecordPoolTest, RandomChurnMatchesOracle) {
  RecordPool pool;
  std::unordered_set<RecordId> oracle;
  Rng rng(5);
  RecordId next = 0;
  for (int op = 0; op < 5000; ++op) {
    if (oracle.empty() || rng.UniformInt(2) == 0) {
      ASSERT_TRUE(pool.Insert(Rec(next, 0.5)).ok());
      oracle.insert(next);
      ++next;
    } else {
      const RecordId victim = *oracle.begin();
      ASSERT_TRUE(pool.Erase(victim).ok());
      oracle.erase(victim);
    }
    ASSERT_EQ(pool.size(), oracle.size());
  }
  for (RecordId id : oracle) EXPECT_TRUE(pool.Contains(id));
}

}  // namespace
}  // namespace topkmon
