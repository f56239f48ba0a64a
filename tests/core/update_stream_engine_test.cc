#include "core/update_stream_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "stream/record_pool.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace topkmon {
namespace {

GridEngineOptions SmallOptions(int dim) {
  GridEngineOptions opt;
  opt.dim = dim;
  opt.cell_budget = 256;
  return opt;
}

QuerySpec LinearQuery(QueryId id, int k, std::vector<double> w) {
  QuerySpec spec;
  spec.id = id;
  spec.k = k;
  spec.function = std::make_shared<LinearFunction>(std::move(w));
  return spec;
}

UpdateOp Insert(RecordId id, Point p) {
  UpdateOp op;
  op.kind = UpdateOp::Kind::kInsert;
  op.record = Record(id, std::move(p), 0);
  return op;
}

UpdateOp Delete(RecordId id) {
  UpdateOp op;
  op.kind = UpdateOp::Kind::kDelete;
  op.record.id = id;
  return op;
}

TEST(UpdateStreamEngineTest, InsertionsBuildResult) {
  UpdateStreamTmaEngine engine(SmallOptions(2));
  TOPKMON_ASSERT_OK(engine.RegisterQuery(LinearQuery(1, 2, {1.0, 1.0})));
  TOPKMON_ASSERT_OK(engine.ProcessBatch({Insert(0, Point{0.9, 0.9}),
                                         Insert(1, Point{0.2, 0.2}),
                                         Insert(2, Point{0.5, 0.6})}));
  const auto result = engine.CurrentResult(1);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  EXPECT_EQ((*result)[0].id, 0u);
  EXPECT_EQ((*result)[1].id, 2u);
  EXPECT_EQ(engine.LiveCount(), 3u);
}

TEST(UpdateStreamEngineTest, DeletingResultRecordTriggersRecompute) {
  UpdateStreamTmaEngine engine(SmallOptions(2));
  TOPKMON_ASSERT_OK(engine.RegisterQuery(LinearQuery(1, 1, {1.0, 1.0})));
  TOPKMON_ASSERT_OK(engine.ProcessBatch({Insert(0, Point{0.9, 0.9}),
                                         Insert(1, Point{0.4, 0.4})}));
  const std::uint64_t before = engine.stats().recomputations;
  TOPKMON_ASSERT_OK(engine.ProcessBatch({Delete(0)}));
  EXPECT_EQ(engine.stats().recomputations, before + 1);
  const auto result = engine.CurrentResult(1);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].id, 1u);
}

TEST(UpdateStreamEngineTest, DeletingNonResultRecordIsCheap) {
  UpdateStreamTmaEngine engine(SmallOptions(2));
  TOPKMON_ASSERT_OK(engine.RegisterQuery(LinearQuery(1, 1, {1.0, 1.0})));
  TOPKMON_ASSERT_OK(engine.ProcessBatch({Insert(0, Point{0.9, 0.9}),
                                         Insert(1, Point{0.4, 0.4})}));
  const std::uint64_t before = engine.stats().recomputations;
  TOPKMON_ASSERT_OK(engine.ProcessBatch({Delete(1)}));
  EXPECT_EQ(engine.stats().recomputations, before);
}

TEST(UpdateStreamEngineTest, DeleteUnknownIdFails) {
  UpdateStreamTmaEngine engine(SmallOptions(2));
  EXPECT_EQ(engine.ProcessBatch({Delete(42)}).code(),
            StatusCode::kNotFound);
}

TEST(UpdateStreamEngineTest, DuplicateInsertFails) {
  UpdateStreamTmaEngine engine(SmallOptions(2));
  TOPKMON_ASSERT_OK(engine.ProcessBatch({Insert(0, Point{0.5, 0.5})}));
  EXPECT_EQ(engine.ProcessBatch({Insert(0, Point{0.6, 0.6})}).code(),
            StatusCode::kAlreadyExists);
}

TEST(UpdateStreamEngineTest, MatchesOracleOnRandomChurn) {
  const int dim = 2;
  UpdateStreamTmaEngine engine(SmallOptions(dim));
  const auto queries = testing::MakeRandomQueries(dim, 6, 4, 77);
  for (const QuerySpec& q : queries) {
    TOPKMON_ASSERT_OK(engine.RegisterQuery(q));
  }
  UpdateStreamGenerator gen(
      MakeGenerator(Distribution::kIndependent, dim, 3), 0.35, 99);
  RecordPool oracle;
  for (int batch = 0; batch < 40; ++batch) {
    const std::vector<UpdateOp> ops = gen.NextBatch(25, batch);
    TOPKMON_ASSERT_OK(engine.ProcessBatch(ops));
    for (const UpdateOp& op : ops) {
      if (op.kind == UpdateOp::Kind::kInsert) {
        ASSERT_TRUE(oracle.Insert(op.record).ok());
      } else {
        ASSERT_TRUE(oracle.Erase(op.record.id).ok());
      }
    }
    for (const QuerySpec& q : queries) {
      TopKList want(q.k);
      oracle.ForEach([&](const Record& r) {
        want.Consider(r.id, q.function->Score(r.position));
      });
      const auto got = engine.CurrentResult(q.id);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(testing::Scores(*got), testing::Scores(want.entries()))
          << "query " << q.id << " batch " << batch;
    }
  }
}

// Explicit deletions drain a dense cell in no particular order: the
// cell's point list gives its block back as it empties (positional Erase
// shrinks like FIFO expiry), and every batch still matches a brute-force
// scan of the live records.
TEST(UpdateStreamEngineTest, DrainingADenseCellShrinksItsPointList) {
  const int dim = 2;
  UpdateStreamTmaEngine engine(SmallOptions(dim));
  const auto queries = testing::MakeRandomQueries(dim, 6, 4, 41);
  for (const QuerySpec& q : queries) {
    TOPKMON_ASSERT_OK(engine.RegisterQuery(q));
  }
  // 300 records inside the cell whose lower corner is (0.5, 0.5), among
  // 100 spread over the workspace.
  Rng rng(8);
  const Point corner{0.5, 0.5};
  const CellIndex dense = engine.grid().LocateCell(corner);
  const double delta = engine.grid().delta();
  RecordPool oracle;
  std::vector<UpdateOp> fill;
  std::vector<RecordId> in_dense;
  for (RecordId id = 0; id < 400; ++id) {
    Point p{rng.Uniform(), rng.Uniform()};
    if (id % 4 != 0) {
      p = Point{corner[0] + rng.Uniform(0.0, 0.99 * delta),
                corner[1] + rng.Uniform(0.0, 0.99 * delta)};
    }
    if (engine.grid().LocateCell(p) == dense) in_dense.push_back(id);
    fill.push_back(Insert(id, p));
    ASSERT_TRUE(oracle.Insert(fill.back().record).ok());
  }
  TOPKMON_ASSERT_OK(engine.ProcessBatch(fill));
  ASSERT_GE(in_dense.size(), 300u);
  const std::size_t full_capacity = engine.grid().PointsIn(dense).capacity();
  ASSERT_GE(full_capacity, in_dense.size());

  // Delete the dense cell's records in shuffled order, 20 per batch, with
  // a few insertions elsewhere riding along.
  for (std::size_t i = in_dense.size(); i > 1; --i) {
    std::swap(in_dense[i - 1], in_dense[rng.UniformInt(i)]);
  }
  const std::uint64_t resizes_before = engine.grid().point_list_resizes();
  RecordId next = 400;
  for (std::size_t done = 0; done < in_dense.size();) {
    std::vector<UpdateOp> ops;
    for (int j = 0; j < 20 && done < in_dense.size(); ++j) {
      ops.push_back(Delete(in_dense[done++]));
      ASSERT_TRUE(oracle.Erase(ops.back().record.id).ok());
    }
    ops.push_back(Insert(next++, Point{rng.Uniform(0.0, 0.5),
                                       rng.Uniform(0.0, 0.5)}));
    ASSERT_TRUE(oracle.Insert(ops.back().record).ok());
    TOPKMON_ASSERT_OK(engine.ProcessBatch(ops));
    const PointList& points = engine.grid().PointsIn(dense);
    ASSERT_EQ(points.size(), in_dense.size() - done);
    EXPECT_LE(points.capacity(),
              std::max<std::size_t>(PointList::kShrinkFloor,
                                    4 * points.size()));
    for (const QuerySpec& q : queries) {
      TopKList want(q.k);
      oracle.ForEach([&](const Record& r) {
        want.Consider(r.id, q.function->Score(r.position));
      });
      const auto got = engine.CurrentResult(q.id);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(testing::Scores(*got), testing::Scores(want.entries()))
          << "query " << q.id << " after " << done << " deletions";
    }
  }
  EXPECT_LT(engine.grid().PointsIn(dense).capacity(), full_capacity);
  EXPECT_EQ(engine.grid().PointsIn(dense).capacity(),
            std::size_t{PointList::kShrinkFloor});
  // Each halving of the dense cell's block counts as one resize.
  std::uint64_t halvings = 0;
  for (std::size_t c = full_capacity; c > PointList::kShrinkFloor; c /= 2) {
    ++halvings;
  }
  EXPECT_GE(engine.grid().point_list_resizes() - resizes_before, halvings);
}

TEST(UpdateStreamEngineTest, ConstrainedQueryMatchesOracle) {
  const int dim = 2;
  UpdateStreamTmaEngine engine(SmallOptions(dim));
  QuerySpec q = LinearQuery(1, 3, {1.0, 2.0});
  q.constraint = Rect(Point{0.1, 0.2}, Point{0.8, 0.9});
  TOPKMON_ASSERT_OK(engine.RegisterQuery(q));
  UpdateStreamGenerator gen(
      MakeGenerator(Distribution::kIndependent, dim, 31), 0.3, 17);
  RecordPool oracle;
  for (int batch = 0; batch < 30; ++batch) {
    const std::vector<UpdateOp> ops = gen.NextBatch(20, batch);
    TOPKMON_ASSERT_OK(engine.ProcessBatch(ops));
    for (const UpdateOp& op : ops) {
      if (op.kind == UpdateOp::Kind::kInsert) {
        ASSERT_TRUE(oracle.Insert(op.record).ok());
      } else {
        ASSERT_TRUE(oracle.Erase(op.record.id).ok());
      }
    }
    TopKList want(q.k);
    oracle.ForEach([&](const Record& r) {
      if (!q.constraint->Contains(r.position)) return;
      want.Consider(r.id, q.function->Score(r.position));
    });
    const auto got = engine.CurrentResult(q.id);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(testing::Scores(*got), testing::Scores(want.entries()))
        << "batch " << batch;
  }
}

TEST(UpdateStreamEngineTest, UnregisterAndErrors) {
  UpdateStreamTmaEngine engine(SmallOptions(2));
  EXPECT_EQ(engine.UnregisterQuery(1).code(), StatusCode::kNotFound);
  TOPKMON_ASSERT_OK(engine.RegisterQuery(LinearQuery(1, 1, {1.0, 1.0})));
  EXPECT_EQ(engine.RegisterQuery(LinearQuery(1, 1, {1.0, 1.0})).code(),
            StatusCode::kAlreadyExists);
  TOPKMON_ASSERT_OK(engine.UnregisterQuery(1));
  EXPECT_EQ(engine.CurrentResult(1).status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace topkmon
