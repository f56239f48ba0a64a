// Component-level google-benchmark suite: the primitive operations whose
// costs the Section 6 analysis composes (grid updates, point-list churn,
// skyband maintenance, order-statistics tree, TA runs, sorted-list
// churn).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/skyband.h"
#include "core/topk_compute.h"
#include "grid/grid.h"
#include "stream/generators.h"
#include "tsl/sorted_lists.h"
#include "tsl/threshold_algorithm.h"
#include "util/os_treap.h"
#include "util/rng.h"

namespace topkmon {
namespace {

void BM_GridLocateAndInsert(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  Grid grid(dim, Grid::CellsPerAxisForBudget(dim, 20736));
  RecordSource source(MakeGenerator(Distribution::kIndependent, dim, 7));
  std::vector<Record> batch = source.NextBatch(4096, 0);
  std::size_t i = 0;
  for (auto _ : state) {
    const Record& r = batch[i & 4095];
    const CellIndex cell = grid.LocateCell(r.position);
    grid.InsertPoint(cell, r.id, r.position);
    benchmark::DoNotOptimize(cell);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GridLocateAndInsert)->Arg(2)->Arg(4)->Arg(6);

// One cell's point list at a steady live size L: each iteration appends
// one entry and expires the oldest (two operations). L = 4 and 8 sit at a
// block boundary, 3, 5 and 9 beside one, 50 inside a 64-slot block; a
// list that resized on every crossing would show it here.
void BM_PointListFifoChurn(benchmark::State& state) {
  const std::size_t live = static_cast<std::size_t>(state.range(0));
  Grid grid(2, 1);
  RecordSource source(MakeGenerator(Distribution::kIndependent, 2, 19));
  const std::vector<Record> batch = source.NextBatch(4096, 0);
  RecordId next = 0;
  RecordId oldest = 0;
  for (; next < live; ++next) grid.InsertPoint(0, next, batch[next].position);
  const std::uint64_t resizes_before = grid.point_list_resizes();
  for (auto _ : state) {
    grid.InsertPoint(0, next, batch[next & 4095].position);
    ++next;
    grid.ErasePointFifo(0, oldest++);
  }
  const PointList& points = grid.PointsIn(0);
  benchmark::DoNotOptimize(points.size());
  const double ops = 2.0 * static_cast<double>(state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
  state.counters["resizes_per_kop"] =
      1000.0 *
      static_cast<double>(grid.point_list_resizes() - resizes_before) / ops;
  state.counters["capacity"] = static_cast<double>(points.capacity());
}
BENCHMARK(BM_PointListFifoChurn)->Arg(3)->Arg(4)->Arg(5)->Arg(8)->Arg(9)
    ->Arg(50);

void BM_SkybandInsert(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  Rng rng(3);
  Skyband skyband(k);
  RecordId next = 0;
  for (auto _ : state) {
    skyband.Insert(next++, rng.Uniform());
  }
  state.counters["size"] = static_cast<double>(skyband.size());
}
BENCHMARK(BM_SkybandInsert)->Arg(1)->Arg(20)->Arg(100);

void BM_OsTreapInsertCount(benchmark::State& state) {
  Rng rng(5);
  OsTreap<std::uint64_t> treap;
  for (auto _ : state) {
    const std::uint64_t key = rng.NextUint64();
    benchmark::DoNotOptimize(treap.CountGreater(key));
    treap.Insert(key);
    if (treap.Size() > 4096) treap.Clear();
  }
}
BENCHMARK(BM_OsTreapInsertCount);

void BM_SortedListsChurn(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  SortedAttributeLists lists(dim);
  RecordSource source(MakeGenerator(Distribution::kIndependent, dim, 11));
  std::vector<Record> window = source.NextBatch(100000, 0);
  for (const Record& r : window) lists.Insert(r);
  std::size_t head = 0;
  Timestamp now = 1;
  for (auto _ : state) {
    // One record replaced per iteration: the steady-state per-tuple cost.
    const Record arriving = source.Next(now++);
    lists.Insert(arriving);
    benchmark::DoNotOptimize(lists.Erase(window[head]));
    window.push_back(arriving);
    ++head;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SortedListsChurn)->Arg(2)->Arg(4)->Arg(6);

void BM_ThresholdAlgorithm(benchmark::State& state) {
  const int dim = 4;
  const int kmax = static_cast<int>(state.range(0));
  SortedAttributeLists lists(dim);
  std::vector<Record> records;
  RecordSource source(MakeGenerator(Distribution::kIndependent, dim, 13));
  for (std::size_t i = 0; i < 100000; ++i) {
    records.push_back(source.Next(0));
    lists.Insert(records.back());
  }
  LinearFunction f({0.7, 0.3, 0.9, 0.5});
  for (auto _ : state) {
    TaResult out = RunThresholdAlgorithm(
        lists, f, kmax, [&records](RecordId id) -> const Record& {
          return records[static_cast<std::size_t>(id)];
        });
    benchmark::DoNotOptimize(out.result.data());
  }
}
BENCHMARK(BM_ThresholdAlgorithm)->Arg(4)->Arg(30)->Arg(120)
    ->Unit(benchmark::kMicrosecond);

void BM_TopKComputeModule(benchmark::State& state) {
  const int dim = 4;
  const int k = static_cast<int>(state.range(0));
  Grid grid(dim, 12);
  std::vector<Record> records;
  RecordSource source(MakeGenerator(Distribution::kIndependent, dim, 17));
  for (std::size_t i = 0; i < 100000; ++i) {
    records.push_back(source.Next(0));
    grid.InsertPoint(grid.LocateCell(records.back().position),
                     records.back().id, records.back().position);
  }
  LinearFunction f({0.7, 0.3, 0.9, 0.5});
  TraversalScratch scratch;
  for (auto _ : state) {
    TopKComputation out = ComputeTopK(grid, f, k, &scratch);
    benchmark::DoNotOptimize(out.result.data());
  }
}
BENCHMARK(BM_TopKComputeModule)->Arg(1)->Arg(20)->Arg(100)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace topkmon

BENCHMARK_MAIN();
