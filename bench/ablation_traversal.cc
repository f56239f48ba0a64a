// Ablation: heap-seeded cell traversal vs the naive sort-all-cells
// strawman (Section 4.2).
//
// The naive method computes maxscore for every cell and sorts them before
// scanning; the paper's traversal en-heaps only the frontier reachable
// from the best-corner cell. Both visit the same minimal set of cells,
// but the naive setup cost is Theta(#cells log #cells) per computation.
// google-benchmark micro-suite over grid resolutions and k.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/topk_compute.h"
#include "stream/generators.h"

namespace topkmon {
namespace {

struct Fixture {
  std::vector<Record> records;
  std::unique_ptr<Grid> grid;
  LinearFunction f{{0.6, 0.8, 0.3, 0.9}};

  Fixture(int cells_per_axis, std::size_t n) {
    const int dim = 4;
    grid = std::make_unique<Grid>(dim, cells_per_axis);
    RecordSource source(
        MakeGenerator(Distribution::kIndependent, dim, 42));
    for (std::size_t i = 0; i < n; ++i) {
      records.push_back(source.Next(0));
      grid->InsertPoint(grid->LocateCell(records.back().position),
                        records.back().id, records.back().position);
    }
  }
};

void BM_HeapTraversal(benchmark::State& state) {
  const Fixture fixture(static_cast<int>(state.range(0)), 100000);
  const int k = static_cast<int>(state.range(1));
  TraversalScratch scratch;
  for (auto _ : state) {
    TopKComputation out =
        ComputeTopK(*fixture.grid, fixture.f, k, &scratch);
    benchmark::DoNotOptimize(out.result.data());
  }
  state.counters["cells"] = static_cast<double>(
      fixture.grid->num_cells());
}

void BM_NaiveSortAllCells(benchmark::State& state) {
  const Fixture fixture(static_cast<int>(state.range(0)), 100000);
  const int k = static_cast<int>(state.range(1));
  TraversalScratch scratch;
  for (auto _ : state) {
    TopKComputation out =
        ComputeTopKNaive(*fixture.grid, fixture.f, k, &scratch);
    benchmark::DoNotOptimize(out.result.data());
  }
  state.counters["cells"] = static_cast<double>(
      fixture.grid->num_cells());
}

// Sweep (cells per axis, k): the naive variant's cost is dominated by the
// grid size; the heap traversal's by the influence region only.
BENCHMARK(BM_HeapTraversal)
    ->ArgsProduct({{6, 9, 12, 15}, {1, 20, 100}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_NaiveSortAllCells)
    ->ArgsProduct({{6, 9, 12, 15}, {1, 20, 100}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace topkmon

BENCHMARK_MAIN();
