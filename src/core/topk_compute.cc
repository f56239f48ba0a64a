#include "core/topk_compute.h"

#include <algorithm>

namespace topkmon {

namespace {

/// Scans one cell's point list, considering each point for the running
/// top-k list (Figure 6, lines 7-8). The coordinates come from the cell's
/// lane-major storage, one contiguous run at a time (two once the ring
/// wraps), oldest first: unconstrained scans batch-score a run with one
/// ScoreLanes call (auto-vectorizable); constrained scans filter per point
/// first so points outside R are neither scored nor counted (Figure 12:
/// point p1).
void ScanCell(const Grid& grid, CellIndex cell, const ScoringFunction& f,
              const Rect* constraint, TopKList* top,
              std::vector<double>* score_buf,
              std::uint64_t* points_scored) {
  const int dim = grid.dim();
  grid.PointsIn(cell).ForEachRun([&](const RecordId* ids,
                                     const double* const* lanes,
                                     std::size_t n) {
    if (constraint == nullptr) {
      score_buf->resize(n);
      double* scores = score_buf->data();
      f.ScoreLanes(lanes, n, scores);
      *points_scored += n;
      for (std::size_t i = 0; i < n; ++i) {
        const double score = scores[i];
        if (!top->full() || score >= top->KthScore()) {
          top->Consider(ids[i], score);
        }
      }
      return;
    }
    Point p(dim);
    for (std::size_t i = 0; i < n; ++i) {
      bool inside = true;
      for (int d = 0; d < dim; ++d) {
        const double v = lanes[d][i];
        if (v < constraint->lo()[d] || v > constraint->hi()[d]) {
          inside = false;
          break;
        }
      }
      if (!inside) continue;
      for (int d = 0; d < dim; ++d) p[d] = lanes[d][i];
      ++*points_scored;
      const double score = f.Score(p);
      if (!top->full() || score >= top->KthScore()) {
        top->Consider(ids[i], score);
      }
    }
  });
}

}  // namespace

TopKComputation ComputeTopK(const Grid& grid, const ScoringFunction& f,
                            int k, TraversalScratch* scratch,
                            const Rect* constraint) {
  assert(k >= 1);
  std::vector<CellIndex>& processed = scratch->processed();
  processed.clear();
  std::uint64_t points_scored = 0;
  TopKList top(k);
  MaxScoreTraversal traversal(grid, f, scratch, constraint);
  // Figure 6, line 5: de-heap while the next key can still contribute,
  // i.e. the result is incomplete or the key exceeds q.top_score.
  while (traversal.HasNext() &&
         (!top.full() || traversal.PeekMaxScore() > top.KthScore())) {
    const CellKey entry = traversal.Next();
    ScanCell(grid, entry.cell, f, constraint, &top, &scratch->scores(),
             &points_scored);
    processed.push_back(entry.cell);
  }
  return TopKComputation{top.TakeEntries(), processed,
                         traversal.RemainingFrontier(), points_scored};
}

TopKComputation ComputeTopKNaive(const Grid& grid, const ScoringFunction& f,
                                 int k, TraversalScratch* scratch,
                                 const Rect* constraint) {
  assert(k >= 1);
  std::vector<CellIndex>& processed = scratch->processed();
  processed.clear();
  scratch->frontier().clear();
  std::uint64_t points_scored = 0;
  TopKList top(k);
  // Compute the maxscore of every cell and sort descending (the expensive
  // strawman the heap traversal replaces, Section 4.2).
  struct CellScore {
    CellIndex cell;
    double maxscore;
  };
  std::vector<CellScore> order;
  order.reserve(grid.num_cells());
  for (CellIndex c = 0; c < grid.num_cells(); ++c) {
    const Rect bounds = grid.CellBounds(c);
    if (constraint != nullptr && !bounds.Intersects(*constraint)) continue;
    Rect clipped = bounds;
    if (constraint != nullptr) {
      Point lo(grid.dim());
      Point hi(grid.dim());
      for (int i = 0; i < grid.dim(); ++i) {
        lo[i] = std::max(bounds.lo()[i], constraint->lo()[i]);
        hi[i] = std::min(bounds.hi()[i], constraint->hi()[i]);
      }
      clipped = Rect(lo, hi);
    }
    order.push_back(CellScore{c, f.MaxScore(clipped)});
  }
  std::sort(order.begin(), order.end(),
            [](const CellScore& a, const CellScore& b) {
              return a.maxscore > b.maxscore;
            });
  for (const CellScore& cs : order) {
    if (top.full() && cs.maxscore <= top.KthScore()) break;
    ScanCell(grid, cs.cell, f, constraint, &top, &scratch->scores(),
             &points_scored);
    processed.push_back(cs.cell);
  }
  return TopKComputation{top.TakeEntries(), processed, scratch->frontier(),
                         points_scored};
}

}  // namespace topkmon
