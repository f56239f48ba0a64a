#include "core/tma_engine.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "core/influence.h"

namespace topkmon {

int GridEngineOptions::ResolvedCellsPerAxis() const {
  if (cells_per_axis > 0) return cells_per_axis;
  return Grid::CellsPerAxisForBudget(dim, cell_budget);
}

Status GridWindow::Push(RecordId id, Timestamp arrival, CellIndex cell,
                        const Point& position) {
  assert(position.dim() == dim_);
  TOPKMON_RETURN_IF_ERROR(Admit(id, arrival));
  const std::size_t at = head_ + size() - 1;
  if (at == chunks_.size() * kChunkRecords) {
    chunks_.emplace_back(new unsigned char[ChunkBytes()]);
  }
  const std::size_t chunk = at / kChunkRecords;
  const std::size_t slot = at % kChunkRecords;
  Arrivals(chunk)[slot] = arrival;
  std::copy_n(position.data(), dim_,
              Coords(chunk) + slot * static_cast<std::size_t>(dim_));
  Cells(chunk)[slot] = cell;
  return Status::Ok();
}

void GridWindow::PopFront() {
  Retire();
  if (++head_ == kChunkRecords) {
    chunks_.pop_front();
    head_ = 0;
  }
}

void GridWindow::Gather(const PointHandle* handles, std::size_t n,
                        RecordId* ids, double* const* lanes) const {
  for (std::size_t i = 0; i < n; ++i) {
    ids[i] = IdOf(handles[i]);
    assert(Contains(ids[i]));
    const std::size_t at = head_ + static_cast<std::size_t>(ids[i] - front_id());
    const double* coords =
        Coords(at / kChunkRecords) +
        (at % kChunkRecords) * static_cast<std::size_t>(dim_);
    for (int d = 0; d < dim_; ++d) lanes[d][i] = coords[d];
  }
}

void VisitGridWindow(const GridWindow& window, Timestamp last_cycle,
                     WindowVisitor& visitor) {
  visitor.Begin(last_cycle, window.size());
  Point p(window.dim());
  window.ForEach([&visitor, &p](RecordId id, Timestamp arrival,
                                const double* coords) {
    for (int d = 0; d < p.dim(); ++d) p[d] = coords[d];
    visitor.Visit(id, p, arrival);
  });
}

TmaEngine::TmaEngine(const GridEngineOptions& options)
    : arrivals_first_(options.arrivals_before_expirations),
      grid_(options.dim, options.ResolvedCellsPerAxis()),
      window_(options.window, options.dim),
      table_(name(), options.dim, this) {}

void TmaEngine::AddEntry(const QuerySpec& spec) {
  auto [it, inserted] = queries_.emplace(spec.id, QueryState(spec));
  ++stats_.initial_computations;
  Recompute(it->second, /*fresh=*/true);
}

bool TmaEngine::RemoveEntry(QueryId id) {
  auto it = queries_.find(id);
  if (it == queries_.end()) return false;
  RemoveAllInfluence(grid_, it->second.spec, &scratch_);
  queries_.erase(it);
  return true;
}

bool TmaEngine::AppendTopK(QueryId id, std::vector<ResultEntry>* out) const {
  auto it = queries_.find(id);
  if (it == queries_.end()) return false;
  const std::vector<ResultEntry>& entries = it->second.top_list.entries();
  out->insert(out->end(), entries.begin(), entries.end());
  return true;
}

void TmaEngine::ReportEntries(QueryTable& table, Timestamp now) const {
  for (const auto& [qid, state] : queries_) {
    if (IsInternalQueryId(qid)) continue;  // reported through its parent
    table.ReportEntry(qid, now, state.top_list.entries());
  }
}

Status TmaEngine::ProcessCycle(Timestamp now, RecordSpan arrivals) {
  Stopwatch watch;
  ++stats_.cycles;
  // Admit arrivals into the window first so that both batches (Pins and
  // Pdel) are known; their *processing* order is configurable.
  for (const Record& p : arrivals) {
    TOPKMON_RETURN_IF_ERROR(ValidatePoint(p.position, dim()));
    TOPKMON_RETURN_IF_ERROR(window_.Push(
        p.id, p.arrival, grid_.LocateCell(p.position), p.position));
  }
  const auto expire = [this](RecordId id, CellIndex cell) {
    HandleExpiry(id, cell);
  };
  if (!arrivals_first_) {
    // Ablation order: expirations first mark queries affected even when an
    // arrival in the same cycle would have covered them. An arrival that
    // expires in its own cycle is not in the grid yet; it goes last.
    window_.PopExpired(now, expire,
                       arrivals.empty() ? kInvalidRecordId
                                        : arrivals.front().id);
  }
  // Pins before Pdel (Figure 9): an arrival that beats the expiring kth
  // record replaces it before the expiration is seen, avoiding a needless
  // recomputation (Section 4.3).
  for (const Record& p : arrivals) HandleArrival(p, window_.CellOf(p.id));
  window_.PopExpired(now, expire);
  // -- Recompute affected queries from scratch (lines 12-21) ---------------
  for (auto& [qid, state] : queries_) {
    if (!state.affected) continue;
    state.affected = false;
    ++stats_.recomputations;
    ++stats_.result_changes;
    Recompute(state, /*fresh=*/false);
  }
  last_cycle_ = now;
  table_.ReportCycle(now);
  stats_.maintenance_seconds += watch.ElapsedSeconds();
  return Status::Ok();
}

void TmaEngine::HandleArrival(const Record& p, CellIndex cell) {
  grid_.InsertPoint(cell, WindowHandle(p.id));
  ++stats_.arrivals;
  for (QueryId qid : grid_.InfluenceList(cell)) {
    QueryState& state = queries_.at(qid);
    if (state.spec.constraint.has_value() &&
        !state.spec.constraint->Contains(p.position)) {
      continue;  // constrained query: update outside R (Section 7)
    }
    ++stats_.points_scored;
    const double score = state.spec.function->Score(p.position);
    if (score >= state.top_list.KthScore()) {
      if (state.top_list.Consider(p.id, score)) ++stats_.result_changes;
    }
  }
}

void TmaEngine::HandleExpiry(RecordId id, CellIndex cell) {
  grid_.ErasePointFifo(cell, WindowHandle(id));
  ++stats_.expirations;
  for (QueryId qid : grid_.InfluenceList(cell)) {
    QueryState& state = queries_.at(qid);
    if (state.top_list.Contains(id)) state.affected = true;
  }
}

void TmaEngine::Recompute(QueryState& state, bool fresh) {
  const TopKComputation computation =
      RecomputeFromScratch(grid_, window_, state.spec, fresh, &scratch_,
                           &stats_);
  state.top_list.Clear();
  for (const ResultEntry& e : computation.result) {
    state.top_list.Consider(e.id, e.score);
  }
}

MemoryBreakdown TmaEngine::Memory() const {
  MemoryBreakdown mb = grid_.Memory();
  mb.Add("window", window_.MemoryBytes());
  std::size_t query_bytes = 0;
  for (const auto& [qid, state] : queries_) {
    // Scoring function parameters (O(d)) + the result list (O(2k): id and
    // score per entry) — the paper's O(d + 2k) query-table entry.
    query_bytes += sizeof(QueryState) + state.top_list.MemoryBytes() +
                   static_cast<std::size_t>(dim()) * sizeof(double);
  }
  mb.Add("query_table", query_bytes);
  mb.Add("scratch", scratch_.MemoryBytes());
  return mb;
}

}  // namespace topkmon
