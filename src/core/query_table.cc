#include "core/query_table.h"

#include <algorithm>
#include <cassert>
#include <optional>

namespace topkmon {

namespace {

/// The intersection [max(lo), min(hi)] of two rectangles of equal
/// dimensionality, or nullopt when they are disjoint.
std::optional<Rect> IntersectRects(const Rect& a, const Rect& b) {
  assert(a.dim() == b.dim());
  Point lo(a.dim());
  Point hi(a.dim());
  for (int i = 0; i < a.dim(); ++i) {
    lo[i] = std::max(a.lo()[i], b.lo()[i]);
    hi[i] = std::min(a.hi()[i], b.hi()[i]);
    if (lo[i] > hi[i]) return std::nullopt;
  }
  return Rect(lo, hi);
}

}  // namespace

Status QueryTable::Register(const QuerySpec& spec, Timestamp now) {
  TOPKMON_RETURN_IF_ERROR(spec.Validate(dim_));
  if (IsInternalQueryId(spec.id)) return ReservedQueryIdError(spec.id);
  if (entries_->HasEntry(spec.id) || parents_.count(spec.id) > 0) {
    return DuplicateQueryIdError(spec.id);
  }
  if (spec.function->IsMonotone()) {
    entries_->AddEntry(spec);
    if (delta_.enabled()) {
      std::vector<ResultEntry> top_k;
      entries_->AppendTopK(spec.id, &top_k);
      delta_.Report(spec.id, now, top_k);
    }
    return Status::Ok();
  }
  const auto* fn = dynamic_cast<const PiecewiseFunction*>(spec.function.get());
  if (fn == nullptr) {
    return Status::Unimplemented(
        engine_ +
        " requires a per-dimension monotone or piecewise-monotone "
        "scoring function; got '" + spec.function->ToString() + "'");
  }
  Result<std::vector<QuerySpec>> subs = DecomposePiecewise(spec, *fn);
  if (!subs.ok()) return subs.status();
  Parent parent;
  parent.k = spec.k;
  parent.subs.reserve(subs->size());
  for (const QuerySpec& sub : *subs) {
    entries_->AddEntry(sub);
    parent.subs.push_back(sub.id);
  }
  const auto it = parents_.emplace(spec.id, std::move(parent)).first;
  if (delta_.enabled()) delta_.Report(spec.id, now, Merged(it->second));
  return Status::Ok();
}

Result<std::vector<QuerySpec>> QueryTable::DecomposePiecewise(
    const QuerySpec& spec, const PiecewiseFunction& fn) {
  const Rect base = spec.constraint.has_value()
                        ? *spec.constraint
                        : Rect::UnitSpace(fn.dim());
  std::vector<QuerySpec> subs;
  subs.reserve(fn.pieces().size());
  for (std::size_t i = 0; i < fn.pieces().size(); ++i) {
    const MonotonePiece& piece = fn.pieces()[i];
    if (!piece.function->IsMonotone()) {
      return Status::InvalidArgument(
          "piecewise piece " + std::to_string(i) +
          " has a non-monotone function; pieces must be monotone");
    }
    const std::optional<Rect> clipped = IntersectRects(piece.domain, base);
    if (!clipped.has_value()) continue;  // piece misses the constraint
    QuerySpec sub;
    sub.id = next_internal_id_++;
    sub.k = spec.k;
    sub.function = piece.function;
    sub.constraint = *clipped;
    subs.push_back(std::move(sub));
  }
  return subs;
}

Status QueryTable::Unregister(QueryId id) {
  auto it = parents_.find(id);
  if (it != parents_.end()) {
    for (QueryId sid : it->second.subs) entries_->RemoveEntry(sid);
    parents_.erase(it);
  } else if (IsInternalQueryId(id) || !entries_->RemoveEntry(id)) {
    // Internal sub-queries are invisible to callers.
    return UnknownQueryIdError(id);
  }
  delta_.Forget(id);
  return Status::Ok();
}

Result<std::vector<ResultEntry>> QueryTable::CurrentResult(QueryId id) const {
  auto it = parents_.find(id);
  if (it != parents_.end()) return Merged(it->second);
  std::vector<ResultEntry> top_k;
  if (IsInternalQueryId(id) || !entries_->AppendTopK(id, &top_k)) {
    return UnknownQueryIdError(id);
  }
  return top_k;
}

void QueryTable::ReportCycle(Timestamp now) {
  if (!delta_.enabled()) return;
  entries_->ReportEntries(*this, now);
  for (const auto& [pid, parent] : parents_) {
    delta_.Report(pid, now, Merged(parent));
  }
}

void QueryTable::ReportEntry(QueryId id, Timestamp now,
                             const std::vector<ResultEntry>& top_k) {
  if (!IsInternalQueryId(id)) delta_.Report(id, now, top_k);
}

std::vector<ResultEntry> QueryTable::Merged(const Parent& parent) const {
  std::vector<ResultEntry> merged;
  for (QueryId sid : parent.subs) entries_->AppendTopK(sid, &merged);
  std::sort(merged.begin(), merged.end(), ResultOrder);
  std::vector<ResultEntry> result;
  result.reserve(std::min(merged.size(), static_cast<std::size_t>(parent.k)));
  for (const ResultEntry& e : merged) {
    if (!result.empty() && result.back().id == e.id) continue;
    result.push_back(e);
    if (static_cast<int>(result.size()) == parent.k) break;
  }
  return result;
}

}  // namespace topkmon
