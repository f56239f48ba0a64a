#include "core/skyline_monitor.h"

#include <algorithm>

namespace topkmon {

bool Dominates(const Point& a, const Point& b) {
  assert(a.dim() == b.dim());
  bool strict = false;
  for (int i = 0; i < a.dim(); ++i) {
    if (a[i] < b[i]) return false;
    if (a[i] > b[i]) strict = true;
  }
  return strict;
}

bool DominatesOrEquals(const Point& a, const Point& b) {
  assert(a.dim() == b.dim());
  for (int i = 0; i < a.dim(); ++i) {
    if (a[i] < b[i]) return false;
  }
  return true;
}

SkylineMonitor::SkylineMonitor(int dim, const WindowSpec& window)
    : dim_(dim),
      window_(window) {
  assert(dim >= 1 && dim <= kMaxDims);
}

Status SkylineMonitor::ProcessCycle(Timestamp now,
                                    const std::vector<Record>& arrivals) {
  Stopwatch watch;
  ++stats_.cycles;
  for (const Record& p : arrivals) {
    TOPKMON_RETURN_IF_ERROR(ValidatePoint(p.position, dim_));
    TOPKMON_RETURN_IF_ERROR(window_.Append(p));
    ++stats_.arrivals;
    // Discard candidates the new record strictly dominates: it is better
    // on some attribute, no worse anywhere, and expires later, so they
    // can never (re-)enter the skyline. Exact duplicates are kept — the
    // classic skyline definition reports all copies of an undominated
    // coordinate vector.
    const auto dominated = [&p, this](const Record& c) {
      ++stats_.points_scored;
      return Dominates(p.position, c.position);
    };
    candidates_.erase(
        std::remove_if(candidates_.begin(), candidates_.end(), dominated),
        candidates_.end());
    candidates_.push_back(p);
  }
  for (const Record& p : window_.EvictExpired(now)) {
    ++stats_.expirations;
    // Candidates are stored in arrival order, so an expiring record can
    // only be the front candidate.
    if (!candidates_.empty() && candidates_.front().id == p.id) {
      candidates_.pop_front();
      ++stats_.result_changes;
    }
  }
  stats_.maintenance_seconds += watch.ElapsedSeconds();
  return Status::Ok();
}

std::vector<Record> SkylineMonitor::CurrentSkyline() const {
  std::vector<Record> skyline;
  for (const Record& c : candidates_) {
    bool dominated = false;
    for (const Record& other : candidates_) {
      if (other.id != c.id && Dominates(other.position, c.position)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) skyline.push_back(c);
  }
  return skyline;
}

MemoryBreakdown SkylineMonitor::Memory() const {
  MemoryBreakdown mb;
  mb.Add("window", window_.MemoryBytes());
  mb.Add("candidates", candidates_.size() * sizeof(Record));
  return mb;
}

}  // namespace topkmon
