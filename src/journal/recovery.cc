#include "journal/recovery.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "journal/journal_reader.h"

namespace topkmon {
namespace {

/// Validates that journaled state is dimensionally compatible with the
/// engine before anything is applied (the wrong engine factory should
/// fail loudly, not corrupt silently).
Status CheckDims(const JournalSnapshot& snap, const MonitorEngine& engine) {
  if (!snap.window.empty() &&
      snap.window.front().position.dim() != engine.dim()) {
    return Status::FailedPrecondition(
        "journal window is " +
        std::to_string(snap.window.front().position.dim()) +
        "-dimensional but the engine expects " +
        std::to_string(engine.dim()));
  }
  for (const JournaledQuery& q : snap.live_queries) {
    TOPKMON_RETURN_IF_ERROR(q.spec.Validate(engine.dim()));
  }
  return Status::Ok();
}

}  // namespace

std::string RecoveryReport::ToString() const {
  std::ostringstream os;
  if (!recovered) {
    os << "no journal to recover (segments_found=" << segments_found << ")";
    return os.str();
  }
  os << "recovered from " << segment << ": cycles=" << cycles_replayed
     << " records=" << records_replayed << " registers=" << registers_replayed
     << " unregisters=" << unregisters_replayed
     << " live_queries=" << live_queries.size()
     << " window=" << window_size << " last_cycle_ts=" << last_cycle_ts
     << " next_record_id=" << next_record_id
     << " next_query_id=" << next_query_id;
  if (torn_tail || corrupt_record) {
    os << (corrupt_record ? " [corrupt record: " : " [torn tail: ")
       << tail_detail << ", " << tail_bytes_dropped << " bytes dropped]";
  }
  return os.str();
}

JournalApplier::JournalApplier(MonitorEngine& engine, Hooks hooks)
    : engine_(engine), hooks_(std::move(hooks)) {
  if (!hooks_.register_query) {
    hooks_.register_query = [this](const JournaledQuery& q) {
      return engine_.RegisterQuery(q.spec);
    };
  }
  if (!hooks_.unregister_query) {
    hooks_.unregister_query = [this](QueryId id) {
      return engine_.UnregisterQuery(id);
    };
  }
}

void JournalApplier::RegisterOne(const JournaledQuery& query) {
  const Status st = hooks_.register_query(query);
  if (!st.ok()) {
    ++apply_rejections_;
    return;
  }
  live_index_[query.spec.id] = live_.size();
  live_.push_back(query);
}

void JournalApplier::UnregisterOne(QueryId id) {
  const Status st = hooks_.unregister_query(id);
  auto it = live_index_.find(id);
  if (it != live_index_.end()) {
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(it->second));
    live_index_.clear();
    for (std::size_t i = 0; i < live_.size(); ++i) {
      live_index_[live_[i].spec.id] = i;
    }
  }
  if (!st.ok()) ++apply_rejections_;
}

Status JournalApplier::ApplyAnchor(JournalSnapshot anchor) {
  if (engine_.WindowSize() != 0) {
    return Status::FailedPrecondition(
        "anchor replay requires a freshly constructed engine");
  }
  TOPKMON_RETURN_IF_ERROR(CheckDims(anchor, engine_));

  // Restore the window image first, then the live query set: each
  // query's initial result is recomputed over the restored window,
  // exactly as at its original registration.
  EngineSnapshot image;
  image.last_cycle = anchor.last_cycle_ts;
  image.window = std::move(anchor.window);
  TOPKMON_RETURN_IF_ERROR(engine_.RestoreState(image));
  for (const JournaledQuery& q : anchor.live_queries) RegisterOne(q);

  records_applied_ = 1;  // the anchor snapshot
  last_cycle_ts_ = anchor.last_cycle_ts;
  next_record_id_ = anchor.next_record_id;
  next_query_id_ = anchor.next_query_id;
  return Status::Ok();
}

Status JournalApplier::Apply(const JournalRecord& record) {
  switch (record.type) {
    case JournalRecordType::kCycle: {
      const Status st = engine_.ProcessCycle(record.cycle_ts, record.batch);
      if (!st.ok()) {
        return Status::Internal(
            "journal replay diverged at cycle ts=" +
            std::to_string(record.cycle_ts) + ": " + st.ToString() +
            " (was this journal written by a differently configured "
            "engine?)");
      }
      ++cycles_applied_;
      last_cycle_ts_ = record.cycle_ts;
      if (!record.batch.empty()) {
        next_record_id_ =
            std::max(next_record_id_, record.batch.back().id + 1);
      }
      break;
    }
    case JournalRecordType::kRegister:
      RegisterOne(record.query);
      ++registers_applied_;
      next_query_id_ = std::max(
          next_query_id_,
          static_cast<std::uint64_t>(record.query.spec.id) + 1);
      break;
    case JournalRecordType::kUnregister:
      UnregisterOne(record.unregistered);
      ++unregisters_applied_;
      break;
    case JournalRecordType::kSnapshot:
      // A later segment's anchor snapshot describes exactly the state
      // this applier already reached by replaying the records before it
      // — skip it (continuous followers cross segment boundaries here).
      break;
  }
  ++records_applied_;
  return Status::Ok();
}

Result<RecoveryReport> RecoveryDriver::Replay(const std::string& dir,
                                              MonitorEngine& engine) {
  RecoveryReport report;
  auto segments = ListSegments(dir);
  if (!segments.ok()) return segments.status();
  report.segments_found = segments->size();

  AnchoredSegment start = OpenNewestAnchoredSegment(*segments);
  report.segments_skipped = start.skipped;
  if (start.reader == nullptr) {
    // Empty directory (or no segment survived with an anchor): fresh
    // start. Defaults in the report already say "begin from zero".
    return report;
  }
  report.segment = start.path;
  CycleJournalReader& reader = *start.reader;

  JournalApplier applier(engine);
  TOPKMON_RETURN_IF_ERROR(applier.ApplyAnchor(std::move(start.anchor)));
  report.recovered = true;

  // Replay everything the original process applied after the anchor.
  while (true) {
    CycleJournalReader::Outcome outcome = reader.Next();
    if (outcome.kind == CycleJournalReader::Kind::kEnd) break;
    if (outcome.kind == CycleJournalReader::Kind::kIoError) {
      // The bytes on disk may be intact — failing (so the operator can
      // retry) beats silently rolling state back to this offset.
      return Status::Internal("I/O error reading " + report.segment + ": " +
                              outcome.detail);
    }
    if (outcome.kind == CycleJournalReader::Kind::kTorn ||
        outcome.kind == CycleJournalReader::Kind::kCorrupt) {
      report.torn_tail = outcome.kind == CycleJournalReader::Kind::kTorn;
      report.corrupt_record =
          outcome.kind == CycleJournalReader::Kind::kCorrupt;
      report.tail_bytes_dropped = reader.file_size() - outcome.offset;
      report.tail_detail = outcome.detail;
      break;
    }
    TOPKMON_RETURN_IF_ERROR(applier.Apply(outcome.record));
  }

  report.cycles_replayed = applier.cycles_applied();
  report.records_replayed = applier.records_applied();
  report.registers_replayed = applier.registers_applied();
  report.unregisters_replayed = applier.unregisters_applied();
  report.apply_rejections = applier.apply_rejections();
  report.last_cycle_ts = applier.last_cycle_ts();
  report.next_record_id = applier.next_record_id();
  report.next_query_id = applier.next_query_id();
  report.live_queries = applier.live_queries();
  report.window_size = engine.WindowSize();
  return report;
}

}  // namespace topkmon
