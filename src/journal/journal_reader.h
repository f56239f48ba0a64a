// CycleJournalReader — read side of the durable cycle journal.
//
// A reader iterates the records of one segment file in append order,
// verifying the frame CRC of every record before decoding it. The two
// failure shapes a write-ahead log must distinguish:
//   * torn tail — the file ends mid-frame (crash during the last append).
//     Expected after any unclean stop; recovery silently truncates it.
//   * corrupt record — a complete frame whose CRC or content check fails
//     (bit rot, external modification). Everything from the first corrupt
//     record on is untrusted and dropped, and recovery reports it.
// In both cases nothing after the damage is returned: record N is only
// trustworthy if records 1..N-1 were.

#ifndef TOPKMON_JOURNAL_JOURNAL_READER_H_
#define TOPKMON_JOURNAL_JOURNAL_READER_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "journal/format.h"

namespace topkmon {

/// One segment file found in a journal directory.
struct SegmentInfo {
  std::uint64_t index = 0;
  std::string path;
};

/// Segment files in `dir`, sorted by ascending index. A missing directory
/// yields an empty list (a journal that was never written is not an
/// error); other I/O failures are.
Result<std::vector<SegmentInfo>> ListSegments(const std::string& dir);

/// Sequential reader over one segment file.
class CycleJournalReader {
 public:
  /// What Next() found at the current position.
  enum class Kind {
    kRecord,   ///< a valid record was decoded
    kEnd,      ///< clean end of segment
    kTorn,     ///< file ends mid-frame (crash tail) — stop and truncate
    kCorrupt,  ///< CRC or content check failed — stop and report
    kIoError,  ///< read(2)-level failure (EIO, not end-of-file): the
               ///< data on disk may be fine — recovery must fail, not
               ///< silently truncate
  };

  struct Outcome {
    Kind kind = Kind::kEnd;
    JournalRecord record;      ///< meaningful iff kind == kRecord
    std::uint64_t offset = 0;  ///< file offset where this outcome begins
    std::string detail;        ///< human-readable cause for kTorn/kCorrupt
  };

  /// Opens a segment and validates its header. InvalidArgument /
  /// Unimplemented for non-journal or newer-version files; a file shorter
  /// than the header is reported as InvalidArgument too (a segment torn
  /// before its anchor snapshot holds nothing recoverable).
  static Result<std::unique_ptr<CycleJournalReader>> Open(
      const std::string& path);

  ~CycleJournalReader();

  CycleJournalReader(const CycleJournalReader&) = delete;
  CycleJournalReader& operator=(const CycleJournalReader&) = delete;

  /// Reads the next record. After anything other than kRecord the reader
  /// is exhausted and keeps returning the same terminal outcome kind.
  Outcome Next();

  /// Current file offset (end of the last good record).
  std::uint64_t offset() const { return offset_; }

  /// Total file size in bytes.
  std::uint64_t file_size() const { return file_size_; }

 private:
  CycleJournalReader(std::FILE* file, std::uint64_t file_size);

  std::FILE* file_;
  std::uint64_t file_size_;
  std::uint64_t offset_ = 0;
  bool done_ = false;
  Kind terminal_ = Kind::kEnd;
  std::string buffer_;
};

/// The segment a replay starts from: the newest one whose leading anchor
/// snapshot is intact. A newer segment without one can only come from a
/// crash mid-rotation (or a ship stopped mid-anchor), before the older
/// segments were garbage-collected, so the search falls back past it.
/// Crash recovery and the follower's bootstrap share this rule.
struct AnchoredSegment {
  /// Positioned just past the anchor; null when no segment qualifies.
  std::unique_ptr<CycleJournalReader> reader;
  JournalSnapshot anchor;
  std::string path;
  std::uint64_t index = 0;
  /// Segments passed over, newest first, for want of an intact anchor.
  std::uint64_t skipped = 0;
};

/// Opens the newest anchored segment of `segments` (ascending index, as
/// ListSegments returns them).
AnchoredSegment OpenNewestAnchoredSegment(
    const std::vector<SegmentInfo>& segments);

}  // namespace topkmon

#endif  // TOPKMON_JOURNAL_JOURNAL_READER_H_
