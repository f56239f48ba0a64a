// CycleJournalReader — read side of the durable cycle journal.
//
// A reader iterates the records of one segment file in append order. It
// refills a buffer from the file and cuts frames out of it with the one
// frame codec (wire::TryParseFrame), so every record's CRC is verified
// before it is decoded. The two damage shapes a write-ahead log must
// distinguish:
//   * torn tail — the file ends mid-frame (crash during the last append,
//     or a shipped copy still being written). Expected after any unclean
//     stop; recovery silently truncates it.
//   * corrupt record — a complete frame whose CRC or content check fails
//     (bit rot, external modification). Everything from the first corrupt
//     record on is untrusted and dropped, and recovery reports it.
// In both cases nothing after the damage is returned: record N is only
// trustworthy if records 1..N-1 were.

#ifndef TOPKMON_JOURNAL_JOURNAL_READER_H_
#define TOPKMON_JOURNAL_JOURNAL_READER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "journal/format.h"
#include "util/fs.h"

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
///
/// Terminal-outcome contract: kCorrupt and kIoError are terminal, and
/// every later Next() returns the same kind. kEnd and kTorn are not:
/// they describe the file as it is now, so a later Next() reads the
/// bytes appended since (the replication follower reads its shipped
/// segment while chunks are still being appended). Crash recovery stops
/// at the first of either.
class CycleJournalReader {
 public:
  /// What Next() found at the current position.
  enum class Kind {
    kRecord,   ///< a valid record was decoded
    kEnd,      ///< no bytes past the last record (yet)
    kTorn,     ///< file ends mid-frame (crash tail, or a frame whose
               ///< rest has not been appended yet)
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

  CycleJournalReader(const CycleJournalReader&) = delete;
  CycleJournalReader& operator=(const CycleJournalReader&) = delete;

  /// Reads the next record (see the class comment for what follows a
  /// non-record outcome).
  Outcome Next();

  /// Current file offset (end of the last good record).
  std::uint64_t offset() const { return offset_; }

  /// Current file size in bytes (0 if it cannot be read).
  std::uint64_t file_size() const;

  /// Forgets the bytes read past offset(), so the next Next() reads the
  /// file from offset() again. Call after truncating the file there.
  void DropReadAhead();

 private:
  explicit CycleJournalReader(fs::File file) : file_(std::move(file)) {}

  /// Latches the terminal `kind` and returns `out` carrying it.
  Outcome Fail(Kind kind, std::string detail, Outcome out);

  fs::File file_;
  std::uint64_t offset_ = kSegmentHeaderBytes;
  /// buffer_[pos_..] holds the file bytes that follow offset_.
  std::string buffer_;
  std::size_t pos_ = 0;
  Kind terminal_ = Kind::kRecord;  ///< kCorrupt / kIoError once failed
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
