#include "replica/shipper.h"

#include <algorithm>

#include "journal/format.h"
#include "journal/journal_reader.h"
#include "util/fs.h"

namespace topkmon {

Result<ShipChunk> JournalShipper::Read(std::uint64_t segment,
                                       std::uint64_t offset,
                                       std::uint32_t max_bytes) const {
  ShipChunk chunk;
  chunk.segment = segment;
  chunk.offset = offset;

  auto segments = ListSegments(dir_);
  if (!segments.ok()) return segments.status();
  if (segments->empty()) return chunk;  // nothing journaled yet

  bool have_requested = false;
  bool have_newer = false;
  std::uint64_t next_after = 0;
  for (const SegmentInfo& info : *segments) {
    if (info.index == segment) have_requested = true;
    if (info.index > segment && (!have_newer || info.index < next_after)) {
      have_newer = true;
      next_after = info.index;
    }
  }
  if (!have_requested) {
    // The requested segment is gone (GC past a slow follower) or never
    // existed here (journal replaced / follower ahead). Either way the
    // only sound resume point is the oldest segment we do have — its
    // anchor snapshot makes the restart a complete catch-up.
    chunk.restart = true;
    chunk.next_segment = segments->front().index;
    return chunk;
  }

  const std::string path = dir_ + "/" + SegmentFileName(segment);
  auto file = fs::Open(path, fs::OpenMode::kReadOnly);
  if (!file.ok()) {
    if (file.status().code() == StatusCode::kNotFound) {
      // Deleted between the listing and the open: same as not listed.
      chunk.restart = true;
      chunk.next_segment = have_newer ? next_after : segment;
      return chunk;
    }
    return file.status();
  }
  const auto size = file->Size();
  if (!size.ok()) return size.status();
  if (offset > *size) {
    // The follower believes it has more of this segment than exists —
    // the journal was replaced under the same index. Full restart.
    chunk.restart = true;
    chunk.next_segment = segments->front().index;
    return chunk;
  }
  const std::uint32_t want = std::min<std::uint32_t>(
      max_bytes, static_cast<std::uint32_t>(
                     std::min<std::uint64_t>(*size - offset, 1u << 30)));
  chunk.data.resize(want);
  // A short read means the file was concurrently truncated; serve what
  // was read.
  const auto got = file->ReadAt(offset, chunk.data.data(), want);
  if (!got.ok()) return got.status();
  chunk.data.resize(*got);
  // A higher-indexed segment seals this one: no append will ever land
  // here again, so reaching `size` means the follower can move on.
  if (have_newer && offset + chunk.data.size() == *size) {
    chunk.sealed = true;
    chunk.next_segment = next_after;
  }
  return chunk;
}

Status JournalShipper::End(std::uint64_t* segment,
                           std::uint64_t* offset) const {
  *segment = 0;
  *offset = 0;
  auto segments = ListSegments(dir_);
  if (!segments.ok()) return segments.status();
  if (segments->empty()) return Status::Ok();
  const SegmentInfo& last = segments->back();
  auto file = fs::Open(dir_ + "/" + SegmentFileName(last.index),
                       fs::OpenMode::kReadOnly);
  const auto size = file.ok() ? file->Size() : file.status();
  if (!size.ok() && size.status().code() != StatusCode::kNotFound) {
    return size.status();
  }
  // Rotated away between the listing and the open (NotFound): report the
  // new segment at zero — the caller only needs a monotone lower bound.
  *segment = last.index;
  *offset = size.ok() ? *size : 0;
  return Status::Ok();
}

}  // namespace topkmon
