#include "journal/journal_reader.h"

#include <algorithm>
#include <utility>

#include "journal/wire.h"

namespace topkmon {
namespace {

/// Bytes read from the file per refill.
constexpr std::size_t kReadBytes = 64u << 10;

}  // namespace

Result<std::vector<SegmentInfo>> ListSegments(const std::string& dir) {
  std::vector<SegmentInfo> out;
  auto names = fs::ListDir(dir);
  if (!names.ok()) {
    if (names.status().code() == StatusCode::kNotFound) return out;
    return names.status();
  }
  for (const std::string& name : *names) {
    std::uint64_t index = 0;
    if (ParseSegmentFileName(name, &index)) {
      out.push_back(SegmentInfo{index, dir + "/" + name});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SegmentInfo& a, const SegmentInfo& b) {
              return a.index < b.index;
            });
  return out;
}

AnchoredSegment OpenNewestAnchoredSegment(
    const std::vector<SegmentInfo>& segments) {
  AnchoredSegment found;
  for (auto it = segments.rbegin(); it != segments.rend(); ++it) {
    auto candidate = CycleJournalReader::Open(it->path);
    if (!candidate.ok()) {
      ++found.skipped;
      continue;
    }
    CycleJournalReader::Outcome first = (*candidate)->Next();
    if (first.kind != CycleJournalReader::Kind::kRecord ||
        first.record.type != JournalRecordType::kSnapshot) {
      ++found.skipped;
      continue;
    }
    found.reader = std::move(*candidate);
    found.anchor = std::move(first.record.snapshot);
    found.path = it->path;
    found.index = it->index;
    break;
  }
  return found;
}

Result<std::unique_ptr<CycleJournalReader>> CycleJournalReader::Open(
    const std::string& path) {
  auto file = fs::Open(path, fs::OpenMode::kReadOnly);
  if (!file.ok()) return file.status();
  char header[kSegmentHeaderBytes];
  const auto got = file->ReadAt(0, header, sizeof(header));
  if (!got.ok()) return got.status();
  if (*got != sizeof(header)) {
    return Status::InvalidArgument("journal segment " + path +
                                   " is shorter than its header");
  }
  TOPKMON_RETURN_IF_ERROR(DecodeSegmentHeader(header, sizeof(header)));
  return std::unique_ptr<CycleJournalReader>(
      new CycleJournalReader(std::move(*file)));
}

std::uint64_t CycleJournalReader::file_size() const {
  const auto size = file_.Size();
  return size.ok() ? *size : 0;
}

void CycleJournalReader::DropReadAhead() {
  buffer_.clear();
  pos_ = 0;
}

CycleJournalReader::Outcome CycleJournalReader::Fail(Kind kind,
                                                     std::string detail,
                                                     Outcome out) {
  terminal_ = kind;
  out.kind = kind;
  out.detail = std::move(detail);
  return out;
}

CycleJournalReader::Outcome CycleJournalReader::Next() {
  Outcome out;
  out.offset = offset_;
  if (terminal_ != Kind::kRecord) {
    out.kind = terminal_;
    return out;
  }
  while (true) {
    const char* body = nullptr;
    std::size_t body_len = 0;
    std::size_t consumed = 0;
    Status error;
    const wire::FrameParse parse =
        wire::TryParseFrame(buffer_.data() + pos_, buffer_.size() - pos_,
                            kMaxRecordBytes, &body, &body_len, &consumed,
                            &error);
    if (parse == wire::FrameParse::kBad) {
      return Fail(Kind::kCorrupt, error.message(), std::move(out));
    }
    if (parse == wire::FrameParse::kFrame) {
      error = DecodeBody(body, body_len, &out.record);
      if (!error.ok()) {
        return Fail(Kind::kCorrupt, error.message(), std::move(out));
      }
      pos_ += consumed;
      offset_ += consumed;
      out.kind = Kind::kRecord;
      return out;
    }
    // kNeedMore: refill behind the unread bytes. A length that points
    // past the end of the file reads up to it and ends torn, so a
    // damaged prefix never buffers more than the file holds.
    buffer_.erase(0, pos_);
    pos_ = 0;
    const std::size_t have = buffer_.size();
    buffer_.resize(have + kReadBytes);
    const auto got = file_.ReadAt(offset_ + have, &buffer_[have], kReadBytes);
    if (!got.ok()) {
      return Fail(Kind::kIoError, got.status().message(), std::move(out));
    }
    buffer_.resize(have + *got);
    if (*got == 0) {
      out.kind = have == 0 ? Kind::kEnd : Kind::kTorn;
      if (have != 0) {
        out.detail = "file ends " + std::to_string(have) +
                     " bytes into a frame";
      }
      return out;
    }
  }
}

}  // namespace topkmon
