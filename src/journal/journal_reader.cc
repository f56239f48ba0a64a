#include "journal/journal_reader.h"

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "journal/wire.h"

namespace topkmon {
namespace {

/// Bytes read from the file per refill.
constexpr std::size_t kReadBytes = 64u << 10;

ssize_t ReadAt(int fd, char* buf, std::size_t n, std::uint64_t offset) {
  ssize_t got;
  do {
    got = ::pread(fd, buf, n, static_cast<off_t>(offset));
  } while (got < 0 && errno == EINTR);
  return got;
}

}  // namespace

Result<std::vector<SegmentInfo>> ListSegments(const std::string& dir) {
  std::vector<SegmentInfo> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return out;
    return Status::Internal("opendir " + dir + ": " + std::strerror(errno));
  }
  while (const dirent* entry = ::readdir(d)) {
    std::uint64_t index = 0;
    if (ParseSegmentFileName(entry->d_name, &index)) {
      out.push_back(SegmentInfo{index, dir + "/" + entry->d_name});
    }
  }
  ::closedir(d);
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

CycleJournalReader::~CycleJournalReader() { ::close(fd_); }

Result<std::unique_ptr<CycleJournalReader>> CycleJournalReader::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound("cannot open journal segment " + path + ": " +
                            std::strerror(errno));
  }
  std::unique_ptr<CycleJournalReader> reader(new CycleJournalReader(fd));
  char header[kSegmentHeaderBytes];
  const ssize_t got = ReadAt(fd, header, sizeof(header), 0);
  if (got < 0) {
    return Status::Internal("read " + path + ": " + std::strerror(errno));
  }
  if (static_cast<std::size_t>(got) != sizeof(header)) {
    return Status::InvalidArgument("journal segment " + path +
                                   " is shorter than its header");
  }
  TOPKMON_RETURN_IF_ERROR(DecodeSegmentHeader(header, sizeof(header)));
  return reader;
}

std::uint64_t CycleJournalReader::file_size() const {
  struct stat st;
  if (::fstat(fd_, &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.st_size);
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
    const ssize_t got = ReadAt(fd_, &buffer_[have], kReadBytes,
                               offset_ + have);
    if (got < 0) {
      const int err = errno;
      return Fail(Kind::kIoError,
                  std::string("read error: ") + std::strerror(err),
                  std::move(out));
    }
    buffer_.resize(have + static_cast<std::size_t>(got));
    if (got == 0) {
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
