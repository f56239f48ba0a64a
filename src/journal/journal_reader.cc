#include "journal/journal_reader.h"

#include <dirent.h>
#include <errno.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstring>
#include <utility>

namespace topkmon {
namespace {

std::uint32_t ReadU32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
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

CycleJournalReader::CycleJournalReader(std::FILE* file,
                                       std::uint64_t file_size)
    : file_(file), file_size_(file_size), offset_(kSegmentHeaderBytes) {}

CycleJournalReader::~CycleJournalReader() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<std::unique_ptr<CycleJournalReader>> CycleJournalReader::Open(
    const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("cannot open journal segment " + path + ": " +
                            std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fileno(file), &st) != 0) {
    std::fclose(file);
    return Status::Internal("fstat " + path + ": " + std::strerror(errno));
  }
  char header[kSegmentHeaderBytes];
  if (std::fread(header, 1, sizeof(header), file) != sizeof(header)) {
    std::fclose(file);
    return Status::InvalidArgument("journal segment " + path +
                                   " is shorter than its header");
  }
  const Status hs = DecodeSegmentHeader(header, sizeof(header));
  if (!hs.ok()) {
    std::fclose(file);
    return hs;
  }
  return std::unique_ptr<CycleJournalReader>(new CycleJournalReader(
      file, static_cast<std::uint64_t>(st.st_size)));
}

CycleJournalReader::Outcome CycleJournalReader::Next() {
  Outcome out;
  out.offset = offset_;
  if (done_) {
    out.kind = terminal_;
    return out;
  }

  char prologue[kFrameHeaderBytes];
  const std::size_t got = std::fread(prologue, 1, sizeof(prologue), file_);
  if (got < sizeof(prologue) && std::ferror(file_)) {
    done_ = true;
    terminal_ = Kind::kIoError;
    out.kind = Kind::kIoError;
    out.detail = "read error in frame prologue";
    return out;
  }
  if (got == 0 && std::feof(file_)) {
    done_ = true;
    terminal_ = Kind::kEnd;
    out.kind = Kind::kEnd;
    return out;
  }
  if (got < sizeof(prologue)) {
    done_ = true;
    terminal_ = Kind::kTorn;
    out.kind = Kind::kTorn;
    out.detail = "frame prologue truncated (" + std::to_string(got) + " of " +
                 std::to_string(sizeof(prologue)) + " bytes)";
    return out;
  }

  const std::uint32_t body_len = ReadU32(prologue);
  const std::uint32_t expected_crc = ReadU32(prologue + 4);
  if (body_len == 0 || body_len > kMaxRecordBytes) {
    done_ = true;
    terminal_ = Kind::kCorrupt;
    out.kind = Kind::kCorrupt;
    out.detail = "implausible frame length " + std::to_string(body_len);
    return out;
  }
  // A length that points past the end of the file is a torn append (the
  // prologue landed, the body did not), not bit rot.
  if (out.offset + kFrameHeaderBytes + body_len > file_size_) {
    done_ = true;
    terminal_ = Kind::kTorn;
    out.kind = Kind::kTorn;
    out.detail = "frame body extends past end of file";
    return out;
  }

  buffer_.resize(body_len);
  if (std::fread(&buffer_[0], 1, body_len, file_) != body_len) {
    done_ = true;
    if (std::ferror(file_)) {
      terminal_ = Kind::kIoError;
      out.kind = Kind::kIoError;
      out.detail = "read error in frame body";
    } else {
      terminal_ = Kind::kTorn;
      out.kind = Kind::kTorn;
      out.detail = "frame body truncated";
    }
    return out;
  }
  const std::uint32_t actual_crc = Crc32(buffer_.data(), buffer_.size());
  if (actual_crc != expected_crc) {
    done_ = true;
    terminal_ = Kind::kCorrupt;
    out.kind = Kind::kCorrupt;
    out.detail = "CRC mismatch (stored " + std::to_string(expected_crc) +
                 ", computed " + std::to_string(actual_crc) + ")";
    return out;
  }
  const Status ds = DecodeBody(buffer_.data(), buffer_.size(), &out.record);
  if (!ds.ok()) {
    done_ = true;
    terminal_ = Kind::kCorrupt;
    out.kind = Kind::kCorrupt;
    out.detail = ds.message();
    return out;
  }
  offset_ += kFrameHeaderBytes + body_len;
  out.kind = Kind::kRecord;
  return out;
}

}  // namespace topkmon
