#include "replica/lease.h"

#include <cerrno>
#include <cstdlib>

#include "util/fs.h"

namespace topkmon {
namespace {

constexpr const char* kEpochFile = "EPOCH";

}  // namespace

Result<std::uint64_t> ReadFencingEpoch(const std::string& dir) {
  const std::string path = dir + "/" + kEpochFile;
  auto body = fs::ReadFile(path, 31);  // a u64 needs 20 digits
  if (!body.ok()) {
    if (body.status().code() == StatusCode::kNotFound) return std::uint64_t{0};
    return body.status();
  }
  const char* text = body->c_str();
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || (*end != '\0' && *end != '\n')) {
    return Status::Internal("corrupt fencing-epoch file " + path);
  }
  return static_cast<std::uint64_t>(value);
}

Status WriteFencingEpoch(const std::string& dir, std::uint64_t epoch) {
  TOPKMON_RETURN_IF_ERROR(fs::MakeDirs(dir));
  // Write-temp, fsync, rename, fsync dir: the same crash discipline as
  // journal sealing.
  return fs::ReplaceDurable(dir, kEpochFile, std::to_string(epoch) + "\n");
}

}  // namespace topkmon
