#include "replica/lease.h"

#include <errno.h>
#include <fcntl.h>
#include <stdio.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstring>

#include "util/fs.h"

namespace topkmon {
namespace {

constexpr const char* kEpochFile = "EPOCH";

std::string EpochPath(const std::string& dir) {
  return dir + "/" + kEpochFile;
}

}  // namespace

Result<std::uint64_t> ReadFencingEpoch(const std::string& dir) {
  const std::string path = EpochPath(dir);
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (errno == ENOENT) return std::uint64_t{0};
    return fs::ErrnoStatus("open " + path, errno);
  }
  char buf[32];
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, file);
  std::fclose(file);
  buf[n] = '\0';
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(buf, &end, 10);
  if (errno != 0 || end == buf || (*end != '\0' && *end != '\n')) {
    return Status::Internal("corrupt fencing-epoch file " + path);
  }
  return static_cast<std::uint64_t>(value);
}

Status WriteFencingEpoch(const std::string& dir, std::uint64_t epoch) {
  TOPKMON_RETURN_IF_ERROR(fs::MakeDirs(dir));
  const std::string path = EpochPath(dir);
  const std::string tmp = path + ".tmp";
  const std::string body = std::to_string(epoch) + "\n";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return fs::ErrnoStatus("open " + tmp, errno);
  if (const Status st = fs::WriteAll(fd, tmp, body); !st.ok()) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return st;
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return fs::ErrnoStatus("fsync " + tmp, err);
  }
  if (::close(fd) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    return fs::ErrnoStatus("close " + tmp, err);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    return fs::ErrnoStatus("rename " + tmp, err);
  }
  // Make the rename itself durable, as the journal does when sealing.
  return fs::SyncDir(dir);
}

}  // namespace topkmon
