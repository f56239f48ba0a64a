#include "util/fs.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstring>

namespace topkmon {
namespace fs {

Status ErrnoStatus(const std::string& what, int err) {
  return Status::Internal(what + ": " + std::strerror(err));
}

Status MakeDirs(const std::string& dir) {
  std::string prefix;
  std::size_t pos = 0;
  while (pos <= dir.size()) {
    const std::size_t slash = dir.find('/', pos);
    prefix = slash == std::string::npos ? dir : dir.substr(0, slash);
    pos = slash == std::string::npos ? dir.size() + 1 : slash + 1;
    if (prefix.empty()) continue;  // leading '/'
    if (::mkdir(prefix.c_str(), 0777) != 0 && errno != EEXIST) {
      return ErrnoStatus("mkdir " + prefix, errno);
    }
  }
  return Status::Ok();
}

Status WriteAll(int fd, const std::string& path, const std::string& bytes) {
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write " + path, errno);
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

Status SyncDir(const std::string& dir) {
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return ErrnoStatus("open " + dir, errno);
  const int rc = ::fsync(dfd);
  const int err = errno;
  ::close(dfd);
  if (rc != 0) return ErrnoStatus("fsync " + dir, err);
  return Status::Ok();
}

}  // namespace fs
}  // namespace topkmon
