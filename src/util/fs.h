// Tiny filesystem helpers shared by the disk-touching layers (journal
// writer, replication follower, fencing-epoch file): errno-to-Status
// conversion, mkdir -p, a full write and a directory fsync. One home so
// the two sides of journal shipping can never drift on how bytes and
// directory entries reach the disk.

#ifndef TOPKMON_UTIL_FS_H_
#define TOPKMON_UTIL_FS_H_

#include <string>

#include "common/status.h"

namespace topkmon {
namespace fs {

/// Internal-status wrapper of an errno: "what: strerror(err)".
Status ErrnoStatus(const std::string& what, int err);

/// mkdir -p: creates `dir` and any missing parents (0777 & ~umask).
/// Existing directories are fine; any other failure is an error.
Status MakeDirs(const std::string& dir);

/// Writes all of `bytes` to `fd`, riding out EINTR and partial writes.
/// `path` only names the file in the error. On failure some prefix of
/// `bytes` may have landed; the caller decides what to do with it.
Status WriteAll(int fd, const std::string& path, const std::string& bytes);

/// fsyncs directory `dir`, making the entries created or renamed in it
/// durable.
Status SyncDir(const std::string& dir);

}  // namespace fs
}  // namespace topkmon

#endif  // TOPKMON_UTIL_FS_H_
