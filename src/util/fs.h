// The one module that touches the disk: the journal writer and reader,
// the replication shipper and follower and the fencing-epoch file make
// every file-system call through it, so it owns every durability
// decision. Segment bytes are made durable with fdatasync, the epoch
// file with fsync. Both are created under a temp name and renamed to
// their own once synced, so the name never shows a half-made file; the
// rename is durable only once the directory is fsynced, which
// CommitCreate and ReplaceDurable do last. A durable create that fails
// before its rename unlinks the temp file. Every failure is a Status
// naming the call and the path: NotFound for ENOENT, Internal otherwise.
//
// Each operation below reports one Op to the test hook; MakeDirs reports
// one kMkdir for the whole path, and ReadFile, CommitCreate and
// ReplaceDurable report the Ops of their steps in order. Closing is not
// an operation. SetHookForTesting installs one function that sees each
// operation in call order (kind, path, byte count; for a write also its
// file offset and bytes; for a rename also its source) before it is made
// and may return an error to fail it instead. It runs on the calling
// thread, so it must be thread-safe. Install it before the threads under
// test start and remove it after they stop; unset, the POSIX calls run as
// is.

#ifndef TOPKMON_UTIL_FS_H_
#define TOPKMON_UTIL_FS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"

namespace topkmon {
namespace fs {

/// An operation as the test hook sees it.
enum class Op : std::uint8_t {
  kOpen,
  kWrite,     ///< at the file position (the end, when appending)
  kWriteAt,   ///< pwrite at an explicit offset
  kRead,      ///< bytes: the length asked for
  kDataSync,  ///< fdatasync
  kSync,      ///< fsync
  kSyncDir,   ///< fsync of a directory
  kSize,
  kTruncate,  ///< bytes: the new length
  kRename,    ///< path: the target
  kUnlink,
  kList,
  kMkdir,
};

/// One operation as the test hook sees it, before it is made.
struct Event {
  Op op;
  const std::string& path;  ///< kRename: the target
  /// kWrite, kWriteAt, kRead: the length; kTruncate: the new length.
  std::uint64_t bytes = 0;
  std::uint64_t offset = 0;    ///< kWrite, kWriteAt: where the bytes land
  const char* data = nullptr;  ///< kWrite, kWriteAt: the bytes
  const std::string* from = nullptr;  ///< kRename: the source
};

/// Sees `event` before it is made. A non-OK return fails the operation
/// with that status and the call is not made.
using Hook = std::function<Status(const Event& event)>;

/// Installs `hook`; an empty function removes it.
void SetHookForTesting(Hook hook);

/// How Open opens a file. The writable modes create it (0666 & ~umask).
enum class OpenMode : std::uint8_t {
  kCreateTruncate,  ///< write-only, emptied
  kAppend,          ///< write-only, every write lands at the end
  kReadOnly,
};

/// An open file; the destructor closes it.
class File {
 public:
  File() = default;
  File(File&& other) noexcept;
  File& operator=(File&& other) noexcept;
  ~File();

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Writes all of `bytes`, riding out EINTR and partial writes. On
  /// failure some prefix may have landed; the caller decides what to do
  /// with it.
  Status Write(const std::string& bytes);
  /// Writes all of `n` bytes at `offset` (pwrite), leaving the file
  /// position where it was. On failure some prefix may have landed.
  Status WriteAt(std::uint64_t offset, const char* data, std::size_t n);
  /// Reads `n` bytes at `offset` into `buf`, fewer only at end of file;
  /// returns the count read.
  Result<std::size_t> ReadAt(std::uint64_t offset, char* buf,
                             std::size_t n) const;
  Status DataSync();
  Result<std::uint64_t> Size() const;
  /// Closes now, reporting what close(2) reports.
  Status Close();

 private:
  friend Result<File> OpenFile(const std::string&, int, int);
  friend Status CommitCreate(const std::string&, const std::string&, File*,
                             Status);
  friend Status ReplaceDurable(const std::string&, const std::string&,
                               const std::string&);

  int fd_ = -1;
  std::string path_;
};

Result<File> Open(const std::string& path, OpenMode mode);
Status Truncate(const std::string& path, std::uint64_t size);
Status Unlink(const std::string& path);
/// The entry names of `dir`, except "." and "..", in directory order.
Result<std::vector<std::string>> ListDir(const std::string& dir);
/// mkdir -p: creates `dir` and any missing parents (0777 & ~umask).
Status MakeDirs(const std::string& dir);
/// fsyncs directory `dir`, making the entries created, renamed or
/// removed in it durable.
Status SyncDir(const std::string& dir);
/// Reads up to `max_bytes` from the start of `path`.
Result<std::string> ReadFile(const std::string& path, std::size_t max_bytes);

/// Ends the durable create of `file`, made in `dir` under a temp name by
/// Open with kCreateTruncate, whose writes returned `written`. When that
/// is OK it fdatasyncs the file, renames it to `dir`/`name` and fsyncs
/// `dir` so the new name survives a crash. The rename is the commit
/// point: a failure before it closes the file and unlinks the temp name;
/// from it on the file stays open under `name` (path() names it), even
/// when the directory fsync fails, so is_open() tells the caller which
/// side of the rename a failure fell on. Returns the first failure.
Status CommitCreate(const std::string& dir, const std::string& name,
                    File* file, Status written);

/// Atomically and durably replaces `dir`/`name` with `bytes`: writes
/// `name`.tmp (0644 & ~umask), fsyncs and closes it, renames it over
/// `name`, then fsyncs `dir`. Until the rename `name` is untouched; a
/// failure before it unlinks the temp file.
Status ReplaceDurable(const std::string& dir, const std::string& name,
                      const std::string& bytes);

}  // namespace fs
}  // namespace topkmon

#endif  // TOPKMON_UTIL_FS_H_
