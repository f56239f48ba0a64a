#include "util/fs.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

namespace topkmon {
namespace fs {
namespace {

std::atomic<const Hook*> g_hook{nullptr};

const Hook* InstalledHook() { return g_hook.load(std::memory_order_acquire); }

/// The hook's verdict on `op`; OK when no hook is installed.
Status Allow(Op op, const std::string& path, std::uint64_t bytes = 0) {
  const Hook* hook = InstalledHook();
  return hook == nullptr ? Status::Ok() : (*hook)(Event{op, path, bytes});
}

/// Where a write(2) on `fd` lands: the end of the file when it was
/// opened to append, else its position. Asked only for the hook.
std::uint64_t WritePosition(int fd) {
  if ((::fcntl(fd, F_GETFL) & O_APPEND) != 0) {
    struct stat st;
    return ::fstat(fd, &st) == 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
  }
  const off_t at = ::lseek(fd, 0, SEEK_CUR);
  return at < 0 ? 0 : static_cast<std::uint64_t>(at);
}

/// "what path: strerror(err)", NotFound for ENOENT.
Status ErrnoStatus(const char* what, const std::string& path, int err) {
  std::string message = std::string(what) + " " + path + ": " +
                        std::strerror(err);
  return err == ENOENT ? Status::NotFound(std::move(message))
                       : Status::Internal(std::move(message));
}

/// OK when the call returned 0, else its errno as a Status.
Status Check(int rc, const char* what, const std::string& path) {
  return rc == 0 ? Status::Ok() : ErrnoStatus(what, path, errno);
}

/// Writes all of data[0, n): with write(2) when `offset` is negative,
/// else with pwrite(2) from `offset`. Rides out EINTR and partial writes.
Status WriteAll(int fd, const char* data, std::size_t n, off_t offset,
                const std::string& path) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t w =
        offset < 0 ? ::write(fd, data + done, n - done)
                   : ::pwrite(fd, data + done, n - done,
                              offset + static_cast<off_t>(done));
    if (w < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus(offset < 0 ? "write" : "pwrite", path, errno);
    }
    done += static_cast<std::size_t>(w);
  }
  return Status::Ok();
}

/// Returns `st`, first unlinking `path` when `st` failed.
Status UnlinkOnError(const std::string& path, Status st) {
  if (!st.ok()) (void)Unlink(path);
  return st;
}

Status Rename(const std::string& from, const std::string& to) {
  if (const Hook* hook = InstalledHook()) {
    TOPKMON_RETURN_IF_ERROR(
        (*hook)(Event{Op::kRename, to, 0, 0, nullptr, &from}));
  }
  return Check(::rename(from.c_str(), to.c_str()), "rename", from);
}

}  // namespace

void SetHookForTesting(Hook hook) {
  const Hook* fresh = hook ? new Hook(std::move(hook)) : nullptr;
  delete g_hook.exchange(fresh, std::memory_order_acq_rel);
}

Result<File> OpenFile(const std::string& path, int flags, int perms) {
  TOPKMON_RETURN_IF_ERROR(Allow(Op::kOpen, path));
  File file;
  file.fd_ = ::open(path.c_str(), flags | O_CLOEXEC, perms);
  if (file.fd_ < 0) return ErrnoStatus("open", path, errno);
  file.path_ = path;
  return file;
}

Result<File> Open(const std::string& path, OpenMode mode) {
  static constexpr int kFlags[] = {O_CREAT | O_WRONLY | O_TRUNC,
                                   O_CREAT | O_WRONLY | O_APPEND, O_RDONLY};
  return OpenFile(path, kFlags[static_cast<int>(mode)], 0666);
}

File::File(File&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)) {}

File& File::operator=(File&& other) noexcept {
  std::swap(fd_, other.fd_);
  std::swap(path_, other.path_);
  return *this;
}

File::~File() {
  if (fd_ >= 0) ::close(fd_);
}

Status File::Write(const std::string& bytes) {
  if (const Hook* hook = InstalledHook()) {
    TOPKMON_RETURN_IF_ERROR((*hook)(Event{Op::kWrite, path_, bytes.size(),
                                          WritePosition(fd_), bytes.data()}));
  }
  return WriteAll(fd_, bytes.data(), bytes.size(), -1, path_);
}

Status File::WriteAt(std::uint64_t offset, const char* data, std::size_t n) {
  if (const Hook* hook = InstalledHook()) {
    TOPKMON_RETURN_IF_ERROR(
        (*hook)(Event{Op::kWriteAt, path_, n, offset, data}));
  }
  return WriteAll(fd_, data, n, static_cast<off_t>(offset), path_);
}

Result<std::size_t> File::ReadAt(std::uint64_t offset, char* buf,
                                 std::size_t n) const {
  TOPKMON_RETURN_IF_ERROR(Allow(Op::kRead, path_, n));
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::pread(fd_, buf + got, n - got,
                              static_cast<off_t>(offset + got));
    if (r < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pread", path_, errno);
    }
    if (r == 0) break;  // end of file
    got += static_cast<std::size_t>(r);
  }
  return got;
}

Status File::DataSync() {
  TOPKMON_RETURN_IF_ERROR(Allow(Op::kDataSync, path_));
  return Check(::fdatasync(fd_), "fdatasync", path_);
}

Result<std::uint64_t> File::Size() const {
  TOPKMON_RETURN_IF_ERROR(Allow(Op::kSize, path_));
  struct stat st;
  if (::fstat(fd_, &st) != 0) return ErrnoStatus("fstat", path_, errno);
  return static_cast<std::uint64_t>(st.st_size);
}

Status File::Close() {
  const int fd = std::exchange(fd_, -1);
  return fd < 0 ? Status::Ok() : Check(::close(fd), "close", path_);
}

Status Truncate(const std::string& path, std::uint64_t size) {
  TOPKMON_RETURN_IF_ERROR(Allow(Op::kTruncate, path, size));
  return Check(::truncate(path.c_str(), static_cast<off_t>(size)), "truncate",
               path);
}

Status Unlink(const std::string& path) {
  TOPKMON_RETURN_IF_ERROR(Allow(Op::kUnlink, path));
  return Check(::unlink(path.c_str()), "unlink", path);
}

Result<std::vector<std::string>> ListDir(const std::string& dir) {
  TOPKMON_RETURN_IF_ERROR(Allow(Op::kList, dir));
  std::vector<std::string> names;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    names.push_back(it->path().filename().string());
  }
  if (ec) return ErrnoStatus("opendir", dir, ec.value());
  return names;
}

Status MakeDirs(const std::string& dir) {
  TOPKMON_RETURN_IF_ERROR(Allow(Op::kMkdir, dir));
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return ec ? ErrnoStatus("mkdir", dir, ec.value()) : Status::Ok();
}

Status SyncDir(const std::string& dir) {
  TOPKMON_RETURN_IF_ERROR(Allow(Op::kSyncDir, dir));
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) return ErrnoStatus("open", dir, errno);
  const Status st = Check(::fsync(dfd), "fsync", dir);
  ::close(dfd);
  return st;
}

Result<std::string> ReadFile(const std::string& path, std::size_t max_bytes) {
  auto file = Open(path, OpenMode::kReadOnly);
  if (!file.ok()) return file.status();
  std::string bytes(max_bytes, '\0');
  auto got = file->ReadAt(0, bytes.data(), max_bytes);
  if (!got.ok()) return got.status();
  bytes.resize(*got);
  return bytes;
}

Status CommitCreate(const std::string& dir, const std::string& name,
                    File* file, Status written) {
  const std::string path = dir + "/" + name;
  Status st = std::move(written);
  if (st.ok()) st = file->DataSync();
  if (st.ok()) st = Rename(file->path(), path);
  if (!st.ok()) {
    (void)file->Close();
    return UnlinkOnError(file->path(), std::move(st));
  }
  file->path_ = path;
  return SyncDir(dir);
}

Status ReplaceDurable(const std::string& dir, const std::string& name,
                      const std::string& bytes) {
  const std::string path = dir + "/" + name;
  const std::string tmp = path + ".tmp";
  auto file = OpenFile(tmp, O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (!file.ok()) return file.status();
  Status st = file->Write(bytes);
  if (st.ok()) st = Allow(Op::kSync, tmp);
  if (st.ok()) st = Check(::fsync(file->fd_), "fsync", tmp);
  if (st.ok()) st = file->Close();
  if (st.ok()) st = Rename(tmp, path);
  TOPKMON_RETURN_IF_ERROR(UnlinkOnError(tmp, std::move(st)));
  return SyncDir(dir);
}

}  // namespace fs
}  // namespace topkmon
