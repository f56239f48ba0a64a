// Shared helpers for the journal test suite.

#ifndef TOPKMON_TESTS_JOURNAL_JOURNAL_TEST_UTIL_H_
#define TOPKMON_TESTS_JOURNAL_JOURNAL_TEST_UTIL_H_

#include <dirent.h>
#include <gtest/gtest.h>
#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "core/brute_force_engine.h"
#include "journal/format.h"
#include "util/fs.h"

namespace topkmon {
namespace testing {

/// A mkdtemp-backed directory removed (with everything under it) on
/// destruction.
class ScopedTempDir {
 public:
  ScopedTempDir() {
    char tmpl[] = "/tmp/topkmon_journal_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    path_ = made != nullptr ? made : "";
  }

  ~ScopedTempDir() {
    if (path_.empty()) return;
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

  std::vector<std::string> Files() const {
    std::vector<std::string> out;
    if (DIR* d = ::opendir(path_.c_str())) {
      while (const dirent* entry = ::readdir(d)) {
        if (std::strcmp(entry->d_name, ".") == 0 ||
            std::strcmp(entry->d_name, "..") == 0) {
          continue;
        }
        out.emplace_back(entry->d_name);
      }
      ::closedir(d);
    }
    return out;
  }

 private:
  std::string path_;
};

/// A decoded snapshot image offered as the journal writer's one anchor
/// type: a BruteForce engine restored from the image's window and last
/// cycle, plus the image's id allocators and queries. It converts to a
/// SnapshotAnchor that refers to it, so a temporary passes straight to
/// CycleJournalWriter::Open or RotateWithSnapshot, and the segment holds
/// the bytes EncodeSnapshotBody(image) encodes.
class ImageAnchor {
 public:
  explicit ImageAnchor(JournalSnapshot image = {})
      : image_(std::move(image)),
        engine_(image_.window.empty() ? 2 : image_.window[0].position.dim(),
                WindowSpec::Count(
                    std::max<std::size_t>(1, image_.window.size()))) {
    const Status st =
        engine_.RestoreState(EngineSnapshot{image_.last_cycle_ts,
                                            image_.window});
    EXPECT_TRUE(st.ok()) << "restoring the anchor image: " << st;
  }

  operator SnapshotAnchor() const {  // NOLINT: converts by design
    return SnapshotAnchor{engine_, image_.next_record_id,
                          image_.next_query_id, image_.live_queries};
  }

 private:
  const JournalSnapshot image_;
  BruteForceEngine engine_;
};

/// Short name of an fs operation, as transcripts print it.
inline const char* FsOpName(fs::Op op) {
  switch (op) {
    case fs::Op::kOpen: return "open";
    case fs::Op::kWrite: return "write";
    case fs::Op::kWriteAt: return "pwrite";
    case fs::Op::kRead: return "read";
    case fs::Op::kDataSync: return "datasync";
    case fs::Op::kSync: return "fsync";
    case fs::Op::kSyncDir: return "syncdir";
    case fs::Op::kSize: return "size";
    case fs::Op::kTruncate: return "truncate";
    case fs::Op::kRename: return "rename";
    case fs::Op::kUnlink: return "unlink";
    case fs::Op::kList: return "list";
    case fs::Op::kMkdir: return "mkdir";
  }
  return "?";
}

/// Installs the fs test hook for its lifetime and records, in call
/// order, each operation of kind `ops` on a path under `dir` as
/// "<op> <path relative to dir>" ("." for `dir` itself; a rename as
/// "rename <source> -> <target>"). A failure rule
/// set by FailWhen makes matching operations fail instead of running.
/// Create it before the threads under test start; destroy it after.
class FsTranscript {
 public:
  /// Decides, from the transcript so far and the operation about to be
  /// recorded, whether that operation fails.
  using FailRule = std::function<bool(const std::vector<std::string>& so_far,
                                      const std::string& entry)>;

  FsTranscript(std::string dir, std::set<fs::Op> ops)
      : dir_(std::move(dir)), ops_(std::move(ops)) {
    fs::SetHookForTesting(
        [this](const fs::Event& event) { return Record(event); });
  }
  ~FsTranscript() { fs::SetHookForTesting(nullptr); }

  FsTranscript(const FsTranscript&) = delete;
  FsTranscript& operator=(const FsTranscript&) = delete;

  void FailWhen(FailRule rule) {
    std::lock_guard<std::mutex> lock(mu_);
    fail_ = std::move(rule);
  }

  std::vector<std::string> entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_;
  }
  /// Bytes the recorded writes (not pwrites) to `name` (relative to
  /// dir) carried.
  std::uint64_t BytesWritten(const std::string& name) const {
    std::uint64_t total = 0;
    for (const std::uint64_t n : WriteSizes(name)) total += n;
    return total;
  }
  /// The length of each recorded write (not pwrite) to `name`, in order.
  std::vector<std::uint64_t> WriteSizes(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = written_.find(name);
    return it == written_.end() ? std::vector<std::uint64_t>{} : it->second;
  }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    written_.clear();
  }

 private:
  Status Record(const fs::Event& event) {
    const fs::Op op = event.op;
    const std::string& path = event.path;
    if (ops_.count(op) == 0 || path.compare(0, dir_.size(), dir_) != 0) {
      return Status::Ok();
    }
    const std::string rest = path.substr(dir_.size());
    if (!rest.empty() && rest[0] != '/') return Status::Ok();  // a sibling
    const std::string name = rest.empty() ? "." : rest.substr(1);
    std::string entry = std::string(FsOpName(op)) + " ";
    if (event.from != nullptr) {
      // A rename stays in its directory: the source is a sibling.
      entry += event.from->substr(path.size() - name.size()) + " -> ";
    }
    entry += name;
    std::lock_guard<std::mutex> lock(mu_);
    if (fail_ && fail_(entries_, entry)) {
      entries_.push_back(entry + " [failed]");
      return Status::Internal("injected failure: " + entry);
    }
    entries_.push_back(entry);
    if (op == fs::Op::kWrite) written_[name].push_back(event.bytes);
    return Status::Ok();
  }

  const std::string dir_;
  const std::set<fs::Op> ops_;
  mutable std::mutex mu_;
  FailRule fail_;
  std::vector<std::string> entries_;
  std::map<std::string, std::vector<std::uint64_t>> written_;
};

}  // namespace testing
}  // namespace topkmon

#endif  // TOPKMON_TESTS_JOURNAL_JOURNAL_TEST_UTIL_H_
