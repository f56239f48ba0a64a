// Crash states of the journal writer's directory and of the fencing
// epoch file. A recording backend (the fs test hook) logs every operation
// a scripted run makes on its directory, each write with its bytes and
// file offset and each rename with its source; a call the hook fails is
// not made and not logged. The checker then builds the states a machine
// crash could leave after each prefix of that log, under the persistence
// model of ALICE (Pillai et al., "All File Systems Are Not Created
// Equal", OSDI 2014):
//   * a file's bytes up to its last fdatasync or fsync survive; each
//     later write lands, is dropped, or is torn (only a prefix of it
//     lands), with the file's other later writes landing, or with the
//     ones after it lost (writes reaching the disk in order);
//   * a create, rename or unlink survives once its directory is fsynced;
//     those after the last directory fsync land in any subset (every
//     subset up to kExhaustiveDirOps of them, else all, none, each one
//     alone, and all but one or two), a rename atomically: the source
//     goes and the target names the file, or neither.
// Each state of the writer's directory is written to a temp directory
// and opened with MonitorService::Open, which must:
//   1. succeed, with any damage it cut off classified in its report;
//   2. hold the state BruteForce reaches over some prefix of the
//      script's steps (cycles, registers, unregisters): last cycle, id
//      resume points, window size, live queries and every top-k;
//   3. with every step whose sync barrier (group commit, Sync, rotation)
//      returned OK before the crash inside that prefix;
//   4. recover from an anchored segment once the first anchor was made
//      durable: one exists at every instant;
//   5. find that every segment ListSegments lists opens with an intact
//      anchor: a listed segment is whole, never in creation;
//   6. leave no temp file at the index its writer opened: a stale one
//      from a crashed rotation is truncated and renamed, not cleaned up.
//
// The script anchors on a TMA engine's window walk, so rotations stream
// their anchors in several 64 KiB chunks. Two of its rotations fail
// through the hook: one at its fdatasync, before the rename, and one at
// its directory fsync, after it. Every distinct state is checked: a
// sample of a few hundred missed states that a sabotaged writer breaks.
//
// The fencing epoch file (fs::ReplaceDurable: temp file, fsync, rename,
// directory fsync) is checked in every state of a run of three epoch
// writes: once the first write returned, EPOCH is never absent and never
// older than the last write that returned.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/brute_force_engine.h"
#include "core/tma_engine.h"
#include "journal/format.h"
#include "journal/journal_reader.h"
#include "journal/journal_writer.h"
#include "replica/lease.h"
#include "service/monitor_service.h"
#include "stream/generators.h"
#include "tests/journal/journal_test_util.h"
#include "tests/test_util.h"
#include "util/fs.h"

namespace topkmon {
namespace {

using ::topkmon::testing::FsOpName;
using ::topkmon::testing::MakeRandomQueries;
using ::topkmon::testing::ScopedTempDir;

constexpr int kDim = 2;
/// 18000 records encode to about 320 KB: five 64 KiB chunks an anchor.
constexpr std::size_t kWindow = 18000;
constexpr std::size_t kBatch = 1500;
constexpr int kK = 5;
constexpr std::size_t kExhaustiveDirOps = 4;

GridEngineOptions TmaOptions() {
  GridEngineOptions options;
  options.dim = kDim;
  options.window = WindowSpec::Count(kWindow);
  return options;
}

// ---- the recorded run ----------------------------------------------------

/// One operation on the journal directory, as the hook reported it.
struct LoggedOp {
  fs::Op op;
  std::string name;  ///< relative to the directory; "." for itself
  std::uint64_t offset = 0;
  std::string data;  ///< kWrite, kWriteAt
  std::string from;  ///< kRename: the source, relative to the directory
};

/// What recovery must rebuild after the first s steps of the script.
struct Expected {
  Timestamp last_cycle_ts = 0;
  RecordId next_record_id = 0;
  std::uint64_t next_query_id = 1;
  std::size_t window_size = 0;
  std::vector<QueryId> live;  ///< in registration order
  std::vector<std::vector<ResultEntry>> results;  ///< per live query
};

struct RunLog {
  std::vector<LoggedOp> ops;
  /// (ops logged when a sync barrier returned, steps it made durable),
  /// in log order.
  std::vector<std::pair<std::size_t, std::size_t>> barriers;
  std::vector<Expected> expected;  ///< indexed by step count
  /// Ops logged by the end of each step: step_ends[s - 1] for step s.
  std::vector<std::size_t> step_ends;

  /// Steps the script had finished by `instant`.
  std::size_t StepsBy(std::size_t instant) const {
    return static_cast<std::size_t>(
        std::upper_bound(step_ends.begin(), step_ends.end(), instant) -
        step_ends.begin());
  }
};

/// Logs each operation on `dir` and below while it lives, except those a
/// FailWhen rule fails: those are not made, so they are not logged. The
/// scripts are single-threaded, so the log needs no lock.
class Recorder {
 public:
  using FailRule = std::function<bool(const fs::Event& event)>;

  Recorder(std::string dir, std::vector<LoggedOp>* ops)
      : dir_(std::move(dir)), ops_(ops) {
    fs::SetHookForTesting([this](const fs::Event& event) {
      if (fail_ && fail_(event)) {
        return Status::Internal("injected failure");
      }
      Log(event);
      return Status::Ok();
    });
  }
  ~Recorder() { fs::SetHookForTesting(nullptr); }

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  void FailWhen(FailRule rule) { fail_ = std::move(rule); }

 private:
  void Log(const fs::Event& event) {
    const std::string& path = event.path;
    const bool self = path == dir_;
    if (!self && path.compare(0, dir_.size() + 1, dir_ + "/") != 0) return;
    LoggedOp op{event.op, self ? "." : path.substr(dir_.size() + 1),
                event.offset, std::string(), std::string()};
    if (event.data != nullptr) op.data.assign(event.data, event.bytes);
    if (event.from != nullptr) op.from = event.from->substr(dir_.size() + 1);
    ops_->push_back(std::move(op));
  }

  const std::string dir_;
  std::vector<LoggedOp>* ops_;
  FailRule fail_;
};

bool IsTemp(const std::string& path) {
  return path.size() > 4 && path.compare(path.size() - 4, 4, ".tmp") == 0;
}

/// The scripted writer run at `retain`: registers, cycles under group
/// commit (a sync every 3 cycles), an explicit Sync, an unregister and
/// two rotations once the window is full; then a rotation whose
/// directory fsync fails and one whose fdatasync fails, each followed by
/// cycles and a Sync; ending on an unsynced tail. The writer journals
/// each step before the engines apply it, as the service does;
/// BruteForce records what each step count must recover to.
RunLog RecordRun(const std::string& dir, std::uint64_t retain) {
  RunLog log;
  JournalOptions options;
  options.dir = dir;
  options.retain_segment_count = retain;
  options.sync = SyncPolicy::kInterval;
  options.sync_every_records = 1000;
  options.sync_interval_cycles = 3;
  options.snapshot_every_cycles = 0;
  options.segment_bytes = std::size_t{1} << 30;

  BruteForceEngine truth(kDim, WindowSpec::Count(kWindow));
  TmaEngine source(TmaOptions());
  RecordSource records(MakeGenerator(Distribution::kIndependent, kDim, 17));
  const std::vector<QuerySpec> specs = MakeRandomQueries(kDim, 3, kK, 29);
  std::vector<JournaledQuery> live;
  std::uint64_t next_query_id = 1;
  Timestamp now = 0;

  Recorder recorder(dir, &log.ops);
  auto opened = CycleJournalWriter::Open(
      options, SnapshotAnchor{source, 0, next_query_id, live});
  EXPECT_TRUE(opened.ok()) << opened.status();
  if (!opened.ok()) return log;
  CycleJournalWriter& writer = **opened;

  const auto expect = [&] {
    Expected e;
    e.last_cycle_ts = now;
    e.next_record_id = records.next_id();
    e.next_query_id = next_query_id;
    e.window_size = truth.WindowSize();
    for (const JournaledQuery& q : live) {
      e.live.push_back(q.spec.id);
      e.results.push_back(*truth.CurrentResult(q.spec.id));
    }
    if (!log.expected.empty()) log.step_ends.push_back(log.ops.size());
    log.expected.push_back(std::move(e));
  };
  /// Runs `step`, which returns the writer's verdict; a sync it issued
  /// makes every step so far durable, but only if it returned OK.
  const auto run = [&](const auto& step) {
    const std::uint64_t syncs = writer.stats().sync_calls;
    const Status st = step();
    if (st.ok() && writer.stats().sync_calls != syncs) {
      log.barriers.emplace_back(log.ops.size(), log.expected.size() - 1);
    }
    return st;
  };
  const auto cycle = [&] {
    run([&] {
      ++now;
      const std::vector<Record> batch = records.NextBatch(kBatch, now);
      const Status st = writer.AppendCycle(now, batch);
      TOPKMON_EXPECT_OK(st);
      TOPKMON_EXPECT_OK(truth.ProcessCycle(now, batch));
      TOPKMON_EXPECT_OK(source.ProcessCycle(now, batch));
      expect();
      return st;
    });
  };
  const auto add_query = [&](std::size_t i) {
    run([&] {
      QuerySpec spec = specs[i];
      spec.id = static_cast<QueryId>(next_query_id++);
      const JournaledQuery query{spec, "crash"};
      const Status st = writer.AppendRegister(query);
      TOPKMON_EXPECT_OK(st);
      TOPKMON_EXPECT_OK(truth.RegisterQuery(spec));
      TOPKMON_EXPECT_OK(source.RegisterQuery(spec));
      live.push_back(query);
      expect();
      return st;
    });
  };
  const auto drop_query = [&](QueryId id) {
    run([&] {
      const Status st = writer.AppendUnregister(id);
      TOPKMON_EXPECT_OK(st);
      TOPKMON_EXPECT_OK(truth.UnregisterQuery(id));
      TOPKMON_EXPECT_OK(source.UnregisterQuery(id));
      live.erase(std::find_if(live.begin(), live.end(),
                              [id](const JournaledQuery& q) {
                                return q.spec.id == id;
                              }));
      expect();
      return st;
    });
  };
  const auto sync = [&] {
    TOPKMON_EXPECT_OK(run([&] { return writer.Sync(); }));
  };
  const auto rotate = [&] {
    return run([&] {
      return writer.RotateWithSnapshot(
          SnapshotAnchor{source, records.next_id(), next_query_id, live});
    });
  };
  /// A rotation whose first call of kind `failing` on the directory or
  /// below fails through the hook.
  const auto rotate_failing = [&](fs::Op failing) {
    bool failed = false;
    recorder.FailWhen([&](const fs::Event& event) {
      if (failed || event.op != failing) return false;
      failed = true;
      return true;
    });
    const Status st = rotate();
    recorder.FailWhen(nullptr);
    EXPECT_TRUE(failed);
    EXPECT_FALSE(st.ok());
  };

  expect();  // step 0: the empty anchor
  add_query(0);
  add_query(1);
  for (std::size_t i = 0; i < kWindow / kBatch; ++i) cycle();
  TOPKMON_EXPECT_OK(rotate());
  cycle();
  cycle();
  drop_query(1);
  add_query(2);
  cycle();
  sync();
  cycle();
  TOPKMON_EXPECT_OK(rotate());
  cycle();
  cycle();
  // Fails after the rename: the writer moves on and owes the fsync.
  const std::uint64_t index = writer.current_segment_index();
  rotate_failing(fs::Op::kSyncDir);
  EXPECT_EQ(writer.current_segment_index(), index + 1);
  cycle();
  cycle();
  sync();
  // Fails before the rename: the writer stays on its segment.
  const std::uint64_t kept = writer.current_segment_index();
  rotate_failing(fs::Op::kDataSync);
  EXPECT_EQ(writer.current_segment_index(), kept);
  cycle();
  cycle();
  sync();
  cycle();
  return log;  // the writer's destructor syncs, but the log ends here
}

// ---- the disk model ------------------------------------------------------

/// How one not-yet-synced write lands in a crash state.
struct Perturbation {
  int inode = 0;           ///< the file written
  std::string file;        ///< the name it was created under
  std::size_t write = 0;   ///< index among the file's unsynced writes
  std::size_t keep = 0;    ///< bytes of it that land (0: dropped)
  bool lose_rest = false;  ///< the file's later unsynced writes are lost
};

/// A crash state: the instant (ops [0, instant) happened), which of the
/// unsynced directory operations landed, and at most one perturbed write.
struct CrashState {
  std::size_t instant = 0;
  std::vector<bool> dir_applied;
  bool perturbed = false;
  Perturbation perturbation;
  std::size_t required = 0;  ///< steps a returned barrier made durable
  bool anchored = false;     ///< an anchor was durable before the crash
  std::string key;           ///< identifies the resulting bytes

  std::string Describe(const std::vector<LoggedOp>& ops) const {
    std::ostringstream os;
    os << "crash after op " << instant;
    if (instant > 0) {
      const LoggedOp& last = ops[instant - 1];
      os << " (" << FsOpName(last.op) << " "
         << (last.from.empty() ? "" : last.from + " -> ") << last.name
         << ")";
    }
    os << ", directory ops landed:";
    for (const bool applied : dir_applied) os << (applied ? " y" : " n");
    if (perturbed) {
      os << ", write " << perturbation.write << " to " << perturbation.file
         << (perturbation.keep == 0
                 ? std::string(" dropped")
                 : " torn at " + std::to_string(perturbation.keep))
         << (perturbation.lose_rest ? ", later ones lost" : "");
    }
    os << ", durable steps " << required;
    return os.str();
  }
};

/// Replays a log op by op and holds what a crash at the current instant
/// may leave: per file, the bytes its last fdatasync or fsync made
/// durable and the writes since; per directory, the names its last fsync
/// made durable and the creates, renames and unlinks since. A name maps
/// to a file (an inode), so a rename carries the file's bytes to its
/// new name.
class DiskModel {
 public:
  explicit DiskModel(const std::vector<LoggedOp>& ops) : ops_(ops) {}

  /// Applies ops_[instant_] and moves to the next instant.
  void Step() {
    const LoggedOp& op = ops_[instant_++];
    switch (op.op) {
      case fs::Op::kOpen: {
        // Every open in the scripts creates a file (kCreateTruncate)
        // under a name not in use.
        EXPECT_EQ(live_.count(op.name), 0u) << "reopen of " << op.name;
        const int inode = next_inode_++;
        inodes_[inode].label = op.name;
        live_[op.name] = inode;
        pending_dir_.push_back(DirOp{op.op, op.name, "", inode});
        break;
      }
      case fs::Op::kRename: {
        const int inode = live_.at(op.from);
        live_.erase(op.from);
        live_[op.name] = inode;
        pending_dir_.push_back(DirOp{op.op, op.name, op.from, inode});
        break;
      }
      case fs::Op::kUnlink:
        live_.erase(op.name);
        pending_dir_.push_back(DirOp{op.op, op.name, "", -1});
        break;
      case fs::Op::kWrite:
      case fs::Op::kWriteAt:
        inodes_.at(live_.at(op.name)).pending.push_back(&op);
        break;
      case fs::Op::kDataSync:
      case fs::Op::kSync: {
        File& file = inodes_.at(live_.at(op.name));
        for (const LoggedOp* w : file.pending) Overlay(*w, &file.durable);
        file.synced_through = instant_;
        file.pending.clear();
        break;
      }
      case fs::Op::kSyncDir: {
        for (const DirOp& d : pending_dir_) Apply(d, &durable_);
        pending_dir_.clear();
        // No state can hold a file that no durable name reaches.
        std::set<int> named;
        for (const auto& [name, inode] : durable_) named.insert(inode);
        for (auto it = inodes_.begin(); it != inodes_.end();) {
          it = named.count(it->first) != 0 ? std::next(it) : inodes_.erase(it);
        }
        for (const auto& [name, inode] : durable_) {
          std::uint64_t index = 0;
          anchored_ = anchored_ || ParseSegmentFileName(name, &index);
        }
        break;
      }
      case fs::Op::kList:
      case fs::Op::kMkdir:
      case fs::Op::kRead:
      case fs::Op::kSize:
        break;
      default:
        ADD_FAILURE() << "the disk model has no rule for "
                      << FsOpName(op.op) << " " << op.name;
    }
  }

  std::size_t instant() const { return instant_; }

  /// Every crash state of this instant (before deduplication).
  std::vector<CrashState> States() const {
    std::vector<CrashState> out;
    const std::size_t n = pending_dir_.size();
    const std::vector<bool> all(n, true);
    std::vector<std::vector<bool>> subsets;
    if (n <= kExhaustiveDirOps) {
      for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
        std::vector<bool> applied(n);
        for (std::size_t i = 0; i < n; ++i) applied[i] = (mask >> i) & 1u;
        subsets.push_back(std::move(applied));
      }
    } else {
      subsets.push_back(all);
      subsets.emplace_back(n, false);
      for (std::size_t i = 0; i < n; ++i) {
        std::vector<bool> alone(n, false);
        alone[i] = true;
        subsets.push_back(std::move(alone));
        // All but op i (j == i), or all but ops i and j.
        for (std::size_t j = i; j < n; ++j) {
          std::vector<bool> flipped = all;
          flipped[i] = flipped[j] = false;
          subsets.push_back(std::move(flipped));
        }
      }
    }
    for (std::vector<bool>& applied : subsets) {
      out.push_back(MakeState(std::move(applied), nullptr));
    }
    for (const auto& [inode, file] : inodes_) {
      for (std::size_t i = 0; i < file.pending.size(); ++i) {
        const std::size_t len = file.pending[i]->data.size();
        for (const std::size_t keep : {std::size_t{0}, std::size_t{1},
                                       len / 2, len - 1}) {
          if (keep >= len) continue;
          const Perturbation alone{inode, file.label, i, keep, false};
          out.push_back(MakeState(all, &alone));
          // The in-order model: the writes land up to this one.
          if ((keep == 0 || keep == len / 2) && i + 1 < file.pending.size()) {
            const Perturbation prefix{inode, file.label, i, keep, true};
            out.push_back(MakeState(all, &prefix));
          }
        }
      }
    }
    return out;
  }

  /// The directory `state` describes, as file name → bytes.
  std::map<std::string, std::string> Materialize(
      const CrashState& state) const {
    std::map<std::string, std::string> out;
    for (const auto& [name, inode] : Names(state)) {
      const File& file = inodes_.at(inode);
      std::string bytes = file.durable;
      for (std::size_t i = 0; i < file.pending.size(); ++i) {
        const LoggedOp& write = *file.pending[i];
        const std::size_t lands = Lands(state, inode, i);
        if (lands == write.data.size()) {
          Overlay(write, &bytes);
        } else if (lands > 0) {
          LoggedOp torn = write;
          torn.data.resize(lands);
          Overlay(torn, &bytes);
        }
      }
      out[name] = std::move(bytes);
    }
    return out;
  }

 private:
  struct File {
    std::string label;    ///< the name it was created under
    std::string durable;  ///< bytes as of the last fdatasync or fsync
    std::size_t synced_through = 0;  ///< instant of that sync
    std::vector<const LoggedOp*> pending;  ///< writes since
  };

  /// A create, rename or unlink not yet made durable.
  struct DirOp {
    fs::Op op;
    std::string name;  ///< kRename: the target
    std::string from;  ///< kRename: the source
    int inode = -1;    ///< kOpen, kRename: the file `name` then names
  };

  /// A directory as name → inode.
  using Directory = std::map<std::string, int>;

  static void Apply(const DirOp& d, Directory* names) {
    if (d.op == fs::Op::kUnlink) {
      names->erase(d.name);
      return;
    }
    if (d.op == fs::Op::kRename) names->erase(d.from);
    (*names)[d.name] = d.inode;
  }

  /// Bytes of unsynced write `i` of file `inode` that land in `state`.
  std::size_t Lands(const CrashState& state, int inode, std::size_t i) const {
    const std::size_t len = inodes_.at(inode).pending[i]->data.size();
    const Perturbation& p = state.perturbation;
    if (!state.perturbed || p.inode != inode || i < p.write) return len;
    if (i == p.write) return p.keep;
    return p.lose_rest ? 0 : len;
  }

  /// The names `state` leaves in the directory.
  Directory Names(const CrashState& state) const {
    Directory names = durable_;
    for (std::size_t i = 0; i < pending_dir_.size(); ++i) {
      if (state.dir_applied[i]) Apply(pending_dir_[i], &names);
    }
    return names;
  }

  static void Overlay(const LoggedOp& write, std::string* bytes) {
    const std::size_t end = write.offset + write.data.size();
    if (bytes->size() < end) bytes->resize(end, '\0');
    bytes->replace(write.offset, write.data.size(), write.data);
  }

  /// A state of this instant; its key names the bytes it leaves
  /// symbolically (which file each name holds, which writes land, how
  /// much of each), so states that leave the same bytes the same way
  /// share a key.
  CrashState MakeState(std::vector<bool> applied,
                       const Perturbation* perturbation) const {
    CrashState state;
    state.instant = instant_;
    state.dir_applied = std::move(applied);
    if (perturbation != nullptr) {
      state.perturbed = true;
      state.perturbation = *perturbation;
    }
    state.anchored = anchored_;
    std::ostringstream key;
    for (const auto& [name, inode] : Names(state)) {
      const File& file = inodes_.at(inode);
      key << name << '=' << inode << '@' << file.synced_through;
      for (std::size_t i = 0; i < file.pending.size(); ++i) {
        const std::size_t lands = Lands(state, inode, i);
        if (lands == 0) continue;
        key << ' ' << (file.pending[i] - ops_.data());
        if (lands < file.pending[i]->data.size()) key << ':' << lands;
      }
      key << ';';
    }
    state.key = key.str();
    return state;
  }

  const std::vector<LoggedOp>& ops_;
  std::size_t instant_ = 0;
  int next_inode_ = 0;
  std::map<int, File> inodes_;      ///< every file a crash may keep
  Directory live_;                     ///< the namespace as the run sees it
  Directory durable_;                  ///< names as of the last fsync
  std::vector<DirOp> pending_dir_;  ///< creates, renames, unlinks since
  bool anchored_ = false;
};

// ---- the checker ---------------------------------------------------------

struct CheckTally {
  std::size_t states = 0;
  std::size_t not_recovered = 0;    ///< fresh start: no anchored segment
  std::size_t anchors_skipped = 0;  ///< a newer segment's anchor not intact
  std::size_t tails_cut = 0;        ///< torn tail or corrupt record
  std::size_t lost_unsynced = 0;    ///< fewer steps than were run by then
  std::size_t stale_temps = 0;      ///< a temp file survived the crash
  std::size_t failures = 0;
};

/// Writes `files` into `dir`.
void WriteFiles(const std::string& dir,
                const std::map<std::string, std::string>& files) {
  for (const auto& [name, bytes] : files) {
    auto file = fs::Open(dir + "/" + name, fs::OpenMode::kCreateTruncate);
    ASSERT_TRUE(file.ok()) << file.status();
    TOPKMON_ASSERT_OK(file->Write(bytes));
  }
}

/// Whether the segment at `path` opens with an intact anchor.
bool OpensWithAnAnchor(const std::string& path) {
  auto reader = CycleJournalReader::Open(path);
  if (!reader.ok()) return false;
  const CycleJournalReader::Outcome first = (*reader)->Next();
  return first.kind == CycleJournalReader::Kind::kRecord &&
         first.record.type == JournalRecordType::kSnapshot;
}

/// Opens `files` as a journal directory with MonitorService::Open and
/// checks the six properties against `log`.
void CheckState(const RunLog& log, const CrashState& state,
                const std::map<std::string, std::string>& files,
                CheckTally* tally) {
  ++tally->states;
  const std::string what = state.Describe(log.ops);
  std::vector<std::string> broken;
  ScopedTempDir dir;
  WriteFiles(dir.path(), files);
  if (::testing::Test::HasFatalFailure()) return;
  auto listed = ListSegments(dir.path());
  ASSERT_TRUE(listed.ok()) << listed.status();
  for (const SegmentInfo& segment : *listed) {
    if (!OpensWithAnAnchor(segment.path)) {
      broken.push_back("5. listed " + SegmentFileName(segment.index) +
                       " does not open with an intact anchor");
    }
  }
  if (std::any_of(files.begin(), files.end(),
                  [](const auto& file) { return IsTemp(file.first); })) {
    ++tally->stale_temps;
  }
  ServiceOptions options;
  options.journal.dir = dir.path();
  options.journal.snapshot_on_shutdown = false;
  auto service = MonitorService::Open(
      [] {
        return std::unique_ptr<MonitorEngine>(new TmaEngine(TmaOptions()));
      },
      options);
  if (!service.ok()) {
    broken.push_back("1. recovery failed: " + service.status().ToString());
  } else {
    const RecoveryReport& report = (*service)->recovery();
    if (!report.recovered) ++tally->not_recovered;
    if (report.segments_skipped > 0) ++tally->anchors_skipped;
    if (report.torn_tail || report.corrupt_record) {
      ++tally->tails_cut;
      if (report.tail_detail.empty() || report.tail_bytes_dropped == 0) {
        broken.push_back("1. damage cut off without a classification: " +
                         report.ToString());
      }
    }
    if (state.anchored && !report.recovered) {
      broken.push_back("4. no anchored segment survived");
    }
    std::vector<QueryId> live;
    for (const JournaledQuery& q : report.live_queries) {
      live.push_back(q.spec.id);
    }
    std::size_t steps = log.expected.size();
    for (std::size_t s = 0; s < log.expected.size(); ++s) {
      const Expected& e = log.expected[s];
      if (e.last_cycle_ts != report.last_cycle_ts ||
          e.next_record_id != report.next_record_id ||
          e.next_query_id != report.next_query_id ||
          e.window_size != report.window_size || e.live != live) {
        continue;
      }
      bool same = true;
      for (std::size_t q = 0; q < e.live.size() && same; ++q) {
        const auto result = (*service)->CurrentResult(e.live[q]);
        same = result.ok() && *result == e.results[q];
      }
      if (same) {
        steps = s;
        break;
      }
    }
    listed = ListSegments(dir.path());
    ASSERT_TRUE(listed.ok()) << listed.status();
    if (!listed->empty()) {
      const std::string temp = listed->back().path + ".tmp";
      for (const std::string& name : dir.Files()) {
        if (dir.path() + "/" + name == temp) {
          broken.push_back("6. " + name + " remains at the writer's index");
        }
      }
    }
    if (steps == log.expected.size()) {
      broken.push_back("2. recovered state matches no prefix of the steps: " +
                       report.ToString());
    } else if (steps < state.required) {
      broken.push_back("3. recovered " + std::to_string(steps) +
                       " steps, but a barrier had returned for " +
                       std::to_string(state.required));
    } else if (steps < log.StepsBy(state.instant)) {
      ++tally->lost_unsynced;
    }
    (*service)->Shutdown();
  }
  if (!broken.empty()) {
    ++tally->failures;
    if (tally->failures <= 5) {
      std::ostringstream os;
      os << what << "; files:";
      for (const auto& [name, bytes] : files) {
        os << " " << name << "=" << bytes.size() << "B";
      }
      for (const std::string& b : broken) os << "\n  " << b;
      ADD_FAILURE() << os.str();
    }
  }
}

class JournalCrashStateTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JournalCrashStateTest, EveryCrashStateRecoversADurablePrefix) {
  const std::uint64_t retain = GetParam();
  ScopedTempDir run_dir;
  const RunLog log = RecordRun(run_dir.path(), retain);
  ASSERT_FALSE(HasFailure()) << "the scripted run failed";

  // The log is complete: replaying all of it gives the files on disk.
  {
    DiskModel model(log.ops);
    while (model.instant() < log.ops.size()) model.Step();
    CrashState everything;
    everything.instant = log.ops.size();
    everything.dir_applied.assign(log.ops.size(), true);
    std::map<std::string, std::string> on_disk;
    for (const std::string& name : run_dir.Files()) {
      auto bytes = fs::ReadFile(run_dir.path() + "/" + name, 64u << 20);
      ASSERT_TRUE(bytes.ok()) << bytes.status();
      on_disk[name] = *bytes;
    }
    const auto modelled = model.Materialize(everything);
    EXPECT_TRUE(modelled == on_disk)
        << "the model of the log differs from the files the run left";
  }

  // Each rotation streamed its anchor in at least 4 chunks: writes to a
  // segment before its prologue's pwrite.
  std::map<std::string, std::size_t> chunks;
  std::size_t streamed = 0;
  for (const LoggedOp& op : log.ops) {
    if (op.op == fs::Op::kWrite && op.data.size() > 0) ++chunks[op.name];
    if (op.op == fs::Op::kWriteAt) {
      EXPECT_GE(chunks[op.name], 4u) << op.name;
      ++streamed;
    }
  }
  EXPECT_EQ(streamed, 4u) << "all four rotations stream their anchor";

  // Enumerate, deduplicate and check every distinct state.
  CheckTally tally;
  std::set<std::string> seen;
  std::size_t enumerated = 0;
  DiskModel model(log.ops);
  std::size_t barrier = 0;
  std::size_t required = 0;
  while (true) {
    while (barrier < log.barriers.size() &&
           log.barriers[barrier].first <= model.instant()) {
      required = log.barriers[barrier++].second;
    }
    for (CrashState& state : model.States()) {
      ++enumerated;
      state.required = required;
      state.key +=
          "|" + std::to_string(required) + (state.anchored ? "a" : "");
      if (seen.insert(state.key).second) {
        CheckState(log, state, model.Materialize(state), &tally);
      }
    }
    if (model.instant() == log.ops.size()) break;
    model.Step();
  }
  std::printf(
      "[ retain %llu ] ops=%zu states: enumerated=%zu distinct=%zu | "
      "fresh=%zu anchor-skipped=%zu tail-cut=%zu lost-unsynced=%zu "
      "stale-temp=%zu failed=%zu\n",
      static_cast<unsigned long long>(retain), log.ops.size(), enumerated,
      tally.states, tally.not_recovered, tally.anchors_skipped,
      tally.tails_cut, tally.lost_unsynced, tally.stale_temps,
      tally.failures);
  EXPECT_EQ(tally.failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(Retain, JournalCrashStateTest,
                         ::testing::Values(1u, 2u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& p) {
                           return "Retain" + std::to_string(p.param);
                         });

// The scripts above never have more than three directory operations
// pending at once, so they build every subset; a longer script (six
// creates before any directory fsync) gets all, none, each one alone, and
// all but one or two.
TEST(CrashStateModelTest, ManyPendingDirectoryOpsLandAloneOrAllButTwo) {
  std::vector<LoggedOp> ops;
  for (int i = 0; i < 6; ++i) {
    LoggedOp create;
    create.op = fs::Op::kOpen;
    create.name = "f" + std::to_string(i);
    ops.push_back(create);
  }
  DiskModel model(ops);
  while (model.instant() < ops.size()) model.Step();
  std::set<std::set<std::string>> listings;
  for (const CrashState& state : model.States()) {
    std::set<std::string> names;
    for (const auto& [name, bytes] : model.Materialize(state)) {
      names.insert(name);
    }
    listings.insert(std::move(names));
  }
  EXPECT_EQ(listings.size(), 1u + 1u + 6u + 6u + 15u);
}

// ---- the fencing epoch ---------------------------------------------------

TEST(EpochCrashStateTest, EpochIsNeverAbsentNorOlderOnceWritten) {
  const std::vector<std::uint64_t> epochs = {3, 7, 12};
  ScopedTempDir run_dir;
  std::vector<LoggedOp> ops;
  /// (ops logged when a write returned, the epoch it wrote), in order.
  std::vector<std::pair<std::size_t, std::uint64_t>> returned;
  {
    Recorder recorder(run_dir.path(), &ops);
    for (const std::uint64_t epoch : epochs) {
      TOPKMON_ASSERT_OK(WriteFencingEpoch(run_dir.path(), epoch));
      returned.emplace_back(ops.size(), epoch);
    }
  }

  DiskModel model(ops);
  std::set<std::string> seen;
  std::size_t checked = 0;
  std::size_t failures = 0;
  std::size_t next = 0;
  bool written = false;
  std::uint64_t floor = 0;  ///< the last epoch whose write returned
  while (true) {
    while (next < returned.size() && returned[next].first <= model.instant()) {
      written = true;
      floor = returned[next++].second;
    }
    for (const CrashState& state : model.States()) {
      if (!seen.insert(state.key + "|" + std::to_string(floor)).second) {
        continue;
      }
      ++checked;
      const auto files = model.Materialize(state);
      ScopedTempDir dir;
      WriteFiles(dir.path(), files);
      const auto epoch = ReadFencingEpoch(dir.path());
      std::string broken;
      if (!epoch.ok()) {
        broken = "unreadable: " + epoch.status().ToString();
      } else if (written && files.count("EPOCH") == 0) {
        broken = "EPOCH is absent";
      } else if (*epoch < floor) {
        broken = "EPOCH went back to " + std::to_string(*epoch) + " from " +
                 std::to_string(floor);
      } else if (*epoch != 0 &&
                 std::find(epochs.begin(), epochs.end(), *epoch) ==
                     epochs.end()) {
        broken = "EPOCH holds " + std::to_string(*epoch) + ", never written";
      }
      if (!broken.empty() && ++failures <= 5) {
        ADD_FAILURE() << state.Describe(ops) << ": " << broken;
      }
    }
    if (model.instant() == ops.size()) break;
    model.Step();
  }
  std::printf("[ epoch ] ops=%zu states checked=%zu failed=%zu\n", ops.size(),
              checked, failures);
  EXPECT_EQ(failures, 0u);
}

}  // namespace
}  // namespace topkmon
