#include "e2ebench/sut.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/sma_engine.h"
#include "core/tma_engine.h"
#include "e2ebench/alloc_counter.h"
#include "e2ebench/trace.h"
#include "net/server.h"
#include "service/monitor_service.h"

namespace e2e {

using topkmon::EngineStats;
using topkmon::MonitorEngine;
using topkmon::MonitorService;
using topkmon::RecordSpan;
using topkmon::Timestamp;

namespace {

constexpr std::size_t kChildSpans = std::size_t{1} << 19;
constexpr int kReplyTimeoutMs = 60000;

void WriteAll(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) Fail("pipe write failed: " + std::string(strerror(errno)));
    off += static_cast<std::size_t>(n);
  }
}

double VmHwmKib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) return std::atof(line.c_str() + 6);
  }
  return 0;
}

std::string SnapLine(MonitorService& service, bool final) {
  const EngineStats s = service.EngineCounters();
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const double cpu_us =
      static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
      static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  std::ostringstream out;
  out.precision(17);
  out << "snap " << s.cycles << ' ' << s.arrivals << ' ' << s.recomputations
      << ' ' << s.cells_visited << ' ' << s.points_scored << ' '
      << s.skyband_insertions + s.skyband_evictions << ' ' << cpu_us << ' '
      << g_alloc_counters.allocs.load() << ' '
      << g_alloc_counters.bytes.load() << ' ' << VmHwmKib() << ' '
      << (final ? service.Memory().TotalBytes() : 0) << '\n';
  return out.str();
}

ChildSnap ParseSnap(const std::string& line) {
  std::istringstream in(line);
  std::string tag;
  ChildSnap s;
  in >> tag >> s.cycles >> s.arrivals >> s.recomputations >>
      s.cells_visited >> s.points_scored >> s.skyband_ops >> s.cpu_us >>
      s.allocs >> s.alloc_bytes >> s.hwm_kib >> s.engine_bytes;
  if (tag != "snap" || in.fail()) Fail("bad child snapshot: " + line);
  return s;
}

}  // namespace

/// Buffered line reader over a pipe with a timeout.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// Next line without its newline; false on EOF, error or timeout
  /// (timeout_ms < 0 waits forever).
  bool Next(std::string* line, int timeout_ms) {
    while (true) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      pollfd p{fd_, POLLIN, 0};
      const int ready = ::poll(&p, 1, timeout_ms);
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) return false;
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
};

namespace {

/// The child's whole life. Never returns.
[[noreturn]] void ChildMain(const Workload& w, bool trace, int cmd_fd,
                            int reply_fd, const std::string& journal_dir,
                            const std::string& spans_path) {
  std::atomic<bool> tracing{false};
  std::unique_ptr<SpanBuffer> spans;
  std::unique_ptr<MonitorEngine> engine = MakeEngine(w);
  TracedEngine* traced = nullptr;
  if (trace) {
    spans = std::make_unique<SpanBuffer>(kChildSpans);
    auto wrapped = std::make_unique<TracedEngine>(std::move(engine),
                                                  spans.get(), &tracing);
    traced = wrapped.get();
    engine = std::move(wrapped);
  }
  topkmon::ServiceOptions so;
  so.drain_wait = std::chrono::milliseconds(2);
  so.ingest.max_batch = 4096;
  so.ingest.slack = 2;
  so.hub.buffer_capacity = 65536;
  so.session.max_queries_per_session = 4096;
  so.admin.enabled = true;
  if (w.journal) {
    so.journal.dir = journal_dir;
    so.journal.sync = topkmon::SyncPolicy::kInterval;
    so.journal.sync_interval_cycles = 8;
    so.journal.sync_interval_ms = std::chrono::milliseconds(5);
  }
  // The service starts its driver and admin threads, the server its
  // acceptor and poll loop: each pair inherits the CPU pinned here.
  PinThread({kCpuDriver});
  auto service = std::make_unique<MonitorService>(std::move(engine), so);
  if (traced != nullptr) {
    service->SetCycleObserver([traced](Timestamp ts, RecordSpan batch) {
      traced->OnDrain(ts, batch.size());
    });
  }
  topkmon::NetServerOptions no;
  no.server_threads = 1;
  no.poll_tick = std::chrono::milliseconds(1);
  auto server = std::make_unique<topkmon::TcpServer>(*service, no);
  PinThread({kCpuNet});
  const topkmon::Status started = server->Start();
  PinThread({kCpuDriver, kCpuNet});
  if (!started.ok() || !service->journal_status().ok() ||
      service->admin_port() == 0) {
    WriteAll(reply_fd, "error server did not start\n");
    ::_exit(1);
  }
  WriteAll(reply_fd, "ports " + std::to_string(server->port()) + " " +
                         std::to_string(service->admin_port()) + "\n");
  LineReader commands(cmd_fd);
  std::string line;
  while (commands.Next(&line, -1)) {
    if (line == "mark" || line == "mark final") {
      WriteAll(reply_fd, SnapLine(*service, line == "mark final"));
    } else if (line == "trace 1" || line == "trace 0") {
      // Allocations are counted only while tracing, so the untraced
      // legs of a traced run pay one relaxed load per allocation.
      const bool on = line == "trace 1";
      tracing.store(on);
      g_alloc_counters.enabled.store(on);
      WriteAll(reply_fd, "ok\n");
    } else {
      break;  // "quit", or the parent is gone
    }
  }
  server->Stop();
  service->Shutdown();
  if (spans != nullptr) {
    const std::vector<Span> all = spans->Collect();
    std::ofstream out(spans_path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(all.data()),
              static_cast<std::streamsize>(all.size() * sizeof(Span)));
  }
  server.reset();
  service.reset();
  std::error_code ec;
  if (!journal_dir.empty()) std::filesystem::remove_all(journal_dir, ec);
  WriteAll(reply_fd, "bye\n");
  ::_exit(0);
}

}  // namespace

std::unique_ptr<MonitorEngine> MakeEngine(const Workload& w) {
  topkmon::GridEngineOptions options;
  options.dim = w.dim;
  options.window = topkmon::WindowSpec::Count(kWindow);
  if (w.sma) return std::make_unique<topkmon::SmaEngine>(options);
  return std::make_unique<topkmon::TmaEngine>(options);
}

int SutMain(int argc, char** argv) {
  // bench_e2e --sut WORKLOAD TRACE CMD_FD REPLY_FD EPOCH_NS JOURNAL SPANS
  if (argc != 9) return 2;
  const Workload* w = FindWorkload(argv[2]);
  if (w == nullptr) return 2;
  ::signal(SIGPIPE, SIG_IGN);
  InitPlacement();
  SetEpochNs(std::strtoll(argv[6], nullptr, 10));
  const std::string journal = argv[7];
  try {
    ChildMain(*w, std::string(argv[3]) == "1", std::atoi(argv[4]),
              std::atoi(argv[5]), journal == "-" ? std::string() : journal,
              argv[8]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e system under test: %s\n", e.what());
  }
  return 3;
}

Child::Child(const Workload& w, bool trace, const std::string& journal_dir,
             const std::string& spans_path)
    : journal_dir_(journal_dir), spans_path_(spans_path) {
  int cmd[2];
  int reply[2];
  if (::pipe(cmd) != 0) Fail("pipe failed");
  if (::pipe(reply) != 0) {
    ::close(cmd[0]);
    ::close(cmd[1]);
    Fail("pipe failed");
  }
  // The child execs this binary again, so it starts from a fresh address
  // space: its VmHWM counts the system under test and nothing of the
  // load generator. Its arguments are built before the fork.
  const std::vector<std::string> args = {
      "bench_e2e",
      "--sut",
      w.name,
      trace ? "1" : "0",
      std::to_string(cmd[0]),
      std::to_string(reply[1]),
      std::to_string(EpochNs()),
      journal_dir.empty() ? "-" : journal_dir,
      spans_path};
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  std::fflush(nullptr);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    ::close(cmd[1]);
    ::close(reply[0]);
    UnpinThread();
    ::execv("/proc/self/exe", argv.data());
    ::_exit(3);
  }
  ::close(cmd[0]);
  ::close(reply[1]);
  cmd_fd_ = cmd[1];
  reply_fd_ = reply[0];
  if (pid_ < 0) Fail("fork failed");
  reader_ = std::make_unique<LineReader>(reply_fd_);
  std::string line;
  unsigned data = 0;
  unsigned admin = 0;
  if (!reader_->Next(&line, kReplyTimeoutMs) ||
      std::sscanf(line.c_str(), "ports %u %u", &data, &admin) != 2) {
    Fail("the system under test did not start: " + line);
  }
  data_port_ = static_cast<std::uint16_t>(data);
  admin_port_ = static_cast<std::uint16_t>(admin);
}

Child::~Child() { Kill(); }

std::string Child::Command(const std::string& cmd) {
  WriteAll(cmd_fd_, cmd + "\n");
  std::string line;
  if (!reader_->Next(&line, kReplyTimeoutMs)) {
    Fail("the system under test did not answer " + cmd);
  }
  return line;
}

ChildSnap Child::Mark(bool final) {
  return ParseSnap(Command(final ? "mark final" : "mark"));
}

void Child::SetTracing(bool on) { Command(on ? "trace 1" : "trace 0"); }

std::vector<Span> Child::Quit() {
  if (Command("quit") != "bye") Fail("the system under test did not stop");
  Reap();
  std::vector<Span> spans;
  std::ifstream in(spans_path_, std::ios::binary);
  Span s;
  while (in.read(reinterpret_cast<char*>(&s), sizeof(Span))) {
    spans.push_back(s);
  }
  std::error_code ec;
  std::filesystem::remove(spans_path_, ec);
  return spans;
}

void Child::Kill() {
  if (pid_ > 0) ::kill(pid_, SIGKILL);
  Reap();
}

void Child::Reap() {
  if (pid_ > 0) {
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (cmd_fd_ >= 0) ::close(cmd_fd_);
  if (reply_fd_ >= 0) ::close(reply_fd_);
  cmd_fd_ = reply_fd_ = -1;
  std::error_code ec;
  if (!journal_dir_.empty()) std::filesystem::remove_all(journal_dir_, ec);
}

}  // namespace e2e
