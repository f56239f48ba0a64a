// bench_e2e — the end-to-end benchmark of topkmon.
//
// One run drives one named workload against a real MonitorService +
// TcpServer and reports what a user of the service sees: records going
// in over the wire, deltas coming out.
//
// Process layout. The benchmark forks before it creates any thread.
// The child execs into the system under test (sut.h). The parent is the
// load generator (load.h): a producer thread (open-loop wire ingest), a
// subscriber thread (long-polled delta stream) and the main thread,
// which scrapes /metrics, issues the control traffic (query
// replacements and snapshot reads) and marks the legs. All timing
// happens outside the program: around MonitorClient calls, through
// /metrics and the leg marks, and — in the traced run — through a
// bench-side engine decorator and the service's cycle observer.
//
// A run: set up (several times, each in a fresh child, some before the
// legs and some after, reporting the median), a warm-up leg, rounds of
// lo → hi → capacity legs and bisection probes of the sustainable rate,
// then — on workloads without control traffic — an idle burst of
// control calls, then verification: every live query's result must
// equal a BruteForceEngine over the last N generated records, each
// query's delta stream must replay to it, the delta sequence must be
// gap-free and no delta may be dropped. Any failure exits non-zero
// without printing a result.
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//   bench_e2e --self-test
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.

#include <signal.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/brute_force_engine.h"
#include "e2ebench/analysis.h"
#include "e2ebench/common.h"
#include "e2ebench/load.h"
#include "e2ebench/sut.h"
#include "e2ebench/trace.h"
#include "obs/metrics.h"
#include "stream/generators.h"

namespace e2e {

int RunSelfTest();

namespace {

using topkmon::MonitorClient;
using topkmon::QuerySpec;
using topkmon::Record;
using topkmon::RecordId;
using topkmon::StatusCode;
using topkmon::Timestamp;

constexpr std::size_t kRegisterBatch = 64;            ///< specs per frame
/// Replacements of the idle control burst: enough for ten register
/// samples beyond the p99.
constexpr std::size_t kIdleReplacements = 1000;
constexpr int kSetups = 7;                            ///< setups per run
constexpr int kRounds = 5;                            ///< lo/hi/capacity rounds
constexpr int kProbes = 4;                            ///< bisection probes
constexpr std::int64_t kSettleNs = 250000000;         ///< idle after closed loop
constexpr double kLatencyLimitMs = 100.0;             ///< sustainable check
constexpr std::int64_t kScrapeNs = 100000000;         ///< 10 Hz
constexpr std::int64_t kFastScrapeNs = 50000000;      ///< 20 Hz, rate legs
constexpr std::int64_t kTraceLeadNs = 5000000;        ///< tracing before leg
constexpr std::int64_t kTraceTailNs = 200000000;      ///< tracing past leg
constexpr std::size_t kParentSpans = std::size_t{1} << 18;
constexpr std::size_t kChromeSpans = 200000;
constexpr double kMiB = 1024.0 * 1024.0;

const char* const kApplied = "topkmon_records_applied_total";
const char* const kCycles = "topkmon_cycles_total";
const char* const kDropped = "topkmon_deltas_dropped_total";

/// The end-to-end metrics, printed with --trace 0; every other metric
/// is per-layer and printed with --trace 1. BENCHMARK.json lists the
/// same names. Only metrics that stay steady from run to run on a
/// shared box gate a change: latencies, throughput and CPU time follow
/// the box's speed, which shifts by a third for minutes at a time, and
/// are reported per layer.
const std::string kEndToEnd[] = {"setup_s", "peak_rss_mib"};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string out_dir = ".";
};

/// Records the first failure of any thread; the main thread polls it.
class FailureFlag {
 public:
  void Set(const std::string& msg) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!failed_) message_ = msg;
    failed_ = true;
  }
  void Check() const {
    std::lock_guard<std::mutex> lock(mu_);
    if (failed_) Fail(message_);
  }

 private:
  mutable std::mutex mu_;
  bool failed_ = false;
  std::string message_;
};

/// Everything measured at one leg boundary.
struct Boundary {
  std::int64_t t_ns = 0;
  MetricsText m;
  ChildSnap child;
  std::uint64_t calls = 0;
  std::uint64_t accepted = 0;
};

/// One admin-plane sample taken while a leg runs.
struct ScrapePoint {
  std::int64_t t_ns = 0;
  int leg = -1;
  double applied = 0;
  double depth = 0;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  double samples = 0;  ///< samples or work items behind the value
  double pct = 0;      ///< the percentile reported, for a percentile
};

/// One system under test plus its three connections: the producer's,
/// the monitoring session's (registrations, control traffic, reads) and
/// the subscriber's, which resumes the same session to long-poll it.
struct Session {
  std::unique_ptr<Child> child;
  std::unique_ptr<MonitorClient> producer_conn;
  std::unique_ptr<MonitorClient> control_conn;
  std::unique_ptr<MonitorClient> subscriber_conn;
  std::unique_ptr<Producer> producer;
  std::unique_ptr<Subscriber> subscriber;
  std::unique_ptr<QueryMaker> maker;
  std::vector<LiveQuery> live;
  double setup_s = 0;
};

std::unique_ptr<MonitorClient> Connect(std::uint16_t port,
                                       const std::string& label,
                                       bool resume) {
  auto client = MonitorClient::Connect("127.0.0.1", port, label, resume);
  if (!client.ok()) Fail("connect failed: " + client.status().ToString());
  return std::move(*client);
}

/// The legs of one round. A run repeats lo → hi → capacity kRounds
/// times and reports each end-to-end value as the median over rounds, so
/// a slow spell of the box that covers a minority of the run does not
/// move it. The traced run splits lo into an untraced and a traced half,
/// so tracing overhead is measured at the same rate in the same child.
struct Round {
  int lo = -1;
  int traced = -1;
  int hi = -1;
  int cap = -1;
};

class Bench {
 public:
  explicit Bench(const Options& opt) : opt_(opt), w_(*opt.workload) {
    if (opt_.trace) spans_ = std::make_unique<SpanBuffer>(kParentSpans);
  }

  void Run();
  void Print() const;

 private:
  std::unique_ptr<Session> Setup(int index);
  /// Closes the connections and stops the child; returns its spans.
  std::vector<Span> Close(Session& s);
  void Measure(Session& s);
  void RunLegs(Session& s, Control& control);
  void IdleControl(Session& s, Control& control);
  Boundary Take(Session& s, bool final = false);
  void RunUntil(Session& s, Control& control, std::int64_t t_end, int leg);
  bool EvaluateProbe(int idx);
  void Verify(Session& s);
  void EndToEndMetrics(const Boundary& final);
  void LayerMetrics(Session& s, const Boundary& final,
                    const std::vector<Span>& child_spans);
  double Standalone(double records_per_cycle) const;

  void Add(const std::string& name, const std::string& unit, double value,
           double samples) {
    metrics_.push_back(Metric{name, unit, value, samples});
  }
  /// Adds the nearest-rank p-quantile of a sample set.
  void AddPct(const std::string& name, const std::string& unit,
              std::vector<double> v, double p) {
    const double n = static_cast<double>(v.size());
    Add(name, unit, NearestRank(v, p), n);
    metrics_.back().pct = p;
  }
  /// Adds the median over `legs` of each leg's p50 of `kind` samples,
  /// and the p99 of those samples pooled.
  void AddLatency(const std::string& p50_name, const std::string& p99_name,
                  SampleKind kind, const std::vector<int>& legs);
  /// The given leg of every round.
  std::vector<int> LegsOf(int Round::*leg) const {
    std::vector<int> out;
    for (const Round& r : rounds_) out.push_back(r.*leg);
    return out;
  }
  /// Where the control-path samples come from: the lo legs under
  /// control traffic, else the idle burst.
  std::vector<int> ControlLegs() const {
    return w_.control() ? LegsOf(&Round::lo) : std::vector<int>{idle_leg_};
  }
  Leg LegOf(int i) const {
    return schedule_.Legs().at(static_cast<std::size_t>(i));
  }
  const Boundary& Start(int leg) const { return bounds_.at({leg, 0}); }
  const Boundary& End(int leg) const { return bounds_.at({leg, 1}); }
  double Seconds(int leg) const {
    return static_cast<double>(End(leg).t_ns - Start(leg).t_ns) / 1e9;
  }
  double Delta(int leg, const char* series) const {
    return CounterDelta(Start(leg).m, End(leg).m, series);
  }
  double CpuUsPerRec(int leg) const {
    return (End(leg).child.cpu_us - Start(leg).child.cpu_us) /
           Delta(leg, kApplied);
  }

  const Options opt_;
  const Workload& w_;
  Schedule schedule_;
  Samples samples_;
  FailureFlag failure_;
  std::atomic<bool> tracing_{false};
  std::unique_ptr<SpanBuffer> spans_;  ///< parent spans (traced run)
  std::vector<double> setups_;
  std::map<std::pair<int, int>, Boundary> bounds_;  ///< (leg, 0=start/1=end)
  std::vector<ScrapePoint> scrapes_;
  std::int64_t next_scrape_ = 0;
  int leg_warm_ = -1;
  std::vector<Round> rounds_;
  // The idle control burst of workloads without control traffic: its
  // samples are filed under the index one past the last leg.
  int idle_leg_ = -1;
  std::int64_t idle_start_ns_ = 0;
  std::int64_t idle_end_ns_ = 0;
  double capacity_ = 0;
  double sustainable_ = 0;
  double attempted_ = 0;
  std::vector<Metric> metrics_;
};

std::unique_ptr<Session> Bench::Setup(int index) {
  SetEpoch();
  auto s = std::make_unique<Session>();
  const std::string tag =
      std::to_string(::getpid()) + "-" + std::to_string(index);
  s->child = std::make_unique<Child>(
      w_, opt_.trace,
      w_.journal ? opt_.out_dir + "/journal-" + tag : std::string(),
      opt_.out_dir + "/spans-" + tag + ".bin");
  const std::uint16_t port = s->child->data_port();
  s->producer_conn = Connect(port, "e2e-producer", false);
  s->control_conn = Connect(port, "e2e-monitor", false);
  s->subscriber_conn = Connect(port, "e2e-monitor", true);
  if (!s->subscriber_conn->resumed()) Fail("subscriber did not resume");
  s->producer = std::make_unique<Producer>(s->producer_conn.get(), w_,
                                           opt_.seed, &schedule_, &samples_,
                                           spans_.get(), &tracing_);
  s->subscriber = std::make_unique<Subscriber>(
      s->subscriber_conn.get(), &schedule_, &samples_, spans_.get(),
      &tracing_);

  s->producer->Prefill(kWindow);
  const std::int64_t deadline = NowNs() + 60000000000LL;
  while (Scrape(s->child->admin_port()).Value(kApplied) <
         static_cast<double>(kWindow)) {
    if (NowNs() > deadline) Fail("set-up: prefill was not applied");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  s->maker = std::make_unique<QueryMaker>(w_, QuerySeed(opt_.seed));
  std::vector<QuerySpec> specs;
  for (std::size_t i = 0; i < w_.queries; ++i) specs.push_back(s->maker->Next());
  for (std::size_t i = 0; i < specs.size(); i += kRegisterBatch) {
    const std::vector<QuerySpec> chunk(
        specs.begin() + static_cast<std::ptrdiff_t>(i),
        specs.begin() + static_cast<std::ptrdiff_t>(
                            std::min(specs.size(), i + kRegisterBatch)));
    auto outcomes = s->control_conn->RegisterBatch(chunk);
    if (!outcomes.ok()) {
      Fail("RegisterBatch failed: " + outcomes.status().ToString());
    }
    for (std::size_t j = 0; j < outcomes->size(); ++j) {
      const topkmon::RegisterOutcome& o = (*outcomes)[j];
      if (o.code != StatusCode::kOk) Fail("registration refused: " + o.message);
      s->live.push_back(LiveQuery{o.query, chunk[j]});
    }
  }
  while (s->subscriber->initial_events() < w_.queries) {
    if (NowNs() > deadline) Fail("set-up: initial results did not arrive");
    s->subscriber->PollOnce(std::chrono::milliseconds(100));
  }
  s->setup_s = static_cast<double>(NowNs()) / 1e9;
  return s;
}

void Bench::Run() {
  std::filesystem::create_directories(opt_.out_dir);
  // Set-ups run at both ends of the run, so that a slow spell of the box
  // at either end moves their median less. The last one before the legs
  // is the measured system; the ones after start once it has stopped and
  // the parent is down to one thread again.
  const int setups = opt_.trace ? 1 : kSetups;
  const int before = setups - setups / 2;
  std::unique_ptr<Session> s;
  for (int i = 0; i < setups; ++i) {
    if (s != nullptr) {
      Close(*s);
      s.reset();
    }
    s = Setup(i);
    setups_.push_back(s->setup_s);
    std::printf("setup %d: %.4f s\n", i + 1, s->setup_s);
    if (i == before - 1) {
      Measure(*s);  // stops the measured system
      s.reset();
    }
  }
  if (s != nullptr) Close(*s);
  metrics_.insert(metrics_.begin(),
                  Metric{"setup_s", "s", Median(setups_),
                         static_cast<double>(setups_.size())});
}

std::vector<Span> Bench::Close(Session& s) {
  s.producer_conn.reset();
  s.control_conn.reset();
  s.subscriber_conn.reset();
  return s.child->Quit();
}

Boundary Bench::Take(Session& s, bool final) {
  Boundary b;
  b.t_ns = NowNs();
  b.child = s.child->Mark(final);
  b.m = Scrape(s.child->admin_port());
  b.calls = s.producer->calls();
  b.accepted = s.producer->accepted();
  return b;
}

void Bench::RunUntil(Session& s, Control& control, std::int64_t t_end,
                     int leg) {
  const LegKind kind = leg >= 0 ? LegOf(leg).kind : LegKind::kWarm;
  const std::int64_t interval =
      kind == LegKind::kCapacity || kind == LegKind::kProbe ? kFastScrapeNs
                                                            : kScrapeNs;
  while (true) {
    failure_.Check();
    const std::int64_t now = NowNs();
    if (now >= t_end) return;
    control.RunDue(now, leg);
    if (now >= next_scrape_) {
      const MetricsText m = Scrape(s.child->admin_port());
      scrapes_.push_back(ScrapePoint{now, leg, m.Value(kApplied),
                                     m.Value("topkmon_ingest_queue_depth")});
      next_scrape_ = now + interval;
    }
    SleepUntilNs(std::min({t_end, control.NextDue(), next_scrape_}));
  }
}

void Bench::Measure(Session& s) {
  Control control(s.control_conn.get(), w_, ControlSeed(opt_.seed),
                  s.maker.get(), &s.live, &samples_, spans_.get(),
                  &tracing_);
  std::atomic<bool> stop{false};
  std::atomic<Timestamp> final_ts{0};
  std::thread producer;
  std::thread subscriber;
  try {
    // Leg lengths as shares of the run: 6% warm-up, then kRounds rounds
    // of lo (5.6%), hi (4%) and capacity (2.4%), then kProbes probes
    // (6% each), with a settling pause after every closed-loop leg.
    const double S = opt_.seconds;
    std::int64_t t = NowNs() + 20000000;
    auto append = [&](Leg leg) {
      t = leg.end_ns;
      return schedule_.Append(leg);
    };
    leg_warm_ = append(OpenLeg(LegKind::kWarm, t, 0.06 * S, w_.rate_lo));
    for (int i = 0; i < kRounds; ++i) {
      Round r;
      if (opt_.trace) {
        r.lo = append(OpenLeg(LegKind::kLo, t, 0.028 * S, w_.rate_lo));
        r.traced =
            append(OpenLeg(LegKind::kLoTraced, t, 0.028 * S, w_.rate_lo));
      } else {
        r.lo = append(OpenLeg(LegKind::kLo, t, 0.056 * S, w_.rate_lo));
      }
      r.hi = append(OpenLeg(LegKind::kHi, t, 0.04 * S, w_.rate_hi));
      r.cap = append(ClosedLeg(t, 0.024 * S));
      t += kSettleNs;
      rounds_.push_back(r);
    }

    PinThread({kCpuProducer});
    producer = std::thread([&] {
      try {
        s.producer->Run();
      } catch (const std::exception& e) {
        failure_.Set(std::string("producer: ") + e.what());
      }
    });
    PinThread({kCpuSubscriber});
    subscriber = std::thread([&] {
      try {
        s.subscriber->Run(&stop, &final_ts);
      } catch (const std::exception& e) {
        failure_.Set(std::string("subscriber: ") + e.what());
      }
    });
    PinThread({kCpuProducer, kCpuSubscriber});
    control.Start(LegOf(0).start_ns);
    RunLegs(s, control);

    schedule_.Close();
    producer.join();
    final_ts.store(s.producer->last_ts());
    const topkmon::Status caught_up = s.control_conn->WaitForAsOf(
        s.live[0].id, final_ts.load(), std::chrono::milliseconds(60000));
    if (!caught_up.ok()) Fail("stream not applied: " + caught_up.ToString());
    if (!w_.control()) IdleControl(s, control);
    stop.store(true);
    subscriber.join();
    failure_.Check();
    const Boundary final = Take(s, true);
    Verify(s);
    // Any failed operation has voided the run by now, so every attempted
    // one succeeded.
    attempted_ = static_cast<double>(s.producer->generated()) +
                 static_cast<double>(control.rpcs()) +
                 final.m.Value("topkmon_deltas_published_total");
    const std::vector<Span> child_spans = Close(s);
    EndToEndMetrics(final);
    if (opt_.trace) LayerMetrics(s, final, child_spans);
  } catch (...) {
    stop.store(true);
    schedule_.Close();
    s.child->Kill();
    if (producer.joinable()) producer.join();
    if (subscriber.joinable()) subscriber.join();
    throw;
  }
}

void Bench::RunLegs(Session& s, Control& control) {
  const std::vector<Leg> legs = schedule_.Legs();
  for (int i = 0; i < static_cast<int>(legs.size()); ++i) {
    const Leg& leg = legs[static_cast<std::size_t>(i)];
    if (leg.kind == LegKind::kLoTraced) {
      // Tracing starts before the leg so the cycles that run while its
      // start is marked are traced too.
      RunUntil(s, control, leg.start_ns - kTraceLeadNs, -1);
      s.child->SetTracing(true);
      tracing_.store(true);
    }
    RunUntil(s, control, leg.start_ns, -1);
    bounds_[{i, 0}] = Take(s);
    if (leg.kind != LegKind::kLoTraced && tracing_.load()) {
      // Keep tracing a little past the traced leg so its last records'
      // cycles and deliveries are recorded too.
      RunUntil(s, control, leg.start_ns + kTraceTailNs, i);
      tracing_.store(false);
      s.child->SetTracing(false);
    }
    RunUntil(s, control, leg.end_ns, i);
    bounds_[{i, 1}] = Take(s);
  }
  std::vector<double> capacities;
  for (std::size_t i = 0; i < rounds_.size(); ++i) {
    const Round& r = rounds_[i];
    capacities.push_back(Delta(r.cap, kApplied) / Seconds(r.cap));
    std::vector<double> fresh = samples_.Get(kFresh, r.lo);
    std::printf("round %zu: fresh p50 %.4f ms, cpu %.4f us/rec, capacity "
                "%.0f rec/s\n",
                i + 1, NearestRank(fresh, 0.5), CpuUsPerRec(r.lo),
                capacities.back());
  }
  capacity_ = Median(capacities);

  // Bisection of the sustainable rate in [0.5, 1.0] x capacity.
  double lo = 0.5 * capacity_;
  double hi = capacity_;
  std::int64_t start = legs.back().end_ns + kSettleNs;
  for (int p = 0; p < kProbes; ++p) {
    const double rate = 0.5 * (lo + hi);
    const int idx = schedule_.Append(
        OpenLeg(LegKind::kProbe, start, 0.06 * opt_.seconds, rate));
    const Leg leg = LegOf(idx);
    RunUntil(s, control, leg.start_ns, -1);
    bounds_[{idx, 0}] = Take(s);
    RunUntil(s, control, leg.end_ns, idx);
    bounds_[{idx, 1}] = Take(s);
    start = leg.end_ns + kSettleNs;
    RunUntil(s, control, start - 20000000, -1);
    (EvaluateProbe(idx) ? lo : hi) = rate;
  }
  sustainable_ = lo;
}

void Bench::IdleControl(Session& s, Control& control) {
  // Workloads without control traffic time the same calls once the
  // stream is applied, back to back on the idle service, so the records'
  // legs stay free of them.
  idle_leg_ = static_cast<int>(schedule_.Legs().size());
  if (opt_.trace) {
    s.child->SetTracing(true);
    tracing_.store(true);
  }
  idle_start_ns_ = NowNs();
  control.Burst(kIdleReplacements, idle_leg_);
  idle_end_ns_ = NowNs();
  if (opt_.trace) {
    tracing_.store(false);
    s.child->SetTracing(false);
  }
}

bool Bench::EvaluateProbe(int idx) {
  const Leg leg = LegOf(idx);
  const double applied = Delta(idx, kApplied);
  const bool delivered = applied >= 0.99 * static_cast<double>(leg.count);
  // Backlog (due − applied), averaged over the scrapes of two windows:
  // growth between them means the rate outruns the service.
  const double applied0 = Start(idx).m.Value(kApplied);
  double sums[2] = {0, 0};
  double counts[2] = {0, 0};
  for (const ScrapePoint& p : scrapes_) {
    if (p.leg != idx) continue;
    const double frac = static_cast<double>(p.t_ns - leg.start_ns) /
                        static_cast<double>(leg.end_ns - leg.start_ns);
    const int w = frac >= 0.35 && frac < 0.6 ? 0 : frac >= 0.8 ? 1 : -1;
    if (w < 0) continue;
    sums[w] += static_cast<double>(leg.DueBy(p.t_ns)) - (p.applied - applied0);
    counts[w] += 1;
  }
  const double growth = (counts[1] > 0 ? sums[1] / counts[1] : 0) -
                        (counts[0] > 0 ? sums[0] / counts[0] : 0);
  // One frame plus 5 ms of traffic: the in-flight jitter of a drained
  // pipeline (frame batching, drain wait, poll tick).
  const bool steady =
      growth <= static_cast<double>(kFrame) + leg.rate * 0.005;
  std::vector<double> fresh = samples_.Get(kFresh, idx);
  const double p99 = NearestRank(fresh, 0.99);
  const bool fast = !fresh.empty() && p99 <= kLatencyLimitMs;
  const bool ok = delivered && steady && fast;
  std::printf(
      "probe at %.0f rec/s: applied %.4f of offered, backlog growth %.0f, "
      "fresh p99 %.3f ms (n=%zu) -> %s\n",
      leg.rate,
      applied / static_cast<double>(std::max<std::int64_t>(leg.count, 1)),
      growth, p99, fresh.size(), ok ? "sustained" : "not sustained");
  return ok;
}

void Bench::Verify(Session& s) {
  const std::size_t total = s.producer->generated();
  topkmon::BruteForceEngine truth(w_.dim, topkmon::WindowSpec::Count(kWindow));
  std::vector<Record> window;
  window.reserve(kWindow);
  for (RecordId id = total - kWindow; id < total; ++id) {
    window.emplace_back(id, *s.producer->Position(id), 1);
  }
  if (!truth.ProcessCycle(1, window).ok()) Fail("BruteForce cycle failed");
  for (const LiveQuery& q : s.live) {
    QuerySpec spec = q.spec;
    spec.id = q.id;
    if (!truth.RegisterQuery(spec).ok()) Fail("BruteForce register failed");
  }
  const PositionLookup position = [&s](RecordId id) {
    return s.producer->Position(id);
  };
  const auto& replay = s.subscriber->replay();
  for (const LiveQuery& q : s.live) {
    auto got = s.control_conn->CurrentResult(q.id);
    if (!got.ok()) Fail("CurrentResult failed: " + got.status().ToString());
    const auto want = truth.CurrentResult(q.id);
    std::string err = CheckTopK(*got, *want, position);
    if (!err.empty()) {
      Fail("query " + std::to_string(q.id) + " disagrees with BruteForce: " +
           err);
    }
    const auto it = replay.find(q.id);
    err = it == replay.end() ? "no deltas"
                             : CheckTopK(it->second, *got, position);
    if (!err.empty()) {
      Fail("delta stream of query " + std::to_string(q.id) +
           " does not replay to its result: " + err);
    }
  }
  const double dropped = Scrape(s.child->admin_port()).Value(kDropped);
  if (dropped != 0) Fail(std::to_string(dropped) + " deltas dropped");
  std::printf(
      "verified: %zu live queries equal BruteForce over the last %zu of %zu "
      "records; every delta stream replays to its result; delta sequence "
      "gap-free; 0 dropped\n",
      s.live.size(), kWindow, total);
}

void Bench::AddLatency(const std::string& p50_name,
                       const std::string& p99_name, SampleKind kind,
                       const std::vector<int>& legs) {
  std::vector<double> p50s;
  for (int leg : legs) {
    std::vector<double> v = samples_.Get(kind, leg);
    if (!v.empty()) p50s.push_back(NearestRank(v, 0.5));
  }
  std::vector<double> pooled = samples_.Pooled(kind, legs);
  const double n = static_cast<double>(pooled.size());
  Add(p50_name, "ms", Median(p50s), n);
  metrics_.back().pct = 0.5;
  AddPct(p99_name, "ms", std::move(pooled), 0.99);
}

void Bench::EndToEndMetrics(const Boundary& final) {
  double cap_applied = 0;
  std::vector<double> cpu;
  double lo_applied = 0;
  for (const Round& r : rounds_) {
    cap_applied += Delta(r.cap, kApplied);
    cpu.push_back(CpuUsPerRec(r.lo));
    lo_applied += Delta(r.lo, kApplied);
  }
  Add("capacity_rec_per_s", "rec/s", capacity_, cap_applied);
  Add("sustainable_rec_per_s", "rec/s", sustainable_, kProbes);
  AddLatency("fresh_p50_ms", "fresh_p99_ms", kFresh, LegsOf(&Round::lo));
  AddLatency("fresh_p50_ms_hi", "fresh_p99_ms_hi", kFresh,
             LegsOf(&Round::hi));
  AddLatency("ack_p50_ms", "ack_p99_ms", kAck, LegsOf(&Round::lo));
  AddLatency("register_p50_ms", "register_p99_ms", kRegister, ControlLegs());
  AddLatency("snapshot_p50_ms", "snapshot_p99_ms", kSnapshot, ControlLegs());
  Add("cpu_us_per_rec", "us/rec", Median(cpu), lo_applied);
  Add("peak_rss_mib", "MiB", final.child.hwm_kib / 1024.0, 1);
}

void Bench::LayerMetrics(Session& s, const Boundary& final,
                         const std::vector<Span>& child_spans) {
  // Everything below is summed over the traced halves of the rounds.
  const std::vector<int> traced = LegsOf(&Round::traced);
  const std::vector<Leg> all_legs = schedule_.Legs();
  const auto in_leg = [&](std::int64_t t) {
    for (int i : traced) {
      const Leg& leg = all_legs[static_cast<std::size_t>(i)];
      if (t >= leg.start_ns && t < leg.end_ns) return true;
    }
    return false;
  };
  // Control-path spans: the traced legs under control traffic, else the
  // idle burst.
  const auto in_control = [&](std::int64_t t) {
    return w_.control() ? in_leg(t) : t >= idle_start_ns_ && t < idle_end_ns_;
  };
  MetricsText gained;
  double secs = 0;
  double calls = 0;
  double accepted = 0;
  double offered = 0;
  ChildSnap c;  // gains of the child's counters
  for (int i : traced) {
    gained.Accumulate(Start(i).m, End(i).m);
    secs += Seconds(i);
    calls += static_cast<double>(End(i).calls - Start(i).calls);
    accepted += static_cast<double>(End(i).accepted - Start(i).accepted);
    offered += static_cast<double>(all_legs[static_cast<std::size_t>(i)].count);
    const ChildSnap& a = Start(i).child;
    const ChildSnap& b = End(i).child;
    c.cycles += b.cycles - a.cycles;
    c.arrivals += b.arrivals - a.arrivals;
    c.recomputations += b.recomputations - a.recomputations;
    c.cells_visited += b.cells_visited - a.cells_visited;
    c.points_scored += b.points_scored - a.points_scored;
    c.skyband_ops += b.skyband_ops - a.skyband_ops;
    c.cpu_us += b.cpu_us - a.cpu_us;
    c.allocs += b.allocs - a.allocs;
    c.alloc_bytes += b.alloc_bytes - a.alloc_bytes;
  }
  const double applied = gained.Value(kApplied);
  const double cycles = gained.Value(kCycles);
  const std::vector<Span> parent_spans = spans_->Collect();
  auto durations_us = [&in_leg](const std::vector<Span>& spans,
                                std::uint32_t name, bool nonempty) {
    std::vector<double> v;
    for (const Span& sp : spans) {
      if (sp.name == name && in_leg(sp.start_ns) && (!nonempty || sp.aux)) {
        v.push_back(static_cast<double>(sp.end_ns - sp.start_ns) / 1e3);
      }
    }
    return v;
  };
  auto histogram_p99_ms = [&gained](const char* name, std::uint64_t* n) {
    return HistogramQuantile(gained, name, 0.99, n) * 1e3;
  };

  // net
  const std::vector<double> ingest_us =
      durations_us(parent_spans, kSpanRpcIngest, false);
  AddPct("net.ingest_rpc_p50_us", "us", ingest_us, 0.5);
  AddPct("net.ingest_rpc_p99_us", "us", ingest_us, 0.99);
  AddPct("net.poll_rpc_p50_us", "us",
         durations_us(parent_spans, kSpanRpcPoll, true), 0.5);
  Add("net.bytes_in_per_rec", "B/rec",
      gained.Value("topkmon_net_bytes_received_total") / applied, applied);
  const double delivered = gained.Value("topkmon_deltas_delivered_total");
  Add("net.bytes_out_per_delta", "B/delta",
      gained.Value("topkmon_net_bytes_sent_total") / std::max(delivered, 1.0),
      delivered);
  Add("net.records_per_frame", "rec/frame", accepted / calls, calls);
  double refused = 0;
  double cap_accepted = 0;
  for (const Round& r : rounds_) {
    refused += Delta(r.cap, "topkmon_net_records_backpressured_total");
    cap_accepted +=
        static_cast<double>(End(r.cap).accepted - Start(r.cap).accepted);
  }
  Add("net.backpressured_frac", "fraction", refused / (refused + cap_accepted),
      refused + cap_accepted);

  // service
  std::vector<double> depth;
  for (const ScrapePoint& p : scrapes_) {
    if (std::find(traced.begin(), traced.end(), p.leg) != traced.end()) {
      depth.push_back(p.depth);
    }
  }
  AddPct("service.queue_depth_p99", "rec", depth, 0.99);
  Add("service.records_per_cycle", "rec/cycle", applied / cycles, cycles);
  std::uint64_t n_hist = 0;
  double q = histogram_p99_ms("topkmon_ingest_publish_latency_seconds",
                              &n_hist);
  Add("service.ingest_publish_p99_ms", "ms", q, static_cast<double>(n_hist));
  q = histogram_p99_ms("topkmon_delta_delivery_latency_seconds", &n_hist);
  Add("service.delivery_p99_ms", "ms", q, static_cast<double>(n_hist));
  const double published = gained.Value("topkmon_deltas_published_total");
  Add("service.deltas_per_krec", "delta/krec", published * 1e3 / applied,
      published);

  // Traced cycles of the legs (by drain instant) and the decomposition.
  const std::vector<CycleTiming> cycle_timings = CycleTimings(child_spans);
  const Decomposition d =
      Decompose(cycle_timings, s.subscriber->traced_events());
  double busy_ns = 0;
  double self_ns = 0;
  double records = 0;
  std::vector<double> pre_apply_us;
  std::vector<double> cycle_us;
  for (const CycleTiming& ct : cycle_timings) {
    if (!in_leg(ct.observer_ns)) continue;
    busy_ns += static_cast<double>(ct.exit_ns - ct.observer_ns);
    self_ns += static_cast<double>(ct.exit_ns - ct.enter_ns - ct.publish_ns);
    records += ct.records;
    pre_apply_us.push_back(static_cast<double>(ct.enter_ns - ct.observer_ns) /
                           1e3);
    cycle_us.push_back(static_cast<double>(ct.exit_ns - ct.enter_ns) / 1e3);
  }
  Add("service.driver_busy_frac", "fraction", busy_ns / (secs * 1e9),
      static_cast<double>(cycle_us.size()));
  const double events = static_cast<double>(d.attributed);
  Add("service.fresh_mean_ms", "ms", d.mean_fresh_ns / 1e6,
      static_cast<double>(d.events));
  Add("service.to_drain_mean_ms", "ms", d.mean.to_drain / 1e6, events);
  Add("service.pre_apply_mean_ms", "ms", d.mean.pre_apply / 1e6, events);
  Add("service.engine_self_mean_ms", "ms", d.mean.engine_self / 1e6, events);
  Add("service.hub_publish_mean_ms", "ms", d.mean.hub_publish / 1e6, events);
  Add("service.to_client_mean_ms", "ms", d.mean.to_client / 1e6, events);
  const double tail = static_cast<double>(d.tail_events);
  Add("service.tail_to_drain_ms", "ms", d.tail_mean.to_drain / 1e6, tail);
  Add("service.tail_pre_apply_ms", "ms", d.tail_mean.pre_apply / 1e6, tail);
  Add("service.tail_engine_self_ms", "ms", d.tail_mean.engine_self / 1e6,
      tail);
  Add("service.tail_hub_publish_ms", "ms", d.tail_mean.hub_publish / 1e6,
      tail);
  Add("service.tail_to_client_ms", "ms", d.tail_mean.to_client / 1e6, tail);

  // Hub publish spans nested in the legs' cycles; control-path spans.
  double publish_ns = 0;
  double publishes = 0;
  std::unordered_map<std::int64_t, double> core_register_ns;
  std::vector<double> core_register_us;
  std::vector<double> core_snapshot_us;
  for (const Span& sp : child_spans) {
    const double dur = static_cast<double>(sp.end_ns - sp.start_ns);
    if (sp.name == kSpanHubPublish && sp.parent != kNoSpan &&
        child_spans[sp.parent].name == kSpanCycle &&
        in_leg(child_spans[sp.parent].start_ns)) {
      publish_ns += dur;
      publishes += 1;
    } else if (sp.name == kSpanRegister && in_control(sp.start_ns)) {
      core_register_ns[sp.trace_id] = dur;
      core_register_us.push_back(dur / 1e3);
    } else if (sp.name == kSpanSnapshot && in_control(sp.start_ns)) {
      core_snapshot_us.push_back(dur / 1e3);
    }
  }
  Add("service.hub_publish_us_per_delta", "us",
      publish_ns / 1e3 / std::max(publishes, 1.0), publishes);
  std::vector<double> register_wait_us;
  for (const Span& sp : parent_spans) {
    if (sp.name != kSpanRpcRegister || !in_control(sp.start_ns)) continue;
    const auto it = core_register_ns.find(sp.trace_id);
    if (it == core_register_ns.end()) continue;
    register_wait_us.push_back(
        (static_cast<double>(sp.end_ns - sp.start_ns) - it->second) / 1e3);
  }
  AddPct("service.register_wait_p99_us", "us", register_wait_us, 0.99);

  // stream
  Add("stream.arena_peak_mib", "MiB",
      final.m.Value("topkmon_arena_peak_bytes") / kMiB, 1);
  Add("stream.arena_chunks_created", "count",
      CounterDelta(End(leg_warm_).m, final.m,
                   "topkmon_arena_chunks_created_total"),
      1);

  // journal
  AddPct("journal.pre_apply_p50_us", "us", pre_apply_us, 0.5);
  Add("journal.fsync_busy_frac", "fraction",
      gained.Value("topkmon_journal_fsync_latency_seconds_sum") / secs, 1);
  const double fsyncs =
      gained.Value("topkmon_journal_fsync_latency_seconds_count");
  Add("journal.fsyncs_per_s", "1/s", fsyncs / secs, fsyncs);
  Add("journal.bytes_per_rec", "B/rec",
      gained.Value("topkmon_journal_bytes_total") / applied, applied);

  // core
  AddPct("core.cycle_p99_us", "us", cycle_us, 0.99);
  Add("core.self_us_per_rec", "us/rec", self_ns / 1e3 / std::max(records, 1.0),
      records);
  Add("core.prrec", "fraction",
      c.recomputations / (c.cycles * static_cast<double>(w_.queries)),
      c.cycles);
  Add("core.prrec_bound", "fraction",
      1.0 - std::pow(1.0 - c.arrivals / c.cycles / static_cast<double>(kWindow),
                     w_.k),
      c.cycles);
  Add("core.skyband_ops_per_krec", "ops/krec", c.skyband_ops * 1e3 / c.arrivals,
      c.arrivals);
  AddPct("core.register_p99_us", "us", core_register_us, 0.99);
  AddPct("core.snapshot_p99_us", "us", core_snapshot_us, 0.99);
  Add("core.engine_mib", "MiB", final.child.engine_bytes / kMiB, 1);
  Add("core.standalone_rec_per_s", "rec/s", Standalone(applied / cycles), 1);

  // grid
  Add("grid.cells_visited_per_rec", "cells/rec",
      c.cells_visited / c.arrivals, c.arrivals);
  Add("grid.points_scored_per_rec", "points/rec",
      c.points_scored / c.arrivals, c.arrivals);

  // process
  Add("process.allocs_per_rec", "allocs/rec", c.allocs / applied, applied);
  Add("process.alloc_bytes_per_rec", "B/rec", c.alloc_bytes / applied,
      applied);

  // loadgen
  AddPct("loadgen.late_p99_ms", "ms", samples_.Pooled(kLate, traced), 0.99);
  Add("loadgen.offered_rec_per_s", "rec/s", offered / secs, offered);

  // Trace validity: the traced halves against the untraced halves of the
  // same child, where the decorator forwards without timing and no
  // allocation is counted. The baseline therefore still holds the
  // idle decorator: one virtual call and one relaxed load per engine
  // call.
  double cpu_u = 0;
  double applied_u = 0;
  for (const Round& r : rounds_) {
    cpu_u += End(r.lo).child.cpu_us - Start(r.lo).child.cpu_us;
    applied_u += Delta(r.lo, kApplied);
  }
  Add("trace.overhead_frac", "fraction",
      (c.cpu_us / applied) / (cpu_u / applied_u) - 1.0, applied);
  std::vector<double> fu = samples_.Pooled(kFresh, LegsOf(&Round::lo));
  std::vector<double> ft = samples_.Pooled(kFresh, traced);
  const double nf = static_cast<double>(ft.size());
  Add("trace.fresh_p50_overhead_frac", "fraction",
      NearestRank(ft, 0.5) / NearestRank(fu, 0.5) - 1.0, nf);
  Add("trace.reconcile_err", "fraction", d.reconcile_err,
      static_cast<double>(d.events));
  Add("trace.attributed_frac", "fraction",
      static_cast<double>(d.attributed) /
          std::max<double>(1.0, static_cast<double>(d.events)),
      static_cast<double>(d.events));

  const std::string trace_path = opt_.out_dir + "/trace-" + w_.name + ".json";
  if (WriteChromeTrace(trace_path, child_spans, parent_spans, kChromeSpans)) {
    std::printf("chrome trace: %s (%zu child + %zu parent spans, %llu "
                "dropped)\n",
                trace_path.c_str(), std::min(child_spans.size(), kChromeSpans),
                std::min(parent_spans.size(), kChromeSpans),
                static_cast<unsigned long long>(spans_->dropped()));
  }
}

/// The single-threaded baseline: the same stream fed straight into a
/// fresh engine at the traced legs' records per cycle, timed for one
/// second after two window turnovers with the queries registered (SMA
/// runs at half speed while its skybands converge).
double Bench::Standalone(double records_per_cycle) const {
  const std::size_t r =
      std::max<std::size_t>(1, static_cast<std::size_t>(records_per_cycle));
  std::unique_ptr<topkmon::MonitorEngine> engine = MakeEngine(w_);
  engine->SetDeltaCallback([](const topkmon::ResultDelta&) {});
  topkmon::RecordSource source(
      topkmon::MakeGenerator(w_.dist, w_.dim, PositionSeed(opt_.seed)));
  Timestamp now = 0;
  for (std::size_t n = 0; n < kWindow; n += r) {
    ++now;
    if (!engine->ProcessCycle(now, source.NextBatch(r, now)).ok()) {
      Fail("standalone cycle failed");
    }
  }
  QueryMaker maker(w_, QuerySeed(opt_.seed));
  for (std::size_t i = 0; i < w_.queries; ++i) {
    QuerySpec spec = maker.Next();
    spec.id = i + 1;
    if (!engine->RegisterQuery(spec).ok()) Fail("standalone register failed");
  }
  for (std::size_t n = 0; n < 2 * kWindow; n += r) {
    ++now;
    if (!engine->ProcessCycle(now, source.NextBatch(r, now)).ok()) {
      Fail("standalone cycle failed");
    }
  }
  std::size_t records = 0;
  std::int64_t elapsed = 0;
  while (elapsed < 1000000000) {
    const std::vector<Record> batch = source.NextBatch(r, ++now);
    const std::int64_t c0 = NowNs();
    if (!engine->ProcessCycle(now, batch).ok()) Fail("standalone cycle failed");
    elapsed += NowNs() - c0;
    records += r;
  }
  return static_cast<double>(records) / (static_cast<double>(elapsed) / 1e9);
}

std::string BoxJson() {
  std::string model;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.compare(0, 10, "model name") == 0) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  }
  utsname u{};
  ::uname(&u);
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": \"" + topkmon::JsonEscape(model) +
         "\", \"kernel\": \"" + topkmon::JsonEscape(u.release) +
         "\", \"build_type\": \"" E2E_BUILD_TYPE "\", \"pinned\": " +
         (Pinned() ? "true" : "false") + "}";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void Bench::Print() const {
  for (const Metric& m : metrics_) {
    const bool unsupported =
        m.pct > 0 &&
        !PercentileSupported(static_cast<std::size_t>(m.samples), m.pct);
    std::printf("metric %-34s %14s %-10s n=%.0f%s\n", m.name.c_str(),
                Number(m.value).c_str(), m.unit.c_str(), m.samples,
                unsupported ? " (fewer than ten samples beyond it)" : "");
  }
  // The full report, with sample counts, for the set runner.
  const std::string path = opt_.out_dir + "/" + w_.name + "-seed" +
                           std::to_string(opt_.seed) + "-trace" +
                           (opt_.trace ? "1" : "0") + ".json";
  std::ofstream report(path);
  report << "{\"workload\": \"" << w_.name << "\", \"seed\": " << opt_.seed
         << ", \"seconds\": " << Number(opt_.seconds)
         << ", \"trace\": " << (opt_.trace ? 1 : 0) << ", \"box\": "
         << BoxJson() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    report << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
           << Number(m.value) << ", \"unit\": \"" << m.unit
           << "\", \"samples\": " << Number(m.samples) << "}";
  }
  report << "}}\n";
  // The result line: every metric of this mode's list. With --trace 1
  // that includes the report-only user metrics, which then come from
  // this traced run: one set-up, and lo values from the untraced halves.
  // A failure voids the run, so a printed run failed nothing.
  std::string line = "{\"correct\": true, \"attempted\": " +
                     Number(std::floor(attempted_)) +
                     ", \"failed\": 0, \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    const bool e2e =
        std::find(std::begin(kEndToEnd), std::end(kEndToEnd), m.name) !=
        std::end(kEndToEnd);
    if (e2e == opt_.trace) continue;
    line += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + Number(m.value) + ", \"unit\": \"" + m.unit +
            "\"}";
    first = false;
  }
  std::printf("%s}}\n", line.c_str());
}

// ---------------------------------------------------------------- main

bool ParseArgs(int argc, char** argv, Options* opt, bool* self_test) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "--self-test" && i + 1 < argc) {
      value = argv[++i];
    }
    if (arg == "--self-test") {
      *self_test = true;
    } else if (arg == "--workload") {
      opt->workload = FindWorkload(value);
      if (opt->workload == nullptr) return false;
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt->seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      opt->trace = value == "1";
    } else if (arg == "--out-dir") {
      opt->out_dir = value;
    } else {
      return false;
    }
  }
  return *self_test || (opt->workload != nullptr && opt->seconds >= 10 &&
                        opt->seconds <= 120);
}

int Main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--sut") return SutMain(argc, argv);
  Options opt;
  bool self_test = false;
  if (!ParseArgs(argc, argv, &opt, &self_test)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload ingest|durable|queries|churn "
                 "--seed N --seconds S(10..120) --trace 0|1 [--out-dir D]\n"
                 "       bench_e2e --self-test\n");
    return 2;
  }
  if (self_test) return RunSelfTest();
  ::signal(SIGPIPE, SIG_IGN);
  InitPlacement();
  PinThread({kCpuProducer, kCpuSubscriber});
  std::printf("workload %s seed %llu seconds %.1f trace %d\n",
              opt.workload->name, static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  try {
    Bench bench(opt);
    bench.Run();
    bench.Print();
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
