#include "e2ebench/load.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <thread>

namespace e2e {

using topkmon::MonitorClient;
using topkmon::Point;
using topkmon::QueryId;
using topkmon::QuerySpec;
using topkmon::Record;
using topkmon::RecordId;
using topkmon::ResultEntry;
using topkmon::StatusCode;
using topkmon::Timestamp;

namespace {

constexpr std::int64_t kFlushNs = 1000000;  ///< producer flush interval

double ToMs(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Index of the leg covering instant t; -1 in a gap.
int LegAt(const std::vector<Leg>& legs, std::int64_t t) {
  for (std::size_t i = legs.size(); i-- > 0;) {
    if (t >= legs[i].start_ns) return t < legs[i].end_ns ? int(i) : -1;
  }
  return -1;
}

}  // namespace

// ------------------------------------------------------------------ legs

std::int64_t Leg::DueBy(std::int64_t t) const {
  if (t < start_ns) return 0;
  const auto n = static_cast<std::int64_t>(
                     static_cast<double>(t - start_ns) * rate / 1e9) +
                 1;
  return std::min(n, count);
}

Leg OpenLeg(LegKind kind, std::int64_t start, double seconds, double rate) {
  Leg leg;
  leg.kind = kind;
  leg.start_ns = start;
  leg.end_ns = start + static_cast<std::int64_t>(seconds * 1e9);
  leg.rate = rate;
  leg.count = static_cast<std::int64_t>(seconds * rate);
  return leg;
}

Leg ClosedLeg(std::int64_t start, double seconds) {
  Leg leg;
  leg.kind = LegKind::kCapacity;
  leg.start_ns = start;
  leg.end_ns = start + static_cast<std::int64_t>(seconds * 1e9);
  return leg;
}

int Schedule::Append(Leg leg) {
  std::lock_guard<std::mutex> lock(mu_);
  legs_.push_back(leg);
  cv_.notify_all();
  return static_cast<int>(legs_.size()) - 1;
}

bool Schedule::Get(std::size_t i, Leg* out) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return legs_.size() > i || closed_; });
  if (legs_.size() <= i) return false;
  *out = legs_[i];
  return true;
}

void Schedule::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  cv_.notify_all();
}

std::vector<Leg> Schedule::Legs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return legs_;
}

void Samples::Add(SampleKind kind, int leg, double value) {
  if (leg < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  Slot(kind, leg).push_back(value);
}

void Samples::AddBatch(SampleKind kind,
                       const std::vector<std::pair<int, double>>& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : batch) Slot(kind, s.first).push_back(s.second);
}

std::vector<double> Samples::Get(SampleKind kind, int leg) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto& v = v_[kind];
  return leg >= 0 && static_cast<std::size_t>(leg) < v.size()
             ? v[static_cast<std::size_t>(leg)]
             : std::vector<double>{};
}

std::vector<double> Samples::Pooled(SampleKind kind,
                                   const std::vector<int>& legs) const {
  std::vector<double> out;
  for (int leg : legs) {
    const std::vector<double> v = Get(kind, leg);
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

std::vector<double>& Samples::Slot(SampleKind kind, int leg) {
  auto& v = v_[kind];
  if (v.size() <= static_cast<std::size_t>(leg)) {
    v.resize(static_cast<std::size_t>(leg) + 1);
  }
  return v[static_cast<std::size_t>(leg)];
}

// --------------------------------------------------------------- scrapes

MetricsText Scrape(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Fail("admin socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string response;
  bool ok = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0;
  if (ok) {
    const std::string req = "GET /metrics HTTP/1.0\r\n\r\n";
    ok = ::send(fd, req.data(), req.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(req.size());
  }
  while (ok) {
    char chunk[16384];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t body = response.find("\r\n\r\n");
  if (!ok || body == std::string::npos ||
      response.compare(0, 12, "HTTP/1.0 200") != 0) {
    Fail("admin GET /metrics failed");
  }
  return MetricsText::Parse(response.substr(body + 4));
}

// --------------------------------------------------------------- queries

QueryMaker::QueryMaker(const Workload& w, std::uint64_t seed)
    : dim_(w.dim), k_(w.k), rng_(seed) {}

QuerySpec QueryMaker::Next() {
  QuerySpec spec;
  spec.k = k_;
  spec.function = topkmon::MakeRandomFunction(
      topkmon::FunctionFamily::kLinear, dim_,
      [this] { return rng_.Uniform(); });
  return spec;
}

// -------------------------------------------------------------- producer

Producer::Producer(MonitorClient* client, const Workload& w,
                   std::uint64_t seed, Schedule* schedule, Samples* samples,
                   SpanBuffer* spans, const std::atomic<bool>* tracing)
    : client_(client),
      gen_(topkmon::MakeGenerator(w.dist, w.dim, PositionSeed(seed))),
      ring_(kWindow),
      schedule_(schedule),
      samples_(samples),
      spans_(spans),
      tracing_(tracing) {
  frame_.reserve(kFrame);
  frame_ts_.reserve(kFrame);
}

void Producer::Prefill(std::size_t n) {
  while (generated_ < n) {
    const std::size_t m = std::min(kFrame, n - generated_);
    const Timestamp ts = NowNs() / 1000;
    for (std::size_t i = 0; i < m; ++i) Push(ts);
    Send(-1, false);
  }
}

void Producer::Run() {
  Leg leg;
  for (std::size_t li = 0; schedule_->Get(li, &leg); ++li) {
    if (leg.closed_loop()) {
      RunClosed(leg, static_cast<int>(li));
    } else {
      RunOpen(leg, static_cast<int>(li));
    }
  }
}

const Point* Producer::Position(RecordId id) const {
  if (id >= generated_ || id + kWindow < generated_) return nullptr;
  return &ring_[id % kWindow];
}

void Producer::RunOpen(const Leg& leg, int li) {
  std::int64_t j = 0;
  while (j < leg.count) {
    const std::int64_t last = std::min<std::int64_t>(
        j + static_cast<std::int64_t>(kFrame) - 1, leg.count - 1);
    const std::int64_t flush_due =
        std::min(leg.DueNs(j) + kFlushNs, leg.DueNs(last));
    std::int64_t now = NowNs();
    if (now < flush_due) {
      SleepUntilNs(flush_due);
      now = NowNs();
    }
    const std::int64_t n = std::max<std::int64_t>(
        1, std::min(leg.DueBy(now), last + 1) - j);
    samples_->Add(kLate, li, ToMs(now - flush_due));
    for (std::int64_t i = 0; i < n; ++i) Push(leg.DueNs(j + i) / 1000);
    Send(li, true);
    j += n;
  }
}

void Producer::RunClosed(const Leg& leg, int li) {
  if (NowNs() < leg.start_ns) SleepUntilNs(leg.start_ns);
  while (NowNs() < leg.end_ns) {
    const Timestamp ts = NowNs() / 1000;
    for (std::size_t i = 0; i < kFrame; ++i) Push(ts);
    Send(li, false);
  }
}

void Producer::Push(Timestamp ts) {
  const Point p = gen_->NextPoint();
  ring_[generated_ % kWindow] = p;
  ++generated_;
  frame_.emplace_back(0, p, ts);
  frame_ts_.push_back(ts);
}

void Producer::Send(int leg, bool sample_ack) {
  const std::size_t n = frame_.size();
  const std::size_t base = generated_ - n;
  const Timestamp newest = frame_ts_.back();
  const std::int64_t t0 = NowNs();
  const std::uint32_t span =
      tracing_->load(std::memory_order_relaxed)
          ? spans_->Begin(kSpanRpcIngest, newest)
          : kNoSpan;
  std::size_t off = 0;
  while (true) {
    auto ack = client_->Ingest(std::move(frame_));
    frame_.clear();
    if (!ack.ok()) Fail("ingest RPC failed: " + ack.status().ToString());
    off += ack->accepted;
    if (ack->rejected == 0) break;
    if (ack->first_error.code() != StatusCode::kResourceExhausted) {
      Fail("ingest refused: " + ack->first_error.ToString());
    }
    std::this_thread::sleep_for(
        std::chrono::microseconds(100 + 4u * ack->queue_hint));
    for (std::size_t i = off; i < n; ++i) {
      frame_.emplace_back(0, ring_[(base + i) % kWindow], frame_ts_[i]);
    }
  }
  if (span != kNoSpan) spans_->End(span, static_cast<std::uint32_t>(n));
  if (sample_ack) samples_->Add(kAck, leg, ToMs(NowNs() - t0));
  frame_.clear();
  frame_ts_.clear();
  calls_.fetch_add(1, std::memory_order_relaxed);
  accepted_.fetch_add(n, std::memory_order_relaxed);
  last_ts_.store(newest);
}

// ------------------------------------------------------------ subscriber

Subscriber::Subscriber(MonitorClient* client, Schedule* schedule,
                       Samples* samples, SpanBuffer* spans,
                       const std::atomic<bool>* tracing)
    : client_(client),
      schedule_(schedule),
      samples_(samples),
      spans_(spans),
      tracing_(tracing) {}

std::size_t Subscriber::PollOnce(std::chrono::milliseconds timeout) {
  const bool traced = tracing_->load(std::memory_order_relaxed);
  const std::int64_t t0 = NowNs();
  auto events = client_->PollDeltas(0, timeout);
  const std::int64_t receipt = NowNs();
  if (!events.ok()) Fail("PollDeltas failed: " + events.status().ToString());
  if (events->empty()) return 0;
  if (traced) {
    Span s;
    s.name = kSpanRpcPoll;
    s.start_ns = t0;
    s.end_ns = receipt;
    s.trace_id = events->back().delta.when;
    s.aux = static_cast<std::uint32_t>(events->size());
    spans_->Add(s);
  }
  batch_.clear();
  for (const topkmon::DeltaEvent& e : *events) {
    if (e.seq != last_seq_ + 1) {
      Fail("delta sequence gap: " + std::to_string(last_seq_) + " -> " +
           std::to_string(e.seq));
    }
    last_seq_ = e.seq;
    auto [it, first] = replay_.try_emplace(e.delta.query);
    std::vector<ResultEntry>& result = it->second;
    for (const ResultEntry& r : e.delta.removed) {
      result.erase(std::remove_if(result.begin(), result.end(),
                                  [&r](const ResultEntry& x) {
                                    return x.id == r.id;
                                  }),
                   result.end());
    }
    result.insert(result.end(), e.delta.added.begin(), e.delta.added.end());
    if (first) {
      ++initial_events_;
      continue;
    }
    const std::int64_t due = e.delta.when * 1000;
    int leg = LegAt(legs_, due);
    if (leg < 0 && (legs_.empty() || due >= legs_.back().start_ns)) {
      legs_ = schedule_->Legs();
      leg = LegAt(legs_, due);
    }
    if (leg < 0) continue;
    batch_.emplace_back(leg, ToMs(receipt - due));
    if (legs_[static_cast<std::size_t>(leg)].kind == LegKind::kLoTraced) {
      traced_events_.push_back(FreshEvent{e.delta.when, due, receipt});
    }
  }
  samples_->AddBatch(kFresh, batch_);
  return events->size();
}

void Subscriber::Run(const std::atomic<bool>* stop,
                     const std::atomic<Timestamp>* final_ts) {
  while (true) {
    const std::size_t n = PollOnce(std::chrono::milliseconds(20));
    if (stop->load() && n == 0 && !client_->deltas_truncated() &&
        client_->deltas_as_of() >= final_ts->load()) {
      return;
    }
  }
}

// --------------------------------------------------------------- control

Control::Control(MonitorClient* client, const Workload& w, std::uint64_t seed,
                 QueryMaker* maker, std::vector<LiveQuery>* live,
                 Samples* samples, SpanBuffer* spans,
                 const std::atomic<bool>* tracing)
    : client_(client),
      replace_ns_(w.control()
                      ? static_cast<std::int64_t>(1e9 / w.replace_per_s)
                      : 0),
      read_ns_(w.control() ? static_cast<std::int64_t>(1e9 / w.reads_per_s)
                           : 0),
      rng_(seed),
      maker_(maker),
      live_(live),
      samples_(samples),
      spans_(spans),
      tracing_(tracing) {}

void Control::Start(std::int64_t t0) {
  if (replace_ns_ == 0) return;
  next_replace_ = t0 + replace_ns_;
  next_read_ = t0 + read_ns_ / 2;
}

void Control::Burst(std::size_t replacements, int leg) {
  for (std::size_t i = 0; i < replacements; ++i) {
    Replace(leg);
    Read(leg);
    Read(leg);
  }
}

void Control::RunDue(std::int64_t now, int leg) {
  while (next_replace_ <= now || next_read_ <= now) {
    if (next_replace_ <= next_read_) {
      Replace(leg);
      next_replace_ += replace_ns_;
    } else {
      Read(leg);
      next_read_ += read_ns_;
    }
  }
}

void Control::RecordSpan(bool traced, std::uint32_t name, std::int64_t t0,
                         std::int64_t t1, QueryId id) {
  if (!traced) return;
  Span s;
  s.name = name;
  s.start_ns = t0;
  s.end_ns = t1;
  s.trace_id = static_cast<std::int64_t>(id);
  spans_->Add(s);
}

void Control::Replace(int leg) {
  const bool traced = tracing_->load(std::memory_order_relaxed);
  LiveQuery& victim = (*live_)[rng_.UniformInt(live_->size())];
  std::int64_t t0 = NowNs();
  const topkmon::Status st = client_->Unregister(victim.id);
  RecordSpan(traced, kSpanRpcUnregister, t0, NowNs(), victim.id);
  if (!st.ok()) Fail("Unregister failed: " + st.ToString());
  QuerySpec spec = maker_->Next();
  t0 = NowNs();
  auto id = client_->Register(spec);
  const std::int64_t t1 = NowNs();
  if (!id.ok()) Fail("Register failed: " + id.status().ToString());
  // The trace id is the query id, which a registration learns only on
  // return.
  RecordSpan(traced, kSpanRpcRegister, t0, t1, *id);
  samples_->Add(kRegister, leg, ToMs(t1 - t0));
  victim.id = *id;
  victim.spec = std::move(spec);
  rpcs_ += 2;
}

void Control::Read(int leg) {
  const bool traced = tracing_->load(std::memory_order_relaxed);
  const LiveQuery& q = (*live_)[rng_.UniformInt(live_->size())];
  const std::int64_t t0 = NowNs();
  auto result = client_->CurrentResult(q.id);
  const std::int64_t t1 = NowNs();
  if (!result.ok()) Fail("CurrentResult failed: " + result.status().ToString());
  RecordSpan(traced, kSpanRpcSnapshot, t0, t1, q.id);
  samples_->Add(kSnapshot, leg, ToMs(t1 - t0));
  ++rpcs_;
}

}  // namespace e2e
