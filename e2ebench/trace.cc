#include "e2ebench/trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace e2e {

using topkmon::DeltaCallback;
using topkmon::QueryId;
using topkmon::QuerySpec;
using topkmon::RecordSpan;
using topkmon::ResultDelta;
using topkmon::ResultEntry;
using topkmon::Status;
using topkmon::Timestamp;

namespace {

std::chrono::steady_clock::time_point g_epoch;

}  // namespace

void SetEpoch() { g_epoch = std::chrono::steady_clock::now(); }

std::int64_t EpochNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             g_epoch.time_since_epoch())
      .count();
}

void SetEpochNs(std::int64_t ns) {
  g_epoch = std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::nanoseconds(ns)));
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

std::chrono::steady_clock::time_point EpochTime() { return g_epoch; }

SpanBuffer::SpanBuffer(std::size_t capacity)
    : spans_(new Span[capacity]), capacity_(capacity) {}

std::uint32_t SpanBuffer::Claim() {
  const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return kNoSpan;
  }
  return static_cast<std::uint32_t>(slot);
}

std::uint32_t SpanBuffer::Begin(std::uint32_t name, std::int64_t trace_id,
                                std::uint32_t parent) {
  const std::uint32_t index = Claim();
  if (index == kNoSpan) return kNoSpan;
  Span& s = spans_[index];
  s.name = name;
  s.trace_id = trace_id;
  s.parent = parent;
  s.start_ns = NowNs();
  s.end_ns = s.start_ns;
  return index;
}

void SpanBuffer::End(std::uint32_t index, std::uint32_t aux) {
  if (index == kNoSpan) return;
  spans_[index].end_ns = NowNs();
  spans_[index].aux = aux;
}

std::uint32_t SpanBuffer::Add(const Span& span) {
  const std::uint32_t index = Claim();
  if (index != kNoSpan) spans_[index] = span;
  return index;
}

std::vector<Span> SpanBuffer::Collect() const {
  const std::size_t n =
      std::min(next_.load(std::memory_order_acquire), capacity_);
  return std::vector<Span>(spans_.get(), spans_.get() + n);
}

TracedEngine::TracedEngine(std::unique_ptr<topkmon::MonitorEngine> inner,
                           SpanBuffer* spans,
                           const std::atomic<bool>* enabled)
    : inner_(std::move(inner)), spans_(spans), enabled_(enabled) {}

Status TracedEngine::RegisterQuery(const QuerySpec& spec) {
  if (!tracing()) return inner_->RegisterQuery(spec);
  open_span_ = spans_->Begin(kSpanRegister, static_cast<std::int64_t>(spec.id));
  const Status st = inner_->RegisterQuery(spec);
  spans_->End(open_span_);
  open_span_ = kNoSpan;
  return st;
}

Status TracedEngine::UnregisterQuery(QueryId id) {
  if (!tracing()) return inner_->UnregisterQuery(id);
  const std::uint32_t span =
      spans_->Begin(kSpanUnregister, static_cast<std::int64_t>(id));
  const Status st = inner_->UnregisterQuery(id);
  spans_->End(span);
  return st;
}

void TracedEngine::OnDrain(Timestamp ts, std::size_t records) {
  drain_ts_ = ts;
  drain_ns_ = NowNs();
  drain_records_ = static_cast<std::uint32_t>(records);
}

Status TracedEngine::ProcessCycle(Timestamp now, RecordSpan arrivals) {
  if (!tracing()) return inner_->ProcessCycle(now, arrivals);
  const std::int64_t enter = NowNs();
  if (drain_ts_ == now) {
    Span pre;
    pre.name = kSpanPreApply;
    pre.trace_id = now;
    pre.start_ns = drain_ns_;
    pre.end_ns = enter;
    pre.aux = drain_records_;
    spans_->Add(pre);
  }
  drain_ts_ = -1;
  Span cycle;
  cycle.name = kSpanCycle;
  cycle.trace_id = now;
  cycle.start_ns = enter;
  open_span_ = spans_->Add(cycle);
  const Status st = inner_->ProcessCycle(now, arrivals);
  spans_->End(open_span_, static_cast<std::uint32_t>(arrivals.size()));
  open_span_ = kNoSpan;
  return st;
}

topkmon::Result<std::vector<ResultEntry>> TracedEngine::CurrentResult(
    QueryId id) const {
  if (!tracing()) return inner_->CurrentResult(id);
  const std::uint32_t span =
      spans_->Begin(kSpanSnapshot, static_cast<std::int64_t>(id));
  auto result = inner_->CurrentResult(id);
  spans_->End(span);
  return result;
}

void TracedEngine::SetDeltaCallback(DeltaCallback callback) {
  callback_ = std::move(callback);
  if (!callback_) {
    inner_->SetDeltaCallback(nullptr);
    return;
  }
  inner_->SetDeltaCallback([this](const ResultDelta& delta) {
    if (!tracing()) {
      callback_(delta);
      return;
    }
    const std::uint32_t span =
        spans_->Begin(kSpanHubPublish, delta.when, open_span_);
    callback_(delta);
    spans_->End(span);
  });
}

std::vector<CycleTiming> CycleTimings(const std::vector<Span>& spans) {
  // Drain spans keyed by (cycle timestamp, ProcessCycle entry instant).
  std::map<std::pair<std::int64_t, std::int64_t>, std::int64_t> drains;
  std::map<std::uint32_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      publishes;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name == kSpanPreApply) {
      drains[{s.trace_id, s.end_ns}] = s.start_ns;
    } else if (s.name == kSpanHubPublish && s.parent != kNoSpan) {
      publishes[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<CycleTiming> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name != kSpanCycle) continue;
    const auto drain = drains.find({s.trace_id, s.start_ns});
    if (drain == drains.end()) continue;
    CycleTiming c;
    c.ts = s.trace_id;
    c.observer_ns = drain->second;
    c.enter_ns = s.start_ns;
    c.exit_ns = s.end_ns;
    c.records = s.aux;
    const auto pub = publishes.find(static_cast<std::uint32_t>(i));
    c.publish_ns =
        (s.end_ns - s.start_ns) -
        SelfTimeNs(s.start_ns, s.end_ns,
                   pub == publishes.end()
                       ? std::vector<std::pair<std::int64_t, std::int64_t>>{}
                       : pub->second);
    out.push_back(c);
  }
  return out;
}

namespace {

const char* SpanNameString(std::uint32_t name) {
  switch (name) {
    case kSpanPreApply: return "service.pre_apply";
    case kSpanCycle: return "core.ProcessCycle";
    case kSpanHubPublish: return "service.hub_publish";
    case kSpanRegister: return "core.RegisterQuery";
    case kSpanUnregister: return "core.UnregisterQuery";
    case kSpanSnapshot: return "core.CurrentResult";
    case kSpanRpcIngest: return "net.Ingest";
    case kSpanRpcPoll: return "net.PollDeltas";
    case kSpanRpcRegister: return "net.Register";
    case kSpanRpcUnregister: return "net.Unregister";
    case kSpanRpcSnapshot: return "net.CurrentResult";
    default: return "unknown";
  }
}

int ThreadLane(std::uint32_t name) {
  switch (name) {
    case kSpanPreApply: return 2;     // the driver waiting for the engine
    case kSpanRpcPoll: return 2;      // subscriber thread
    case kSpanRpcRegister:
    case kSpanRpcUnregister:
    case kSpanRpcSnapshot: return 3;  // control (main) thread
    default: return 1;                // engine calls / producer thread
  }
}

void WriteSpans(std::FILE* f, const std::vector<Span>& spans, int pid,
                std::size_t max_spans, bool* first) {
  const std::size_t n = std::min(spans.size(), max_spans);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace_id\":%lld,"
                 "\"parent\":%lld,\"aux\":%u}}",
                 *first ? "" : ",", SpanNameString(s.name), pid,
                 ThreadLane(s.name), static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<long long>(s.trace_id),
                 s.parent == kNoSpan ? -1LL
                                     : static_cast<long long>(s.parent),
                 s.aux);
    *first = false;
  }
}

}  // namespace

bool WriteChromeTrace(const std::string& path,
                      const std::vector<Span>& child_spans,
                      const std::vector<Span>& parent_spans,
                      std::size_t max_spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  std::fprintf(f,
               "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
               "\"args\":{\"name\":\"system under test\"}},"
               "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
               "\"args\":{\"name\":\"load generator\"}}");
  bool first = false;
  WriteSpans(f, child_spans, 1, max_spans, &first);
  WriteSpans(f, parent_spans, 2, max_spans, &first);
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2e
