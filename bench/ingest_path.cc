// Wire→queue ingest-path microbench: the copying decode vs. the block
// decode the TCP server runs.
//
// The copying path decodes every kIngest frame into a fresh
// std::vector<Record> (DecodeNetBody) and pushes the records into the
// IngestQueue one call at a time. The server's path (DecodeIngestBody +
// PushBatch, the "zerocopy" rows, a label kept so the CI gate compares
// against the committed baselines) decodes the frame into one reusable
// block and admits each block in one call; the queue copies each
// record's arrival and d coordinates into the slots it took at
// construction, and the drain copies them into the engine's batch.
//
// Four measured configurations, each pumping the same pre-encoded ingest
// frames (batch=512, d=2) through one leg of the path:
//
//   decode-copying    DecodeNetBody into a fresh vector per frame
//   decode-zerocopy   DecodeIngestBody into one reusable block
//   e2e-copying       copying decode + per-record TryPush + drain
//   e2e-zerocopy      block decode + PushBatch per block + drain
//
// The two decode rows are NOT like-for-like: the block decoder also runs
// the per-record ValidatePoint/arrival screening that the copying path
// defers to admission time (the frame-boundary validation contract), so
// it does strictly more work per tuple, while the copying decoder pays a
// fresh allocation per frame that the reusable block does not. The e2e
// rows are the fair comparison — both end with every record validated,
// admitted and drained.
//
// Reported per row: rec_per_s (gated by tools/compare_bench_json.py);
// the e2e rows also report queue_bytes_per_slot, the queue's record
// storage per slot as measured by IngestQueue::MemoryBytes() / capacity
// (28 + 8d bytes: a 24-byte ordering key, a free-slot stack entry and
// the d coordinates).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common/harness.h"
#include "common/record.h"
#include "net/protocol.h"
#include "service/ingest_queue.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table_printer.h"

namespace topkmon {
namespace bench {
namespace {

constexpr int kDim = 2;
constexpr std::size_t kBatch = 512;  // records per wire frame
// Distinct pre-encoded frames cycled through each loop, arrivals
// non-decreasing across the set so queue admission sees a plausible
// stream rather than one frozen timestamp.
constexpr std::size_t kDistinctFrames = 64;

std::vector<std::string> EncodeFrames() {
  std::vector<std::string> bodies;
  bodies.reserve(kDistinctFrames);
  Rng rng(7);
  RecordId next_id = 1;
  Timestamp arrival = 1;
  for (std::size_t f = 0; f < kDistinctFrames; ++f) {
    std::vector<Record> tuples;
    tuples.reserve(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      Record r;
      r.id = next_id++;
      r.arrival = arrival;
      r.position = Point(kDim);
      for (int d = 0; d < kDim; ++d) r.position[d] = rng.Uniform();
      tuples.push_back(r);
      if (i % 8 == 7) ++arrival;  // a few tuples share each timestamp
    }
    std::string body;
    EncodeIngest(tuples, &body);
    bodies.push_back(std::move(body));
  }
  return bodies;
}

IngestOptions QueueOptions() {
  IngestOptions opt;
  opt.capacity = 1 << 16;
  opt.max_batch = 8192;
  opt.slack = 0;  // release immediately: the bench drains after each frame
  return opt;
}

struct LegResult {
  double seconds = 0.0;
  std::size_t records = 0;
  /// IngestQueue::MemoryBytes() / capacity; 0 for the decode-only legs.
  double queue_bytes_per_slot = 0.0;
  double rec_per_s() const {
    return seconds > 0.0 ? static_cast<double>(records) / seconds : 0.0;
  }
};

double QueueBytesPerSlot(const IngestQueue& queue) {
  return static_cast<double>(queue.MemoryBytes()) /
         static_cast<double>(QueueOptions().capacity);
}

LegResult DecodeCopying(const std::vector<std::string>& bodies,
                        std::size_t frames) {
  LegResult result;
  Stopwatch watch;
  for (std::size_t f = 0; f < frames; ++f) {
    const std::string& body = bodies[f % bodies.size()];
    NetMessage msg;
    const Status status = DecodeNetBody(body.data(), body.size(), &msg);
    if (!status.ok()) std::abort();
    result.records += msg.tuples.size();
  }
  result.seconds = watch.ElapsedSeconds();
  return result;
}

LegResult DecodeZeroCopy(const std::vector<std::string>& bodies,
                         std::size_t frames) {
  LegResult result;
  IngestFrameView block;
  const auto count = [&result](const IngestFrameView& b) {
    result.records += b.records.size();
    return true;
  };
  Stopwatch watch;
  for (std::size_t f = 0; f < frames; ++f) {
    const std::string& body = bodies[f % bodies.size()];
    const Status status =
        DecodeIngestBody(body.data(), body.size(), kDim, &block, count);
    if (!status.ok()) std::abort();
  }
  result.seconds = watch.ElapsedSeconds();
  return result;
}

LegResult EndToEndCopying(const std::vector<std::string>& bodies,
                          std::size_t frames) {
  LegResult result;
  IngestQueue queue(QueueOptions(), kDim);
  result.queue_bytes_per_slot = QueueBytesPerSlot(queue);
  std::vector<Record> drained;
  Timestamp cycle_ts = 0;
  Stopwatch watch;
  for (std::size_t f = 0; f < frames; ++f) {
    const std::string& body = bodies[f % bodies.size()];
    NetMessage msg;
    if (!DecodeNetBody(body.data(), body.size(), &msg).ok()) std::abort();
    for (const Record& r : msg.tuples) {
      if (!queue.TryPush(r.position, r.arrival)) std::abort();
    }
    drained.clear();
    result.records += queue.DrainBatch(&drained, &cycle_ts,
                                       std::chrono::milliseconds(0),
                                       /*flush_all=*/true);
  }
  result.seconds = watch.ElapsedSeconds();
  return result;
}

LegResult EndToEndZeroCopy(const std::vector<std::string>& bodies,
                           std::size_t frames) {
  LegResult result;
  IngestQueue queue(QueueOptions(), kDim);
  result.queue_bytes_per_slot = QueueBytesPerSlot(queue);
  IngestFrameView block;
  const auto admit = [&queue](const IngestFrameView& b) {
    // capacity >> batch and every frame is drained
    if (queue.PushBatch(b.records) < b.records.size()) std::abort();
    return true;
  };
  std::vector<Record> drained;
  Timestamp cycle_ts = 0;
  Stopwatch watch;
  for (std::size_t f = 0; f < frames; ++f) {
    const std::string& body = bodies[f % bodies.size()];
    const Status status =
        DecodeIngestBody(body.data(), body.size(), kDim, &block, admit);
    if (!status.ok()) std::abort();
    drained.clear();
    result.records += queue.DrainBatch(&drained, &cycle_ts,
                                       std::chrono::milliseconds(0),
                                       /*flush_all=*/true);
  }
  result.seconds = watch.ElapsedSeconds();
  return result;
}

int Main() {
  const Scale scale = GetScale();
  std::size_t frames = 8000;
  if (scale == Scale::kSmoke) {
    frames = 2000;
  } else if (scale == Scale::kPaper) {
    frames = 32000;
  }
  const std::size_t total = frames * kBatch;

  std::printf("== Ingest path: copying vs. block wire decode ==\n");
  std::printf(
      "d=%d  batch=%zu records/frame  frames=%zu (%zu records)  "
      "scale=%s\n\n",
      kDim, kBatch, frames, total, ScaleName(scale));

  const std::vector<std::string> bodies = EncodeFrames();

  BenchResultWriter json("ingest_path");
  json.Config("dim", static_cast<double>(kDim));
  json.Config("wire_batch", static_cast<double>(kBatch));
  json.Config("frames", static_cast<double>(frames));

  struct Leg {
    const char* label;
    const char* stage;
    const char* path;
    LegResult (*run)(const std::vector<std::string>&, std::size_t);
  };
  const Leg legs[] = {
      {"decode-copying", "decode", "copying", DecodeCopying},
      {"decode-zerocopy", "decode", "zerocopy", DecodeZeroCopy},
      {"e2e-copying", "e2e", "copying", EndToEndCopying},
      {"e2e-zerocopy", "e2e", "zerocopy", EndToEndZeroCopy},
  };

  TablePrinter table(
      {"leg", "records", "wall s", "rec/s", "queue B/slot"});
  for (const Leg& leg : legs) {
    // One untimed warm-up pass over the distinct frames faults in the
    // bodies and the allocator before the measured run.
    leg.run(bodies, kDistinctFrames);
    const LegResult r = leg.run(bodies, frames);
    table.AddRow({leg.label,
                  TablePrinter::Int(static_cast<std::int64_t>(r.records)),
                  TablePrinter::Num(r.seconds, 3),
                  TablePrinter::Int(static_cast<std::int64_t>(r.rec_per_s())),
                  TablePrinter::Int(
                      static_cast<std::int64_t>(r.queue_bytes_per_slot))});
    BenchResultWriter::Row& row = json.AddRow(leg.label);
    row.tags["stage"] = leg.stage;
    row.tags["path"] = leg.path;
    row.metrics["records"] = static_cast<double>(r.records);
    row.metrics["wall_s"] = r.seconds;
    row.metrics["rec_per_s"] = r.rec_per_s();
    if (r.queue_bytes_per_slot > 0.0) {
      row.metrics["queue_bytes_per_slot"] = r.queue_bytes_per_slot;
    }
  }
  table.Print(std::cout);
  json.Write();

  PrintExpectation(
      "e2e-zerocopy should beat e2e-copying: no per-frame vector "
      "allocation and one admission call per block instead of one per "
      "record. The decode-only rows bound each leg's raw parse cost; the "
      "block row carries the per-record validation the copying path pays "
      "later. queue_bytes_per_slot is 28 + 8d = 44 at d=2.");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace topkmon

int main() { return topkmon::bench::Main(); }
