// Wire→engine ingest-path microbench: copying vs. zero-copy decode.
//
// The TCP server used to decode every kIngest frame into a fresh
// std::vector<Record> (DecodeNetBody) and then push each record into the
// IngestQueue one at a time, copying the Point again into the queue's
// storage. The zero-copy path (DecodeIngestBodyToArena + PushBatch)
// decodes the frame straight into the queue's RecordArena and admits the
// whole span in one call, so a record's payload is stored exactly once
// between the socket and the drain copy handed to the engine.
//
// Four measured configurations, each pumping the same pre-encoded ingest
// frames (batch=512, d=2) through one leg of the path:
//
//   decode-copying    DecodeNetBody into a fresh vector per frame
//   decode-zerocopy   DecodeIngestBodyToArena into an arena, released
//                     after each frame
//   e2e-copying       copying decode + per-record TryPush + drain
//   e2e-zerocopy      arena decode + PushBatch + drain (which hands the
//                     frame's arena storage back)
//
// The two decode legs are NOT like-for-like: the arena decoder also runs
// the per-record ValidatePoint/arrival screening that the copying path
// defers to admission time (the frame-boundary validation contract), so
// it does strictly more work per tuple. The e2e legs are the fair
// comparison — both end with every record validated, admitted and
// drained, and its arena storage released.
//
// Reported per row: rec_per_s (gated by tools/compare_bench_json.py) and
// bytes_copied_per_record — the Record-payload stores a tuple suffers
// between wire decode and the drained batch, counted analytically:
// copying e2e stores three times (decode vector, queue arena on TryPush,
// drain copy), zero-copy e2e twice (arena on decode, drain copy), the
// decode-only legs once each.

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
#include "stream/record_arena.h"
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
  double stores_per_record = 0.0;
  double rec_per_s() const {
    return seconds > 0.0 ? static_cast<double>(records) / seconds : 0.0;
  }
};

LegResult DecodeCopying(const std::vector<std::string>& bodies,
                        std::size_t frames) {
  LegResult result;
  result.stores_per_record = 1.0;
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
  result.stores_per_record = 1.0;
  RecordArena arena;
  Stopwatch watch;
  for (std::size_t f = 0; f < frames; ++f) {
    const std::string& body = bodies[f % bodies.size()];
    IngestFrameView view;
    const Status status = DecodeIngestBodyToArena(
        body.data(), body.size(), kDim, arena, &view);
    if (!status.ok()) std::abort();
    result.records += view.count;
    arena.Release(view.records, view.count);
  }
  result.seconds = watch.ElapsedSeconds();
  return result;
}

LegResult EndToEndCopying(const std::vector<std::string>& bodies,
                          std::size_t frames) {
  LegResult result;
  result.stores_per_record = 3.0;  // decode vector + queue arena + drain
  IngestQueue queue(QueueOptions());
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
  result.stores_per_record = 2.0;  // arena on decode + drain copy
  IngestQueue queue(QueueOptions());
  std::vector<Record> drained;
  Timestamp cycle_ts = 0;
  Stopwatch watch;
  for (std::size_t f = 0; f < frames; ++f) {
    const std::string& body = bodies[f % bodies.size()];
    IngestFrameView view;
    const Status status = DecodeIngestBodyToArena(
        body.data(), body.size(), kDim, queue.arena(), &view);
    if (!status.ok()) std::abort();
    const std::size_t pushed =
        queue.PushBatch(view.records, view.count);
    if (pushed < view.count) {
      queue.arena().Release(view.records + pushed, view.count - pushed);
      std::abort();  // capacity >> batch and we drain every frame
    }
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

  std::printf("== Ingest path: copying vs. zero-copy wire decode ==\n");
  std::printf(
      "d=%d  batch=%zu records/frame  frames=%zu (%zu records)  "
      "scale=%s\n\n",
      kDim, kBatch, frames, total, ScaleName(scale));

  const std::vector<std::string> bodies = EncodeFrames();
  const double record_bytes =
      static_cast<double>(sizeof(Record));  // one in-memory store

  BenchResultWriter json("ingest_path");
  json.Config("dim", static_cast<double>(kDim));
  json.Config("wire_batch", static_cast<double>(kBatch));
  json.Config("frames", static_cast<double>(frames));
  json.Config("record_bytes", record_bytes);

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

  TablePrinter table({"leg", "records", "wall s", "rec/s", "copied B/rec"});
  for (const Leg& leg : legs) {
    // One untimed warm-up pass over the distinct frames faults in the
    // bodies and the allocator before the measured run.
    leg.run(bodies, kDistinctFrames);
    const LegResult r = leg.run(bodies, frames);
    const double copied = r.stores_per_record * record_bytes;
    table.AddRow({leg.label,
                  TablePrinter::Int(static_cast<std::int64_t>(r.records)),
                  TablePrinter::Num(r.seconds, 3),
                  TablePrinter::Int(static_cast<std::int64_t>(r.rec_per_s())),
                  TablePrinter::Int(static_cast<std::int64_t>(copied))});
    BenchResultWriter::Row& row = json.AddRow(leg.label);
    row.tags["stage"] = leg.stage;
    row.tags["path"] = leg.path;
    row.metrics["records"] = static_cast<double>(r.records);
    row.metrics["wall_s"] = r.seconds;
    row.metrics["rec_per_s"] = r.rec_per_s();
    row.metrics["bytes_copied_per_record"] = copied;
  }
  table.Print(std::cout);
  json.Write();

  PrintExpectation(
      "e2e-zerocopy should beat e2e-copying: one payload store instead of "
      "two before the drain copy, and one admission call per frame "
      "instead of one per record. The decode-only rows bound each leg's "
      "raw parse cost; the arena row carries the per-record validation "
      "the copying path pays later, so it may trail on that leg alone.");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace topkmon

int main() { return topkmon::bench::Main(); }
