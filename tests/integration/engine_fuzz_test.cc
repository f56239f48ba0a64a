// Differential fuzzing of the monitoring engines.
//
// A seeded generator produces random interleavings of the only four
// operations that mutate an engine — processing cycles (which both
// ingest arrivals and expire the window; a zero-arrival cycle is a pure
// expiry step), query registration and query termination — and replays
// the identical sequence through TMA, SMA, TSL and a 2-shard
// ShardedEngine, checking every live query's result score multiset
// against BruteForceEngine after every cycle. Registrations mix
// monotone and piecewise-monotone specs, so the engines' internal
// piece decomposition is fuzzed under the same interleavings. A second
// tier replays every named workload from src/workload/ — skewed keys,
// bursts, churn, adversarial timestamps — through the same engine set.
//
// Every op is self-contained (cycles carry their own point seed, and
// registrations their own query seed), so a failing sequence can be
// *minimized* by deleting ops and re-running: on mismatch the test
// greedily shrinks the sequence and prints the seed plus a replay
// script of the surviving ops. Each script line maps 1:1 onto a FuzzOp
// (see OpToString), so rebuilding the op list in a scratch test — the
// shape ReplayScriptsAreDeterministic demonstrates — reproduces the
// divergence exactly, without re-deriving the generator's RNG stream.
//
// Extra seeds: TOPKMON_FUZZ_SEEDS=7,8,9 appends to the fixed CI set;
// TOPKMON_FUZZ_STEPS overrides the ops per sequence.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <cstring>

#include "core/brute_force_engine.h"
#include "core/piecewise.h"
#include "core/sharded_engine.h"
#include "core/sma_engine.h"
#include "core/tma_engine.h"
#include "net/protocol.h"
#include "service/ingest_queue.h"
#include "tests/test_util.h"
#include "tsl/tsl_engine.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace topkmon {
namespace {

using ::topkmon::testing::Scores;

constexpr int kDim = 2;
constexpr std::size_t kWindow = 150;
constexpr int kMaxLiveQueries = 6;

struct FuzzOp {
  enum Kind { kCycle, kRegister, kUnregister } kind = kCycle;
  std::size_t batch = 0;          ///< kCycle: arrivals this cycle
  std::uint64_t point_seed = 0;   ///< kCycle: generator seed for them
  QueryId query = 0;              ///< kRegister / kUnregister target
  int k = 0;                      ///< kRegister
  std::uint64_t query_seed = 0;   ///< kRegister: function seed
  bool piecewise = false;         ///< kRegister: piecewise-monotone spec
};

std::string OpToString(const FuzzOp& op) {
  std::ostringstream os;
  switch (op.kind) {
    case FuzzOp::kCycle:
      os << "cycle n=" << op.batch << " pseed=" << op.point_seed;
      break;
    case FuzzOp::kRegister:
      os << "register q=" << op.query << " k=" << op.k
         << " qseed=" << op.query_seed
         << (op.piecewise ? " piecewise=1" : "");
      break;
    case FuzzOp::kUnregister:
      os << "unregister q=" << op.query;
      break;
  }
  return os.str();
}

std::string ScriptToString(std::uint64_t seed,
                           const std::vector<FuzzOp>& ops) {
  std::ostringstream os;
  os << "# topkmon fuzz replay (seed=" << seed << ", " << ops.size()
     << " ops)\n";
  for (const FuzzOp& op : ops) os << OpToString(op) << "\n";
  return os.str();
}

/// Generates a random but fully self-contained op sequence.
std::vector<FuzzOp> GenerateOps(std::uint64_t seed, std::size_t steps) {
  Rng rng(seed);
  std::vector<FuzzOp> ops;
  std::vector<QueryId> live;
  QueryId next_query = 1;
  for (std::size_t step = 0; step < steps; ++step) {
    const double roll = rng.Uniform();
    FuzzOp op;
    if (step == 0 || (roll < 0.20 &&
                      live.size() < static_cast<std::size_t>(
                                        kMaxLiveQueries))) {
      op.kind = FuzzOp::kRegister;
      op.query = next_query++;
      op.k = 1 + static_cast<int>(rng.Uniform() * 8);
      op.query_seed = rng.NextUint64();
      // Roughly a third of registrations carry a piecewise-monotone
      // spec, so every interleaving shape also runs through the
      // engines' internal piece decomposition.
      op.piecewise = rng.Uniform() < 0.35;
      live.push_back(op.query);
    } else if (roll < 0.30 && !live.empty()) {
      op.kind = FuzzOp::kUnregister;
      const std::size_t idx =
          static_cast<std::size_t>(rng.Uniform() * live.size()) %
          live.size();
      op.query = live[idx];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      op.kind = FuzzOp::kCycle;
      // Bias toward small batches; ~1 in 8 cycles is a pure expiry step.
      const double size_roll = rng.Uniform();
      op.batch = size_roll < 0.125
                     ? 0
                     : 1 + static_cast<std::size_t>(rng.Uniform() * 30);
      op.point_seed = rng.NextUint64();
    }
    ops.push_back(op);
  }
  return ops;
}

/// A random piecewise-monotone function: the unit space tiled into
/// 2..4 slabs along a random axis at random cut points, each slab with
/// its own monotone linear function. Cut points are random uniform
/// doubles, so stream records never land exactly on a piece boundary —
/// the decomposed engines and BruteForce see identical scores.
std::shared_ptr<const ScoringFunction> PiecewiseFor(std::uint64_t seed) {
  Rng rng(seed);
  const int axis = static_cast<int>(rng.UniformInt(kDim));
  const std::size_t num_pieces = 2 + rng.UniformInt(3);
  std::vector<double> cuts = {0.0};
  for (std::size_t i = 0; i + 1 < num_pieces; ++i) {
    cuts.push_back(rng.Uniform());
  }
  cuts.push_back(1.0);
  std::sort(cuts.begin(), cuts.end());
  std::vector<MonotonePiece> pieces;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    Point lo(kDim);
    Point hi(kDim);
    for (int d = 0; d < kDim; ++d) {
      lo[d] = d == axis ? cuts[i] : 0.0;
      hi[d] = d == axis ? cuts[i + 1] : 1.0;
    }
    MonotonePiece piece;
    piece.domain = Rect(lo, hi);
    piece.function = MakeRandomFunction(FunctionFamily::kLinear, kDim,
                                        [&rng] { return rng.Uniform(); });
    pieces.push_back(std::move(piece));
  }
  auto fn = PiecewiseFunction::Create(std::move(pieces));
  EXPECT_TRUE(fn.ok());
  return *fn;
}

QuerySpec SpecFor(const FuzzOp& op) {
  QuerySpec spec;
  spec.id = op.query;
  spec.k = op.k;
  if (op.piecewise) {
    spec.function = PiecewiseFor(op.query_seed);
    return spec;
  }
  Rng rng(op.query_seed);
  spec.function = MakeRandomFunction(FunctionFamily::kLinear, kDim,
                                     [&rng] { return rng.Uniform(); });
  return spec;
}

struct Mismatch {
  bool failed = false;
  std::string engine;
  QueryId query = 0;
  Timestamp at = 0;
  std::size_t op_index = 0;
};

/// Replays `ops` through every engine against BruteForce. Robust to
/// arbitrary (e.g. minimized) op lists: registers of an already-live id
/// and unregisters of unknown ids are skipped uniformly.
Mismatch RunOps(const std::vector<FuzzOp>& ops) {
  BruteForceEngine brute(kDim, WindowSpec::Count(kWindow));
  GridEngineOptions grid;
  grid.dim = kDim;
  grid.window = WindowSpec::Count(kWindow);
  grid.cell_budget = 128;
  TmaEngine tma(grid);
  SmaEngine sma(grid);
  TslOptions tsl_opt;
  tsl_opt.dim = kDim;
  tsl_opt.window = WindowSpec::Count(kWindow);
  TslEngine tsl(tsl_opt);
  ShardedEngine sharded(2, [&grid] {
    return std::unique_ptr<MonitorEngine>(new TmaEngine(grid));
  });
  std::vector<MonitorEngine*> engines = {&tma, &sma, &tsl, &sharded};

  Mismatch result;
  std::map<QueryId, QuerySpec> live;
  RecordId next_id = 0;
  Timestamp now = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const FuzzOp& op = ops[i];
    switch (op.kind) {
      case FuzzOp::kRegister: {
        if (live.count(op.query) > 0) break;
        const QuerySpec spec = SpecFor(op);
        if (!brute.RegisterQuery(spec).ok()) break;
        for (MonitorEngine* e : engines) {
          EXPECT_TRUE(e->RegisterQuery(spec).ok()) << e->name();
        }
        live.emplace(op.query, spec);
        break;
      }
      case FuzzOp::kUnregister: {
        if (live.erase(op.query) == 0) break;
        (void)brute.UnregisterQuery(op.query);
        for (MonitorEngine* e : engines) {
          (void)e->UnregisterQuery(op.query);
        }
        break;
      }
      case FuzzOp::kCycle: {
        ++now;
        std::vector<Record> batch;
        auto gen = MakeGenerator(Distribution::kIndependent, kDim,
                                 op.point_seed);
        for (std::size_t r = 0; r < op.batch; ++r) {
          batch.emplace_back(next_id++, gen->NextPoint(), now);
        }
        EXPECT_TRUE(brute.ProcessCycle(now, batch).ok());
        for (MonitorEngine* e : engines) {
          EXPECT_TRUE(e->ProcessCycle(now, batch).ok()) << e->name();
        }
        for (const auto& [id, spec] : live) {
          (void)spec;
          const auto want = brute.CurrentResult(id);
          if (!want.ok()) continue;
          for (MonitorEngine* e : engines) {
            const auto got = e->CurrentResult(id);
            if (!got.ok() || Scores(*got) != Scores(*want)) {
              result.failed = true;
              result.engine = e->name();
              result.query = id;
              result.at = now;
              result.op_index = i;
              return result;
            }
          }
        }
        break;
      }
    }
  }
  return result;
}

/// Greedy delta-debugging: repeatedly try to drop chunks of ops while
/// the mismatch persists. Bounded by `budget` re-runs.
std::vector<FuzzOp> MinimizeOps(std::vector<FuzzOp> ops, int budget) {
  for (std::size_t chunk = ops.size() / 2; chunk >= 1 && budget > 0;
       chunk /= 2) {
    bool shrunk = true;
    while (shrunk && budget > 0) {
      shrunk = false;
      for (std::size_t start = 0; start < ops.size() && budget > 0;
           start += chunk) {
        std::vector<FuzzOp> candidate;
        candidate.reserve(ops.size());
        for (std::size_t i = 0; i < ops.size(); ++i) {
          if (i < start || i >= start + chunk) candidate.push_back(ops[i]);
        }
        if (candidate.empty()) continue;
        --budget;
        if (RunOps(candidate).failed) {
          ops = std::move(candidate);
          shrunk = true;
          break;
        }
      }
    }
    if (chunk == 1) break;
  }
  return ops;
}

void FuzzOneSeed(std::uint64_t seed, std::size_t steps) {
  const std::vector<FuzzOp> ops = GenerateOps(seed, steps);
  const Mismatch mismatch = RunOps(ops);
  if (!mismatch.failed) return;
  const std::vector<FuzzOp> minimized = MinimizeOps(ops, /*budget=*/150);
  const Mismatch confirmed = RunOps(minimized);
  ADD_FAILURE() << "engine " << mismatch.engine << " diverged from BRUTE on "
                << "query " << mismatch.query << " at cycle " << mismatch.at
                << " (seed=" << seed << ", op " << mismatch.op_index
                << ").\nMinimized replay ("
                << (confirmed.failed ? "still failing" : "flaky!")
                << ", " << minimized.size() << "/" << ops.size()
                << " ops):\n"
                << ScriptToString(seed, minimized);
}

std::vector<std::uint64_t> SeedSet() {
  // The fixed CI seed set; stable so failures are reproducible runs,
  // not lottery tickets.
  std::vector<std::uint64_t> seeds = {1, 7, 42, 1234, 777777, 20060626};
  if (const char* extra = std::getenv("TOPKMON_FUZZ_SEEDS")) {
    std::stringstream ss(extra);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      if (!tok.empty()) seeds.push_back(std::strtoull(tok.c_str(),
                                                      nullptr, 10));
    }
  }
  return seeds;
}

std::size_t StepCount() {
  if (const char* steps = std::getenv("TOPKMON_FUZZ_STEPS")) {
    const std::size_t n = std::strtoull(steps, nullptr, 10);
    if (n > 0) return n;
  }
  return 60;
}

TEST(EngineFuzzTest, RandomInterleavingsAgreeWithBruteForce) {
  const std::size_t steps = StepCount();
  for (const std::uint64_t seed : SeedSet()) {
    FuzzOneSeed(seed, steps);
  }
}

/// Drives the full engine set through `steps` cycles of one named
/// workload, applying its query register/unregister schedule, and
/// differential-checks every live query against BruteForce after each
/// cycle. Workload queries are monotone (possibly constrained), so
/// score multisets must match bitwise.
void FuzzWorkload(const std::string& name, std::size_t steps) {
  WorkloadOptions wopt;
  wopt.dim = kDim;
  wopt.seed = 20060626;
  wopt.k = 5;
  wopt.mean_batch = 24;
  wopt.num_queries = kMaxLiveQueries;
  auto workload = MakeWorkload(name, wopt);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();

  BruteForceEngine brute(kDim, WindowSpec::Count(kWindow));
  GridEngineOptions grid;
  grid.dim = kDim;
  grid.window = WindowSpec::Count(kWindow);
  grid.cell_budget = 128;
  TmaEngine tma(grid);
  SmaEngine sma(grid);
  TslOptions tsl_opt;
  tsl_opt.dim = kDim;
  tsl_opt.window = WindowSpec::Count(kWindow);
  TslEngine tsl(tsl_opt);
  ShardedEngine sharded(2, [&grid] {
    return std::unique_ptr<MonitorEngine>(new TmaEngine(grid));
  });
  std::vector<MonitorEngine*> engines = {&tma, &sma, &tsl, &sharded};

  std::set<QueryId> live;
  for (std::size_t s = 0; s < steps; ++s) {
    const WorkloadStep step = (*workload)->NextStep();
    for (const QueryEvent& ev : step.query_events) {
      if (ev.kind == QueryEvent::kRegister) {
        ASSERT_TRUE(brute.RegisterQuery(ev.spec).ok());
        for (MonitorEngine* e : engines) {
          ASSERT_TRUE(e->RegisterQuery(ev.spec).ok()) << e->name();
        }
        live.insert(ev.id);
      } else {
        ASSERT_TRUE(brute.UnregisterQuery(ev.id).ok());
        for (MonitorEngine* e : engines) {
          ASSERT_TRUE(e->UnregisterQuery(ev.id).ok()) << e->name();
        }
        live.erase(ev.id);
      }
    }
    ASSERT_TRUE(brute.ProcessCycle(step.now, step.arrivals).ok());
    for (MonitorEngine* e : engines) {
      ASSERT_TRUE(e->ProcessCycle(step.now, step.arrivals).ok())
          << e->name();
    }
    for (const QueryId id : live) {
      const auto want = brute.CurrentResult(id);
      ASSERT_TRUE(want.ok());
      for (MonitorEngine* e : engines) {
        const auto got = e->CurrentResult(id);
        ASSERT_TRUE(got.ok()) << e->name();
        ASSERT_EQ(Scores(*got), Scores(*want))
            << "engine " << e->name() << " diverged on workload '" << name
            << "' query " << id << " at cycle " << s;
      }
    }
  }
}

TEST(EngineFuzzTest, NamedWorkloadsAgreeWithBruteForce) {
  // TOPKMON_FUZZ_WORKLOAD narrows the run to one registry name (CI fans
  // out one sanitizer job per workload); unset covers the registry.
  const char* only = std::getenv("TOPKMON_FUZZ_WORKLOAD");
  const std::size_t steps = StepCount();
  for (const WorkloadInfo& info : ListWorkloads()) {
    if (only != nullptr && info.name != only) continue;
    SCOPED_TRACE(info.name);
    FuzzWorkload(info.name, steps);
  }
}

/// Asserts two record sequences are identical bit for bit: ids,
/// arrivals and every coordinate's bit pattern.
void ExpectSameRecords(const std::vector<Record>& got,
                       const std::vector<Record>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got[r].id, want[r].id) << what << " record " << r;
    ASSERT_EQ(got[r].arrival, want[r].arrival) << what << " record " << r;
    ASSERT_EQ(got[r].position.dim(), want[r].position.dim()) << what;
    for (int d = 0; d < want[r].position.dim(); ++d) {
      const double a = got[r].position[d];
      const double b = want[r].position[d];
      ASSERT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
          << "coordinate bits diverged: " << what << " record " << r
          << " dim " << d;
    }
  }
}

/// Wire-roundtrip mode: every cycle batch of a named workload is
/// encoded as a kIngest frame body and taken through the server's full
/// ingest path — DecodeIngestBody into a reusable block, PushBatch into
/// an IngestQueue of the engines' dimensionality, DrainBatch — and the
/// drained batch drives the full engine set, while BruteForce is fed
/// from the copying decode (DecodeNetBody). Decoded and drained records
/// are pinned bitwise against the copying decode, so any divergence
/// between the storage paths — block decode, the queue's payload lane
/// and slot reuse, the drain copy, span-threaded ProcessCycle,
/// lane-major scoring — shows up as a record or score mismatch.
void FuzzWorkloadWireRoundtrip(const std::string& name, std::size_t steps) {
  WorkloadOptions wopt;
  wopt.dim = kDim;
  wopt.seed = 20060626;
  wopt.k = 5;
  wopt.mean_batch = 24;
  wopt.num_queries = kMaxLiveQueries;
  auto workload = MakeWorkload(name, wopt);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();

  BruteForceEngine brute(kDim, WindowSpec::Count(kWindow));
  GridEngineOptions grid;
  grid.dim = kDim;
  grid.window = WindowSpec::Count(kWindow);
  grid.cell_budget = 128;
  TmaEngine tma(grid);
  SmaEngine sma(grid);
  TslOptions tsl_opt;
  tsl_opt.dim = kDim;
  tsl_opt.window = WindowSpec::Count(kWindow);
  TslEngine tsl(tsl_opt);
  ShardedEngine sharded(2, [&grid] {
    return std::unique_ptr<MonitorEngine>(new TmaEngine(grid));
  });
  std::vector<MonitorEngine*> engines = {&tma, &sma, &tsl, &sharded};

  // Workload streams are time-ordered with ids from 1, so with no slack
  // the queue releases each frame whole, in order, under the same ids.
  IngestOptions qopt;
  qopt.capacity = 1 << 12;
  qopt.max_batch = qopt.capacity;
  qopt.slack = 0;
  qopt.first_record_id = 1;
  IngestQueue queue(qopt, kDim);
  IngestFrameView block;
  std::vector<Record> decoded;
  std::vector<Record> drained;

  std::set<QueryId> live;
  for (std::size_t s = 0; s < steps; ++s) {
    const WorkloadStep step = (*workload)->NextStep();
    for (const QueryEvent& ev : step.query_events) {
      if (ev.kind == QueryEvent::kRegister) {
        ASSERT_TRUE(brute.RegisterQuery(ev.spec).ok());
        for (MonitorEngine* e : engines) {
          ASSERT_TRUE(e->RegisterQuery(ev.spec).ok()) << e->name();
        }
        live.insert(ev.id);
      } else {
        ASSERT_TRUE(brute.UnregisterQuery(ev.id).ok());
        for (MonitorEngine* e : engines) {
          ASSERT_TRUE(e->UnregisterQuery(ev.id).ok()) << e->name();
        }
        live.erase(ev.id);
      }
    }

    std::vector<Record> copied;
    decoded.clear();
    drained.clear();
    if (!step.arrivals.empty()) {
      std::string body;
      EncodeIngest(step.arrivals, &body);
      NetMessage msg;
      ASSERT_TRUE(DecodeNetBody(body.data(), body.size(), &msg).ok());
      copied = std::move(msg.tuples);
      std::size_t pushed = 0;
      const Status st = DecodeIngestBody(
          body.data(), body.size(), kDim, &block,
          [&](const IngestFrameView& b) {
            EXPECT_TRUE(b.invalid.empty()) << name << " cycle " << s;
            decoded.insert(decoded.end(), b.records.begin(),
                           b.records.end());
            pushed += queue.PushBatch(b.records);
            return true;
          });
      ASSERT_TRUE(st.ok()) << st;
      ASSERT_EQ(pushed, copied.size());
      Timestamp cycle_ts = 0;
      ASSERT_EQ(queue.DrainBatch(&drained, &cycle_ts,
                                 std::chrono::milliseconds(0),
                                 /*flush_all=*/true),
                copied.size());
      const std::string where =
          "workload '" + name + "' cycle " + std::to_string(s);
      ASSERT_NO_FATAL_FAILURE(
          ExpectSameRecords(decoded, copied, "decoded, " + where));
      ASSERT_NO_FATAL_FAILURE(
          ExpectSameRecords(drained, copied, "drained, " + where));
    }

    ASSERT_TRUE(brute.ProcessCycle(step.now, copied).ok());
    for (MonitorEngine* e : engines) {
      ASSERT_TRUE(e->ProcessCycle(step.now, drained).ok()) << e->name();
    }
    for (const QueryId id : live) {
      const auto want = brute.CurrentResult(id);
      ASSERT_TRUE(want.ok());
      for (MonitorEngine* e : engines) {
        const auto got = e->CurrentResult(id);
        ASSERT_TRUE(got.ok()) << e->name();
        ASSERT_EQ(Scores(*got), Scores(*want))
            << "engine " << e->name() << " diverged on wire-roundtrip '"
            << name << "' query " << id << " at cycle " << s;
      }
    }
  }
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_EQ(queue.stats().coerced, 0u);
}

TEST(EngineFuzzTest, WireRoundtripNamedWorkloadsAgreeWithBruteForce) {
  const char* only = std::getenv("TOPKMON_FUZZ_WORKLOAD");
  const std::size_t steps = StepCount();
  for (const WorkloadInfo& info : ListWorkloads()) {
    if (only != nullptr && info.name != only) continue;
    SCOPED_TRACE(info.name);
    FuzzWorkloadWireRoundtrip(info.name, steps);
  }
}

/// The replay path itself is exercised so a printed script is known to
/// reproduce: a hand-written minimal sequence runs clean.
TEST(EngineFuzzTest, ReplayScriptsAreDeterministic) {
  std::vector<FuzzOp> ops;
  FuzzOp reg;
  reg.kind = FuzzOp::kRegister;
  reg.query = 1;
  reg.k = 3;
  reg.query_seed = 99;
  ops.push_back(reg);
  FuzzOp cycle;
  cycle.kind = FuzzOp::kCycle;
  cycle.batch = 20;
  cycle.point_seed = 5;
  ops.push_back(cycle);
  FuzzOp expiry;
  expiry.kind = FuzzOp::kCycle;
  expiry.batch = 0;
  expiry.point_seed = 0;
  ops.push_back(expiry);
  EXPECT_FALSE(RunOps(ops).failed);
  // Ops are self-contained: running twice is bit-identical, so the
  // printed script reproduces exactly.
  EXPECT_FALSE(RunOps(ops).failed);
}

}  // namespace
}  // namespace topkmon
