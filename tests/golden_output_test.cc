// Byte-identical-output regression harness (the oracle for data-structure
// swaps in the storage/GC core): replays a small OO7 trace through SAIO
// and SAGA and compares the full SimResultToJson output — collection log
// included — against a committed golden file. Any change to placement
// decisions, marking order, I/O accounting, or policy scheduling shows up
// as a byte diff here.
//
// The golden files were generated from the pre-overhaul (seed) structures;
// passing this test means the current structures reproduce those results
// bit for bit. To regenerate after an *intentional* behavior change, run
// with ODBGC_UPDATE_GOLDEN=1 in the environment and commit the diff.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "oo7/generator.h"
#include "sim/checkpoint.h"
#include "sim/report.h"
#include "sim/runner.h"
#include "sim/simulation.h"
#include "storage/buffer_pool.h"
#include "tests/checkpoint_cases.h"
#include "tests/golden_util.h"
#include "tools/tool_common.h"
#include "util/flags.h"
#include "workloads/synthetic.h"

namespace odbgc {
namespace {

// build_info (git sha, build type) legitimately differs between builds;
// everything before it must not. It is always the final member.
std::string StripBuildInfo(const std::string& json) {
  size_t pos = json.rfind(",\"build_info\":");
  if (pos == std::string::npos) return json;
  return json.substr(0, pos) + "}";
}

// Small' is the paper's configuration: big enough that SAIO and SAGA
// both schedule dozens of collections (the golden must cover marking,
// relocation, remembered-set updates, and buffer-pool eviction, not just
// the mutator path), small enough to replay in well under a second.
Trace SmallPrimeTrace() {
  Oo7Generator gen(Oo7Params::SmallPrime(), /*seed=*/7);
  return gen.GenerateFullApplication();
}

TEST(GoldenOutputTest, SaioSmallPrimeTraceIsByteIdentical) {
  SimConfig cfg;
  cfg.policy = PolicyKind::kSaio;
  cfg.saio_frac = 0.10;
  SimResult result = RunSimulation(cfg, SmallPrimeTrace());
  EXPECT_GT(result.collections, 10u);  // the oracle must exercise the GC
  CheckAgainstGolden("saio_small_prime_oo7.json",
                     StripBuildInfo(SimResultToJson(result)));
}

TEST(GoldenOutputTest, SagaSmallPrimeTraceIsByteIdentical) {
  SimConfig cfg;
  cfg.policy = PolicyKind::kSaga;
  cfg.estimator = EstimatorKind::kFgsHb;
  cfg.saga.garbage_frac = 0.10;
  SimResult result = RunSimulation(cfg, SmallPrimeTrace());
  EXPECT_GT(result.collections, 10u);
  CheckAgainstGolden("saga_small_prime_oo7.json",
                     StripBuildInfo(SimResultToJson(result)));
}

// The verifier-instrumented run must agree too: collections verified
// after every collection catch mid-run structure desyncs that final
// aggregates could mask.
TEST(GoldenOutputTest, SagaWithPerCollectionVerifierMatchesPlainRun) {
  SimConfig cfg;
  cfg.policy = PolicyKind::kSaga;
  cfg.estimator = EstimatorKind::kFgsHb;
  cfg.saga.garbage_frac = 0.10;
  SimResult plain = RunSimulation(cfg, SmallPrimeTrace());
  cfg.verify_after_collection = true;
  SimResult verified = RunSimulation(cfg, SmallPrimeTrace());
  // verifier_runs differ by construction; compare the simulation outputs.
  verified.verifier_runs = plain.verifier_runs;
  EXPECT_EQ(StripBuildInfo(SimResultToJson(plain)),
            StripBuildInfo(SimResultToJson(verified)));
}

// The replay goldens come from clean runs, so they never show the
// optional report objects. This synthetic result turns every one of them
// on and gives every scalar its own nonzero value, so a field that is
// dropped, renamed, reordered or swapped with a neighbour shows up as a
// byte diff.
class Counter {
 public:
  uint64_t Next() { return next_++; }
  double NextDouble() { return static_cast<double>(next_++) + 0.25; }

 private:
  uint64_t next_ = 1;
};

CollectionRecord SyntheticCollection(Counter& n, Phase phase) {
  CollectionRecord r;
  r.index = n.Next();
  r.overwrite_time = n.Next();
  r.app_io = n.Next();
  r.gc_io_delta = n.Next();
  r.partition = static_cast<PartitionId>(n.Next());
  r.bytes_reclaimed = n.Next();
  r.bytes_live = n.Next();
  r.db_used_bytes = n.Next();
  r.actual_garbage_pct = n.NextDouble();
  r.estimated_garbage_pct = n.NextDouble();
  r.target_garbage_pct = n.NextDouble();
  r.next_dt = n.Next();
  r.phase = phase;
  return r;
}

PhaseStats SyntheticPhase(Counter& n, Phase phase) {
  PhaseStats p;
  p.phase = phase;
  p.events = n.Next();
  p.app_io = n.Next();
  p.gc_io = n.Next();
  p.pointer_overwrites = n.Next();
  p.collections = n.Next();
  p.bytes_reclaimed = n.Next();
  p.garbage_pct.Add(n.NextDouble());
  p.garbage_pct.Add(n.NextDouble());
  return p;
}

QuarantineEvent SyntheticQuarantine(Counter& n, CorruptionKind kind) {
  QuarantineEvent q;
  q.detected_event = n.Next();
  q.partition = static_cast<PartitionId>(n.Next());
  q.kind = static_cast<decltype(q.kind)>(kind);
  q.repaired_event = n.Next();
  return q;
}

SimResult SyntheticResult() {
  Counter n;
  SimResult r;
  r.clock.app_io = n.Next();
  r.clock.gc_io = n.Next();
  r.clock.pointer_overwrites = n.Next();
  r.clock.events = n.Next();
  r.clock.collections = n.Next();
  r.clock.db_used_bytes = n.Next();
  r.clock.bytes_allocated = n.Next();
  r.clock.partitions = n.Next();
  r.collections = n.Next();
  r.window_opened = true;
  r.measured_app_io = n.Next();
  r.measured_gc_io = n.Next();
  r.achieved_gc_io_pct = n.NextDouble();
  r.garbage_pct.Add(n.NextDouble());
  r.garbage_pct.Add(n.NextDouble());
  r.garbage_pct.Add(n.NextDouble());
  r.window_reclaimed_bytes = n.Next();
  r.total_reclaimed_bytes = n.Next();
  r.total_reclaimed_objects = n.Next();
  r.final_db_used_bytes = n.Next();
  r.final_actual_garbage_bytes = n.Next();
  r.final_partition_count = static_cast<size_t>(n.Next());
  r.buffer_hits = n.Next();
  r.buffer_misses = n.Next();
  r.disk_app_ms = n.NextDouble();
  r.disk_gc_ms = n.NextDouble();
  r.disk_sequential_transfers = n.Next();
  r.disk_random_transfers = n.Next();
  r.dt_min_clamps = n.Next();
  r.dt_max_clamps = n.Next();
  r.idle_collections = n.Next();
  r.idle_gc_io = n.Next();
  r.crashes = n.Next();
  r.recoveries = n.Next();
  r.recovery_rollbacks = n.Next();
  r.recovery_rollforwards = n.Next();
  r.recovery_redo_updates = n.Next();
  r.verifier_runs = n.Next();
  r.io_retries = n.Next();
  r.io_read_failures = n.Next();
  r.io_write_failures = n.Next();
  r.torn_writes = n.Next();
  r.torn_repairs = n.Next();
  r.checksum_failures = n.Next();
  r.bitflips_injected = n.Next();
  r.decays_armed = n.Next();
  r.device_faults = n.Next();
  r.pages_scrubbed = n.Next();
  r.scrub_detections = n.Next();
  r.partitions_quarantined = n.Next();
  r.partitions_repaired = n.Next();
  r.repair_pages_rewritten = n.Next();
  r.collections_aborted_corrupt = n.Next();
  r.quarantine_log.push_back(
      SyntheticQuarantine(n, CorruptionKind::kChecksum));
  r.quarantine_log.push_back(SyntheticQuarantine(n, CorruptionKind::kScrub));
  r.governor_yellow_entries = n.Next();
  r.governor_red_entries = n.Next();
  r.governor_boost_collections = n.Next();
  r.governor_emergency_collections = n.Next();
  r.governor_gc_io = n.Next();
  r.safe_mode_entries = n.Next();
  r.safe_mode_exits = n.Next();
  r.peak_utilization_pct_x100 = n.Next() * 100 + 37;
  r.log.push_back(SyntheticCollection(n, Phase::kGenDb));
  r.log.push_back(SyntheticCollection(n, Phase::kTraverse));
  r.phase_stats.push_back(SyntheticPhase(n, Phase::kGenDb));
  r.phase_stats.push_back(SyntheticPhase(n, Phase::kReorg1));
  return r;
}

obs::PolicyDecisionRecord SyntheticDecision(Counter& n,
                                            obs::DecisionReason reason,
                                            const char* policy) {
  obs::PolicyDecisionRecord d;
  d.seq = n.Next();
  d.tick = n.Next();
  d.event = n.Next();
  d.collection = n.Next();
  d.app_io = n.Next();
  d.gc_io = n.Next();
  d.io_pct = n.NextDouble();
  d.garbage_pct = n.NextDouble();
  d.actual_garbage_bytes = n.Next();
  d.estimate_bytes = n.Next();
  d.estimator_spread_bytes = n.Next();
  d.db_used_bytes = n.Next();
  d.collection_gc_io = n.Next();
  d.bytes_reclaimed = n.Next();
  d.policy = policy;
  d.reason = reason;
  d.chosen_interval = n.NextDouble();
  d.next_threshold = n.Next();
  d.target = n.NextDouble();
  return d;
}

TEST(GoldenOutputTest, AllReportSectionsAreByteIdentical) {
  CheckAgainstGolden(
      "all_sections_report.json",
      StripBuildInfo(SimResultToJson(SyntheticResult(),
                                     /*include_collection_log=*/true)));
}

TEST(GoldenOutputTest, DecisionJsonlIsByteIdentical) {
  Counter n;
  SimResult r;
  r.decisions.push_back(
      SyntheticDecision(n, obs::DecisionReason::kSlopeSolve, "saga"));
  r.decisions.push_back(
      SyntheticDecision(n, obs::DecisionReason::kBudgetGrant, "saio"));
  CheckAgainstGolden("decisions.jsonl", DecisionsToJsonl(r));
}

// --- The three collection paths: scheduled, idle and governor-forced ---
//
// Each run below exists for one path (or one branch of it: a corrupt
// abort, a crash rolled back or forward, safe mode) and asserts that the
// path's counter is non-zero. The golden holds one line per run: its
// headline counters plus a 64-bit FNV-1a digest of the full report
// (collection log included) and of its decision ledger.

constexpr uint64_t kFnv1aOffsetBasis = 1469598103934665603ull;

uint64_t Fnv1aByte(uint64_t h, unsigned char byte) {
  return (h ^ byte) * 1099511628211ull;
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = kFnv1aOffsetBasis;
  for (const char c : bytes) h = Fnv1aByte(h, static_cast<unsigned char>(c));
  return h;
}

// The trace and config `odbgc_run <args>` would build (seed 1 unless
// given; selector seed = seed * 7919 + 17).
void FromCliFlags(std::vector<std::string> args, Trace* trace,
                  SimConfig* config) {
  std::vector<char*> argv = {const_cast<char*>("odbgc_run")};
  for (std::string& a : args) argv.push_back(a.data());
  Flags flags;
  std::string error;
  ASSERT_TRUE(Flags::Parse(static_cast<int>(argv.size()), argv.data(),
                           &flags, &error))
      << error;
  ASSERT_TRUE(tools::BuildWorkloadTrace(flags, trace, &error)) << error;
  ASSERT_TRUE(tools::BuildSimConfig(flags, config, &error)) << error;
}

SimResult RunPinned(SimConfig config, const Trace& trace) {
  config.telemetry.enabled = true;
  config.telemetry.record_decisions = true;
  return RunSimulation(config, trace);
}

std::string PinLine(const char* name, const SimResult& r) {
  char line[640];
  std::snprintf(
      line, sizeof(line),
      "{\"run\":\"%s\",\"events\":%" PRIu64 ",\"collections\":%" PRIu64
      ",\"idle_collections\":%" PRIu64 ",\"boost_collections\":%" PRIu64
      ",\"emergency_collections\":%" PRIu64 ",\"aborted_corrupt\":%" PRIu64
      ",\"crashes\":%" PRIu64 ",\"rollbacks\":%" PRIu64
      ",\"rollforwards\":%" PRIu64 ",\"safe_mode_entries\":%" PRIu64
      ",\"reclaimed_bytes\":%" PRIu64 ",\"decisions\":%zu"
      ",\"report_fnv1a\":\"%016" PRIx64 "\",\"ledger_fnv1a\":\"%016" PRIx64
      "\"}",
      name, r.clock.events, r.collections, r.idle_collections,
      r.governor_boost_collections, r.governor_emergency_collections,
      r.collections_aborted_corrupt, r.crashes, r.recovery_rollbacks,
      r.recovery_rollforwards, r.safe_mode_entries, r.total_reclaimed_bytes,
      r.decisions.size(), Fnv1a(StripBuildInfo(SimResultToJson(r))),
      Fnv1a(DecisionsToJsonl(r)));
  return line;
}

// bench/ext_overload.cc's lazy fixed-rate store.
SimConfig OverloadBurstConfig(uint64_t max_db_bytes, bool governor) {
  SimConfig cfg;
  cfg.store.partition_bytes = 32 * 1024;
  cfg.store.page_bytes = 4 * 1024;
  cfg.store.buffer_pages = 8;
  cfg.store.max_db_bytes = max_db_bytes;
  cfg.policy = PolicyKind::kFixedRate;
  cfg.fixed_rate_overwrites = 20000;
  cfg.preamble_collections = 2;
  cfg.record_collection_log = false;
  cfg.governor.enabled = governor;
  cfg.telemetry.enabled = true;
  return cfg;
}

TEST(GoldenOutputTest, CollectionPathsAreByteIdentical) {
#if !ODBGC_TELEMETRY
  GTEST_SKIP() << "the pin digests the decision ledger (telemetry)";
#endif
  const std::vector<std::string> oo7_idle = {
      "--workload=oo7", "--oo7=smallprime", "--idle-after-reorg1=300"};
  const std::vector<std::string> chaos = {
      "--bitflip-prob=0.01", "--decay-prob=0.005", "--decay-latency=32",
      "--dead-page-prob=0.002", "--dead-partition-prob=0.2"};
  auto with = [](std::vector<std::string> a,
                 const std::vector<std::string>& b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
  };
  std::vector<std::string> lines;
  Trace trace;
  SimConfig cfg;

  // (a) Scheduled and idle collections under SAGA FGS/HB 10% with
  // opportunism, the chaos soak's fault plan and the scrubber on:
  // corrupt aborts on both paths, each collection verified.
  FromCliFlags(with(with(oo7_idle, chaos),
                    {"--policy=saga", "--opportunism", "--fault-seed=1003",
                     "--scrub-interval=32", "--scrub-pages=8"}),
               &trace, &cfg);
  cfg.verify_after_collection = true;
  SimResult r = RunPinned(cfg, trace);
  EXPECT_GT(r.idle_collections, 0u);
  EXPECT_GT(r.collections_aborted_corrupt, 0u);
  lines.push_back(PinLine("a_saga_chaos_idle", r));

  // (b) The same trace under SAIO with opportunism and the scrubber off:
  // most corrupt aborts land on idle collections.
  trace = Trace();
  cfg = SimConfig();
  FromCliFlags(with(with(oo7_idle, chaos),
                    {"--policy=saio", "--opportunism", "--fault-seed=1004"}),
               &trace, &cfg);
  r = RunPinned(cfg, trace);
  EXPECT_GT(r.idle_collections, 0u);
  EXPECT_GT(r.collections_aborted_corrupt, 0u);
  lines.push_back(PinLine("b_saio_chaos_idle", r));

  // (c) Capped, governed uniform churn whose fixed rate never fires:
  // every collection is a governor boost, one of them a corrupt abort.
  trace = Trace();
  cfg = SimConfig();
  FromCliFlags({"--workload=uniform-churn", "--cycles=4000", "--lists=8",
                "--length=16", "--policy=fixed", "--rate=1000000",
                "--max-db-mb=1", "--bitflip-prob=0.02", "--decay-prob=0.01",
                "--decay-latency=32", "--fault-seed=2001", "--governor"},
               &trace, &cfg);
  r = RunPinned(cfg, trace);
  EXPECT_GT(r.governor_boost_collections, 0u);
  EXPECT_GT(r.collections_aborted_corrupt, 0u);
  lines.push_back(PinLine("c_governed_churn_chaos", r));

  // (d) bench/ext_overload.cc's governed scenario: a ceiling at a quarter
  // of the uncapped footprint forces emergency collections.
  UniformChurnOptions churn;
  churn.seed = 1;
  churn.cycles = 6000;
  trace = MakeUniformChurn(churn);
  const SimResult uncapped =
      RunSimulation(OverloadBurstConfig(0, false), trace);
  const uint64_t cap = static_cast<uint64_t>(
      static_cast<double>(uncapped.final_partition_count * 32 * 1024) *
      0.25);
  r = RunPinned(OverloadBurstConfig(cap, true), trace);
  EXPECT_GT(r.governor_emergency_collections, 0u);
  lines.push_back(PinLine("d_overload_emergency", r));

  // (e) Collector crashes under SAGA with opportunism: one rolled back
  // on a scheduled collection, one rolled forward on the first idle one.
  trace = Trace();
  cfg = SimConfig();
  FromCliFlags(with(oo7_idle, {"--policy=saga", "--opportunism"}), &trace,
               &cfg);
  SimConfig crash = cfg;
  crash.store.fault.crash_point = CrashPoint::kAfterCopy;
  crash.store.fault.crash_at_collection = 40;
  r = RunPinned(crash, trace);
  EXPECT_EQ(r.recovery_rollbacks, 1u);
  ASSERT_GE(r.phases.size(), 3u);  // GenDB, Reorg1, Traverse, ...
  EXPECT_LE(crash.store.fault.crash_at_collection, r.phases[2].at_collection);
  lines.push_back(PinLine("e_crash_rolled_back_scheduled", r));
  crash.store.fault.crash_point = CrashPoint::kBeforeFlip;
  crash.store.fault.crash_at_collection = 71;
  r = RunPinned(crash, trace);
  EXPECT_EQ(r.recovery_rollforwards, 1u);
  EXPECT_GT(r.idle_collections, 0u);
  ASSERT_GE(r.phases.size(), 3u);
  EXPECT_EQ(crash.store.fault.crash_at_collection,
            r.phases[2].at_collection + 1);
  lines.push_back(PinLine("e_crash_rolled_forward_idle", r));

  // (f) SAGA CGS/CB whose estimate diverges past the governor's 1% fence:
  // safe mode takes over the scheduled path.
  trace = Trace();
  cfg = SimConfig();
  FromCliFlags({"--workload=oo7", "--oo7=smallprime", "--policy=saga",
                "--estimator=cgscb", "--governor",
                "--safe-mode-divergence=0.01"},
               &trace, &cfg);
  r = RunPinned(cfg, trace);
  EXPECT_GT(r.safe_mode_entries, 0u);
  lines.push_back(PinLine("f_saga_safe_mode", r));

  std::string out;
  for (const std::string& line : lines) {
    if (!out.empty()) out += "\n";
    out += line;
  }
  CheckAgainstGolden("collection_paths.jsonl", out);
}

// --- The OO7 traces ---
//
// One line per generated trace: its name, its event count, and the
// FNV-1a digest of every event's kind (one byte) then a, b, c and d (four
// little-endian bytes each). Every OO7 run replays one of these streams,
// so a generator change that keeps them keeps every simulation's input:
// the same RNG draws, the same ids, the same events in the same order.

uint64_t TraceDigest(const Trace& trace) {
  uint64_t h = kFnv1aOffsetBasis;
  for (const TraceEvent& e : trace.events()) {
    h = Fnv1aByte(h, static_cast<unsigned char>(e.kind));
    for (const uint32_t field : {e.a, e.b, e.c, e.d}) {
      for (int shift = 0; shift < 32; shift += 8) {
        h = Fnv1aByte(h, static_cast<unsigned char>(field >> shift));
      }
    }
  }
  return h;
}

Oo7Params WithConnectivity(Oo7Params p, uint32_t connectivity) {
  p.num_conn_per_atomic = connectivity;
  return p;
}

TEST(GoldenOutputTest, Oo7TracesAreStable) {
  std::string out;
  auto pin = [&out](const char* name, const Trace& trace) {
    char line[128];
    std::snprintf(line, sizeof(line), "%s %zu %016" PRIx64, name,
                  trace.size(), TraceDigest(trace));
    if (!out.empty()) out += "\n";
    out += line;
  };
  auto full = [&pin](const char* name, const Oo7Params& p, uint64_t seed) {
    pin(name, Oo7Generator(p, seed).GenerateFullApplication());
  };
  full("tiny_s1", Oo7Params::Tiny(), 1);
  full("tiny_s2", Oo7Params::Tiny(), 2);
  full("smallprime_s1", Oo7Params::SmallPrime(), 1);
  full("smallprime_s2", Oo7Params::SmallPrime(), 2);
  full("small_s1", Oo7Params::Small(), 1);
  full("small_s2", Oo7Params::Small(), 2);
  full("smallprime_c6_s1", WithConnectivity(Oo7Params::SmallPrime(), 6), 1);
  full("smallprime_c9_s1", WithConnectivity(Oo7Params::SmallPrime(), 9), 1);
  {
    Oo7Generator gen(Oo7Params::SmallPrime(), 1);
    Trace t;
    gen.GenDb(&t);
    gen.TraverseT2(&t, /*updates_per_part=*/4);
    pin("smallprime_gendb_t2x4_s1", t);
  }
  {
    Oo7Generator gen(Oo7Params::SmallPrime(), 1);
    Trace t;
    gen.GenDb(&t);
    gen.TraverseT6(&t);
    pin("smallprime_gendb_t6_s1", t);
  }
  {
    Oo7Generator gen(Oo7Params::SmallPrime(), 1);
    Trace t;
    gen.GenDb(&t);
    for (int round = 0; round < 3; ++round) {
      EXPECT_EQ(gen.StructuralDelete(&t, 10), 10);
      EXPECT_EQ(gen.StructuralInsert(&t, 10), 10);
    }
    pin("smallprime_gendb_structural3x10_s1", t);
  }
  {
    // odbgc_run's default application with a quiescent window.
    Trace t;
    SimConfig unused;
    FromCliFlags({"--workload=oo7", "--oo7=smallprime",
                  "--idle-after-reorg1=50"},
                 &t, &unused);
    pin("odbgc_run_yny_idle50_s1", t);
  }
  CheckAgainstGolden("oo7_trace_digests.txt", out);
}

// --- The checkpoint payload ---
//
// One line per case of tests/checkpoint_cases.h: its name, the size and
// the FNV-1a digest of Simulation::SaveState's payload at mid-trace on
// OO7 Tiny. A component whose save and restore agree with each other
// but not with the format (two members swapped in its one list) passes
// every resume test; only this pin sees it. A line that moves is a
// checkpoint format change, which needs a kCheckpointVersion bump.

TEST(GoldenOutputTest, CheckpointPayloadsAreStable) {
#if !ODBGC_TELEMETRY
  GTEST_SKIP() << "a case checkpoints telemetry state";
#endif
  std::shared_ptr<const Trace> trace =
      GenerateOo7Trace(Oo7Params::Tiny(), kCheckpointCaseSeed);
  const uint64_t mid = trace->size() / 2;
  std::string out;
  for (const CheckpointCase& c : CheckpointCases()) {
    SimConfig cfg = c.config;
    ApplyRunSeeds(&cfg, kCheckpointCaseSeed);
    Simulation sim(cfg);
    for (uint64_t i = 0; i < mid; ++i) sim.Apply((*trace)[i]);
    SnapshotWriter w;
    sim.SaveState(w);
    const SimResult at_checkpoint = sim.Finish();
    EXPECT_GT(at_checkpoint.collections, 0u) << c.name;
    if (c.reached != nullptr) {
      EXPECT_TRUE(c.reached(at_checkpoint)) << c.name;
    }
    char line[128];
    std::snprintf(line, sizeof(line), "%s %zu %016" PRIx64, c.name,
                  w.data().size(), Fnv1a(w.data()));
    if (!out.empty()) out += "\n";
    out += line;
  }
  CheckAgainstGolden("checkpoint_digests.txt", out);
}

// --- The checkpoint config fingerprint ---
//
// One line per config: the default, then one single-member perturbation
// of each fingerprinted knob in write order, then one of each member the
// fingerprint skips on purpose. A checkpoint written before a change must
// resume after it, so every line must survive refactors of the config
// structs; a reordered knob moves its line even where the default's hash
// cannot see it (two knobs with equal defaults swapped).

struct ConfigPerturbation {
  const char* name;
  void (*apply)(SimConfig&);
};

#define ODBGC_PERTURB(member, value) \
  {#member, [](SimConfig& c) { c.member = value; }}

const ConfigPerturbation kFingerprintedKnobs[] = {
    ODBGC_PERTURB(store.partition_bytes, 32 * 1024),
    ODBGC_PERTURB(store.page_bytes, 4 * 1024),
    ODBGC_PERTURB(store.buffer_pages, 8),
    ODBGC_PERTURB(store.max_db_bytes, 1 << 20),
    ODBGC_PERTURB(store.pin_newest_allocation, false),
    ODBGC_PERTURB(store.enable_disk_timing, true),
    ODBGC_PERTURB(store.disk.seek_ms, 9.0),
    ODBGC_PERTURB(store.disk.rotational_ms, 5.0),
    ODBGC_PERTURB(store.disk.transfer_mb_per_s, 20.0),
    ODBGC_PERTURB(store.fault.read_fault_prob, 0.01),
    ODBGC_PERTURB(store.fault.write_fault_prob, 0.01),
    ODBGC_PERTURB(store.fault.torn_write_prob, 0.01),
    ODBGC_PERTURB(store.fault.bitflip_prob, 0.01),
    ODBGC_PERTURB(store.fault.decay_prob, 0.01),
    ODBGC_PERTURB(store.fault.decay_latency, 32),
    ODBGC_PERTURB(store.fault.dead_page_prob, 0.01),
    ODBGC_PERTURB(store.fault.dead_partition_prob, 0.2),
    ODBGC_PERTURB(store.fault.max_retries, 5),
    ODBGC_PERTURB(store.fault.retry_backoff_ms, 1.0),
    ODBGC_PERTURB(store.fault.commit_protocol, true),
    ODBGC_PERTURB(preamble_collections, 5),
    ODBGC_PERTURB(preamble_max_collections, 40),
    ODBGC_PERTURB(record_collection_log, false),
    ODBGC_PERTURB(policy, PolicyKind::kSaio),
    ODBGC_PERTURB(fixed_rate_overwrites, 100),
    ODBGC_PERTURB(allocation_rate_bytes, 64 * 1024),
    ODBGC_PERTURB(heuristic_connectivity, 3.0),
    ODBGC_PERTURB(heuristic_object_bytes, 100.0),
    ODBGC_PERTURB(saio_frac, 0.2),
    ODBGC_PERTURB(saio_history, 5),
    ODBGC_PERTURB(saio_bootstrap_app_io, 1000),
    ODBGC_PERTURB(saio_opportunism, true),
    ODBGC_PERTURB(saio_min_idle_yield, 2048),
    ODBGC_PERTURB(saga.garbage_frac, 0.2),
    ODBGC_PERTURB(saga.slope_weight, 0.2),
    ODBGC_PERTURB(saga.dt_min, 3),
    ODBGC_PERTURB(saga.dt_max, 500),
    ODBGC_PERTURB(saga.bootstrap_overwrites, 500),
    ODBGC_PERTURB(saga.opportunism, true),
    ODBGC_PERTURB(saga.idle_floor_frac, 0.02),
    ODBGC_PERTURB(estimator, EstimatorKind::kOracle),
    ODBGC_PERTURB(fgs_history_factor, 0.5),
    ODBGC_PERTURB(coupled.io_frac, 0.2),
    ODBGC_PERTURB(coupled.garbage_ref_frac, 0.2),
    ODBGC_PERTURB(coupled.min_scale, 0.5),
    ODBGC_PERTURB(coupled.max_scale, 2.0),
    ODBGC_PERTURB(coupled.history_size, 5),
    ODBGC_PERTURB(coupled.bootstrap_app_io, 1000),
    ODBGC_PERTURB(selector, SelectorKind::kRandom),
    ODBGC_PERTURB(verify_after_collection, true),
    ODBGC_PERTURB(verify_after_recovery, false),
    ODBGC_PERTURB(verify_reachability, true),
    ODBGC_PERTURB(scrub_interval_events, 64),
    ODBGC_PERTURB(scrub_pages_per_quantum, 16),
    ODBGC_PERTURB(auto_repair, false),
    ODBGC_PERTURB(verify_after_repair, false),
    ODBGC_PERTURB(governor.enabled, true),
    ODBGC_PERTURB(governor.yellow_frac, 0.6),
    ODBGC_PERTURB(governor.red_frac, 0.9),
    ODBGC_PERTURB(governor.hysteresis_frac, 0.1),
    ODBGC_PERTURB(governor.check_interval_events, 32),
    ODBGC_PERTURB(governor.boost_interval_overwrites, 256),
    ODBGC_PERTURB(governor.io_saturation_frac, 0.6),
    ODBGC_PERTURB(governor.emergency_max_collections, 8),
    ODBGC_PERTURB(governor.safe_mode_divergence_frac, 0.3),
    ODBGC_PERTURB(governor.safe_mode_divergence_count, 5),
    ODBGC_PERTURB(governor.safe_mode_flip_frac, 0.6),
    ODBGC_PERTURB(governor.safe_mode_window, 16),
    ODBGC_PERTURB(governor.safe_mode_exit_clean, 8),
    ODBGC_PERTURB(governor.safe_mode_fixed_interval, 128),
};

const ConfigPerturbation kUnfingerprintedMembers[] = {
    ODBGC_PERTURB(store.fault.seed, 77),
    ODBGC_PERTURB(store.fault.crash_point, CrashPoint::kBeforeFlip),
    ODBGC_PERTURB(store.fault.crash_at_collection, 3),
    ODBGC_PERTURB(store.fault.crash_at_event, 1234),
    ODBGC_PERTURB(selector_seed, 99),
    ODBGC_PERTURB(deadline_ms, 5000.0),
    ODBGC_PERTURB(telemetry.enabled, true),
};

#undef ODBGC_PERTURB

TEST(GoldenOutputTest, ConfigFingerprintsAreStable) {
  EXPECT_EQ(std::size(kFingerprintedKnobs), 70u);
  const uint64_t base = ConfigFingerprint(SimConfig());
  auto line = [](const char* name, uint64_t fp) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s %016" PRIx64, name, fp);
    return std::string(buf);
  };
  auto perturbed = [](const ConfigPerturbation& p) {
    SimConfig c;
    p.apply(c);
    return ConfigFingerprint(c);
  };
  std::string out = line("default", base);
  for (const ConfigPerturbation& p : kFingerprintedKnobs) {
    const uint64_t fp = perturbed(p);
    EXPECT_NE(fp, base) << p.name << " is not fingerprinted";
    out += "\n" + line(p.name, fp);
  }
  for (const ConfigPerturbation& p : kUnfingerprintedMembers) {
    const uint64_t fp = perturbed(p);
    EXPECT_EQ(fp, base) << p.name << " is fingerprinted";
    out += "\n" + line(p.name, fp);
  }
  CheckAgainstGolden("config_fingerprints.txt", out);
}

}  // namespace
}  // namespace odbgc
