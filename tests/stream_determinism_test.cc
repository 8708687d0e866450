// Determinism of the controller-introspection streams.
//
// The decision ledger and time-series sampler are pure functions of the
// simulated execution, so their JSONL exports must be byte-identical
// (a) across repeated runs, (b) across sweep thread counts, and
// (c) across a crash + checkpoint-resume versus the same run left
// uninterrupted. DecisionsToJsonl / TimeSeriesToJsonl are the comparison
// surface because they are exactly what --decisions-out/--timeseries-out
// write and what odbgc_analyze consumes.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "oo7/params.h"
#include "sim/checkpoint.h"
#include "sim/errors.h"
#include "sim/parallel.h"
#include "sim/report.h"
#include "sim/runner.h"
#include "sim/simulation.h"
#include "workloads/synthetic.h"

namespace odbgc {
namespace {

#if ODBGC_TELEMETRY
#define SKIP_WITHOUT_TELEMETRY()
#else
#define SKIP_WITHOUT_TELEMETRY() \
  GTEST_SKIP() << "built with ODBGC_TELEMETRY=OFF"
#endif

SimConfig TinyStreamingConfig(PolicyKind policy) {
  SimConfig cfg;
  cfg.store.partition_bytes = 16 * 1024;
  cfg.store.page_bytes = 2 * 1024;
  cfg.store.buffer_pages = 8;
  cfg.preamble_collections = 3;
  cfg.policy = policy;
  cfg.estimator = EstimatorKind::kFgsHb;
  cfg.fgs_history_factor = 0.8;
  cfg.saga.garbage_frac = 0.10;
  // The tiny OO7 trace has only ~850 pointer overwrites; defaults would
  // schedule the second collection past the end of it.
  cfg.saga.bootstrap_overwrites = 50;
  cfg.saga.dt_max = 100;
  cfg.saio_frac = 0.10;
  cfg.saio_bootstrap_app_io = 100;  // same reason: trigger within the trace
  cfg.telemetry.enabled = true;
  cfg.telemetry.record_decisions = true;
  cfg.telemetry.sample_interval_events = 256;
  return cfg;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "odbgc_" + name;
}

void RemoveCheckpointFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
  std::remove((path + ".tmp").c_str());
}

struct Streams {
  std::string decisions;
  std::string timeseries;
  std::string report;
};

Streams StreamsOf(const SimResult& r) {
  return Streams{DecisionsToJsonl(r), TimeSeriesToJsonl(r),
                 SimResultToJson(r)};
}

TEST(StreamDeterminismTest, RepeatedRunsProduceByteIdenticalStreams) {
  SKIP_WITHOUT_TELEMETRY();
  const Oo7Params params = Oo7Params::Tiny();
  SimConfig cfg = TinyStreamingConfig(PolicyKind::kSaga);
  Streams first = StreamsOf(RunOo7Once(cfg, params, 5));
  Streams second = StreamsOf(RunOo7Once(cfg, params, 5));
  EXPECT_FALSE(first.decisions.empty());
  EXPECT_FALSE(first.timeseries.empty());
  EXPECT_EQ(first.decisions, second.decisions);
  EXPECT_EQ(first.timeseries, second.timeseries);
  EXPECT_EQ(first.report, second.report);
}

TEST(StreamDeterminismTest, StreamsByteIdenticalAcrossSweepThreadCounts) {
  SKIP_WITHOUT_TELEMETRY();
  const Oo7Params params = Oo7Params::Tiny();
  std::vector<SweepPoint> points;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SweepPoint p;
    p.config = TinyStreamingConfig(seed % 2 == 0 ? PolicyKind::kSaga
                                                 : PolicyKind::kSaio);
    p.params = params;
    p.seed = seed;
    points.push_back(p);
  }
  SweepRunner single(1);
  SweepRunner pooled(4);
  std::vector<SimResult> serial = single.Run(points);
  std::vector<SimResult> parallel = pooled.Run(points);
  ASSERT_EQ(serial.size(), points.size());
  ASSERT_EQ(parallel.size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    Streams a = StreamsOf(serial[i]);
    Streams b = StreamsOf(parallel[i]);
    EXPECT_FALSE(a.decisions.empty()) << "point " << i;
    EXPECT_EQ(a.decisions, b.decisions) << "point " << i;
    EXPECT_EQ(a.timeseries, b.timeseries) << "point " << i;
    EXPECT_EQ(a.report, b.report) << "point " << i;
  }
}

// Checkpoint at the halfway event, resume in a fresh process-equivalent
// Simulation, and require the finished streams to match the golden
// uninterrupted run byte for byte — the ledger/sampler rings, drop
// counters, and metrics registry all travel through the snapshot.
TEST(StreamDeterminismTest, CheckpointRoundTripPreservesStreams) {
  SKIP_WITHOUT_TELEMETRY();
  const Oo7Params params = Oo7Params::Tiny();
  const uint64_t seed = 7;
  std::shared_ptr<const Trace> trace = GenerateOo7Trace(params, seed);
  SimConfig cfg = TinyStreamingConfig(PolicyKind::kSaga);
  ApplyRunSeeds(&cfg, seed);

  Streams golden = StreamsOf(Simulation(cfg).Run(*trace));
  ASSERT_FALSE(golden.decisions.empty());

  const std::string ckpt = TempPath("stream_roundtrip.ckpt");
  RemoveCheckpointFiles(ckpt);
  auto half = std::make_unique<Simulation>(cfg);
  const uint64_t k = trace->size() / 2;
  for (uint64_t i = 0; i < k; ++i) half->Apply((*trace)[i]);
  ASSERT_EQ(WriteCheckpoint(*half, ckpt), CheckpointError::kNone);

  ResumeResult rr = ResumeFromCheckpoint(cfg, ckpt);
  ASSERT_TRUE(rr.ok()) << CheckpointErrorName(rr.error);
  Streams resumed = StreamsOf(rr.sim->RunFrom(*trace, "", 0));
  EXPECT_EQ(resumed.decisions, golden.decisions);
  EXPECT_EQ(resumed.timeseries, golden.timeseries);
  EXPECT_EQ(resumed.report, golden.report);
  RemoveCheckpointFiles(ckpt);
}

// The full crash → restore → replay cycle (checkpoint_test's tentpole
// oracle) extended to the introspection streams.
void ExpectCrashResumeStreamsIdentical(SimConfig cfg,
                                       const std::string& tag) {
  const Oo7Params params = Oo7Params::Tiny();
  const uint64_t seed = 11;
  std::shared_ptr<const Trace> trace = GenerateOo7Trace(params, seed);
  ApplyRunSeeds(&cfg, seed);

  const SimResult uninterrupted = Simulation(cfg).Run(*trace);
  // A plan with transient faults must actually retry, so checkpoints are
  // written while retries are being charged.
  if (cfg.store.fault.read_fault_prob > 0.0) {
    ASSERT_GT(uninterrupted.io_retries, 0u) << tag;
  }
  Streams golden = StreamsOf(uninterrupted);
  ASSERT_FALSE(golden.decisions.empty());

  const std::string ckpt = TempPath(tag + ".ckpt");
  RemoveCheckpointFiles(ckpt);
  const uint64_t checkpoint_every = 257;
  const uint64_t kill = trace->size() / 2;
  ASSERT_GT(kill, checkpoint_every);

  SimConfig crash_cfg = cfg;
  crash_cfg.store.fault.crash_at_event = kill;
  Simulation victim(crash_cfg);
  bool crashed = false;
  try {
    victim.RunFrom(*trace, ckpt, checkpoint_every);
  } catch (const SimCrashInjected&) {
    crashed = true;
  }
  ASSERT_TRUE(crashed);

  ResumeResult rr = ResumeFromCheckpoint(cfg, ckpt);
  ASSERT_TRUE(rr.ok()) << CheckpointErrorName(rr.error);
  Streams resumed =
      StreamsOf(rr.sim->RunFrom(*trace, ckpt, checkpoint_every));
  EXPECT_EQ(resumed.decisions, golden.decisions) << tag;
  EXPECT_EQ(resumed.timeseries, golden.timeseries) << tag;
  EXPECT_EQ(resumed.report, golden.report) << tag;
  RemoveCheckpointFiles(ckpt);
}

TEST(StreamDeterminismTest, SagaCrashResumeStreamsByteIdentical) {
  SKIP_WITHOUT_TELEMETRY();
  ExpectCrashResumeStreamsIdentical(TinyStreamingConfig(PolicyKind::kSaga),
                                    "saga_streams");
}

TEST(StreamDeterminismTest, SaioCrashResumeStreamsByteIdentical) {
  SKIP_WITHOUT_TELEMETRY();
  ExpectCrashResumeStreamsIdentical(TinyStreamingConfig(PolicyKind::kSaio),
                                    "saio_streams");
}

// Under transient faults the registry's page counters include the
// retries (they are copied from IoStats), and the resumed run must still
// export the streams of the run left uninterrupted.
TEST(StreamDeterminismTest, SaioFaultedCrashResumeStreamsByteIdentical) {
  SKIP_WITHOUT_TELEMETRY();
  SimConfig cfg = TinyStreamingConfig(PolicyKind::kSaio);
  cfg.store.fault.read_fault_prob = 0.02;
  cfg.store.fault.write_fault_prob = 0.01;
  ExpectCrashResumeStreamsIdentical(cfg, "saio_faulted_streams");
}

// A telemetry-off resume of a telemetry-on checkpoint must load cleanly
// (the blob is parsed and discarded) — the fingerprint deliberately
// ignores telemetry options.
TEST(StreamDeterminismTest, TelemetryOffResumeOfTelemetryOnCheckpoint) {
  SKIP_WITHOUT_TELEMETRY();
  const Oo7Params params = Oo7Params::Tiny();
  const uint64_t seed = 3;
  std::shared_ptr<const Trace> trace = GenerateOo7Trace(params, seed);
  SimConfig cfg = TinyStreamingConfig(PolicyKind::kSaga);
  ApplyRunSeeds(&cfg, seed);

  const std::string ckpt = TempPath("tel_off_resume.ckpt");
  RemoveCheckpointFiles(ckpt);
  auto half = std::make_unique<Simulation>(cfg);
  const uint64_t k = trace->size() / 2;
  for (uint64_t i = 0; i < k; ++i) half->Apply((*trace)[i]);
  ASSERT_EQ(WriteCheckpoint(*half, ckpt), CheckpointError::kNone);

  SimConfig plain = cfg;
  plain.telemetry = obs::TelemetryOptions{};
  ResumeResult rr = ResumeFromCheckpoint(plain, ckpt);
  ASSERT_TRUE(rr.ok()) << CheckpointErrorName(rr.error);
  SimResult r = rr.sim->RunFrom(*trace, "", 0);
  EXPECT_TRUE(r.decisions.empty());
  EXPECT_TRUE(r.timeseries.empty());

  // And the simulated behavior itself must match a never-instrumented
  // uninterrupted run (observability never steers the simulation).
  SimConfig plain_clean = plain;
  SimResult golden = Simulation(plain_clean).Run(*trace);
  EXPECT_EQ(SimResultToJson(r), SimResultToJson(golden));
  RemoveCheckpointFiles(ckpt);
}

// A governed run under capacity pressure ledgers its interventions
// (boosts/emergency collections as policy "governor"); those records
// ride the same rings, so the streams must stay byte-identical across
// crash + resume exactly like policy decisions do.
TEST(StreamDeterminismTest, GovernedOverloadCrashResumeStreamsByteIdentical) {
  SKIP_WITHOUT_TELEMETRY();
  UniformChurnOptions churn;
  churn.seed = 17;
  churn.cycles = 1500;
  churn.list_count = 8;
  churn.target_length = 16;
  Trace trace = MakeUniformChurn(churn);

  SimConfig cfg = TinyStreamingConfig(PolicyKind::kFixedRate);
  cfg.fixed_rate_overwrites = 1000000;  // lazy: pressure is all there is
  cfg.store.max_db_bytes = 8 * 16 * 1024;
  cfg.governor.enabled = true;

  Streams golden = StreamsOf(Simulation(cfg).Run(trace));
  ASSERT_NE(golden.decisions.find("\"governor\""), std::string::npos);

  const std::string ckpt = TempPath("governed_streams.ckpt");
  RemoveCheckpointFiles(ckpt);
  const uint64_t checkpoint_every = 257;
  const uint64_t kill = trace.size() / 2;
  ASSERT_GT(kill, checkpoint_every);

  SimConfig crash_cfg = cfg;
  crash_cfg.store.fault.crash_at_event = kill;
  Simulation victim(crash_cfg);
  bool crashed = false;
  try {
    victim.RunFrom(trace, ckpt, checkpoint_every);
  } catch (const SimCrashInjected&) {
    crashed = true;
  }
  ASSERT_TRUE(crashed);

  ResumeResult rr = ResumeFromCheckpoint(cfg, ckpt);
  ASSERT_TRUE(rr.ok()) << CheckpointErrorName(rr.error);
  Streams resumed = StreamsOf(rr.sim->RunFrom(trace, ckpt, checkpoint_every));
  EXPECT_EQ(resumed.decisions, golden.decisions);
  EXPECT_EQ(resumed.timeseries, golden.timeseries);
  EXPECT_EQ(resumed.report, golden.report);
  RemoveCheckpointFiles(ckpt);
}

}  // namespace
}  // namespace odbgc
