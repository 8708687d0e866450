// Overload governor tests: the PressureGovernor state machine (watermark
// escalation/hysteresis, boost gating, safe-mode triggers and exit), the
// bounded-capacity store (SpaceExhaustedError), the simulation-level
// interventions (emergency collection, safe-mode policy fallback), and
// the determinism obligations (governed uncapped runs byte-identical to
// ungoverned ones; governed capped runs byte-identical across
// crash/resume; governor knobs covered by the checkpoint fingerprint).

#include <cstdio>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "sim/checkpoint.h"
#include "sim/errors.h"
#include "sim/governor.h"
#include "sim/report.h"
#include "sim/simulation.h"
#include "util/snapshot.h"
#include "workloads/synthetic.h"

namespace odbgc {
namespace {

using enum PressureLevel;

Trace Churn(uint64_t seed, int cycles = 1500) {
  UniformChurnOptions o;
  o.seed = seed;
  o.cycles = cycles;
  o.list_count = 8;
  o.target_length = 16;  // live set ~= 8 * 16 * 400 = 51200 bytes
  return MakeUniformChurn(o);
}

// A policy lazy enough that garbage accumulates for the whole run, so
// capacity pressure is entirely the governor's problem.
SimConfig LazyConfig(uint64_t max_db_bytes, bool governor) {
  SimConfig cfg;
  cfg.store.partition_bytes = 16 * 1024;
  cfg.store.page_bytes = 2 * 1024;
  cfg.store.buffer_pages = 8;
  cfg.store.max_db_bytes = max_db_bytes;
  cfg.policy = PolicyKind::kFixedRate;
  cfg.fixed_rate_overwrites = 1000000;  // never fires within the trace
  cfg.preamble_collections = 2;
  cfg.record_collection_log = false;
  cfg.governor.enabled = governor;
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

// --- PressureGovernor state machine --------------------------------------

TEST(GovernorTest, EscalatesImmediatelyAndHoldsThroughJitter) {
  GovernorConfig g;  // yellow 0.70, red 0.85, hysteresis 0.05
  g.enabled = true;
  PressureGovernor gov(g);
  EXPECT_EQ(gov.ObserveUtilization(0.50), kNormal);
  EXPECT_EQ(gov.ObserveUtilization(0.71), kYellow);
  // Jitter below the watermark but above watermark - hysteresis holds
  // the level instead of flapping it.
  EXPECT_EQ(gov.ObserveUtilization(0.67), kYellow);
  EXPECT_EQ(gov.ObserveUtilization(0.71), kYellow);
  EXPECT_EQ(gov.ObserveUtilization(0.64), kNormal);  // past hysteresis
  // Escalation may skip straight to red.
  EXPECT_EQ(gov.ObserveUtilization(0.90), kRed);
  EXPECT_EQ(gov.ObserveUtilization(0.82), kRed);  // 0.80 <= u: holds
}

TEST(GovernorTest, DeescalatesOneLevelPerObservation) {
  GovernorConfig g;
  g.enabled = true;
  PressureGovernor gov(g);
  EXPECT_EQ(gov.ObserveUtilization(0.95), kRed);
  // Even a collapse to zero steps down one level at a time, so the
  // emergency actuator gets one more look before pressure is declared
  // over.
  EXPECT_EQ(gov.ObserveUtilization(0.0), kYellow);
  EXPECT_EQ(gov.ObserveUtilization(0.0), kNormal);
}

TEST(GovernorTest, BoostGatedOnLevelIntervalAndSaturation) {
  GovernorConfig g;
  g.enabled = true;
  g.boost_interval_overwrites = 128;
  PressureGovernor gov(g);
  EXPECT_FALSE(gov.BoostDue(1000));  // normal pressure: no boost
  gov.ObserveUtilization(0.75);
  EXPECT_TRUE(gov.BoostDue(1000));  // yellow + never forced
  gov.OnForcedCollection(1000);
  EXPECT_FALSE(gov.BoostDue(1100));  // interval not yet elapsed
  EXPECT_TRUE(gov.BoostDue(1128));
  // A GC-saturated disk suppresses the boost (more GC I/O would deepen
  // application stalls); it resumes when the share falls back.
  gov.ObserveIo(100, 0);
  gov.ObserveIo(100, 200);  // delta: all GC
  EXPECT_TRUE(gov.io_saturated());
  EXPECT_FALSE(gov.BoostDue(1128));
  gov.ObserveIo(500, 200);  // delta: all application
  EXPECT_FALSE(gov.io_saturated());
  EXPECT_TRUE(gov.BoostDue(1128));
}

TEST(GovernorTest, ConsecutiveDivergenceBreachesEnterSafeMode) {
  GovernorConfig g;
  g.enabled = true;
  g.safe_mode_divergence_frac = 0.25;
  g.safe_mode_divergence_count = 3;
  PressureGovernor gov(g);
  gov.ObserveCollection(100, true, 0.40);
  gov.ObserveCollection(200, true, 0.40);
  EXPECT_FALSE(gov.ShouldEnterSafeMode());
  // A healthy collection resets the streak: breaches must be
  // consecutive, or a single noisy estimate would accumulate forever.
  gov.ObserveCollection(300, true, 0.05);
  gov.ObserveCollection(400, true, 0.40);
  gov.ObserveCollection(500, true, 0.40);
  EXPECT_FALSE(gov.ShouldEnterSafeMode());
  gov.ObserveCollection(600, true, 0.40);
  EXPECT_TRUE(gov.ShouldEnterSafeMode());
  // Estimator-less runs (divergence_valid false) never breach.
  PressureGovernor blind(g);
  for (int i = 0; i < 10; ++i) {
    blind.ObserveCollection(100 * (i + 1), false, 1.0);
  }
  EXPECT_FALSE(blind.ShouldEnterSafeMode());
}

TEST(GovernorTest, OscillatingIntervalsEnterSafeMode) {
  GovernorConfig g;
  g.enabled = true;
  g.safe_mode_window = 4;
  g.safe_mode_flip_frac = 0.75;
  PressureGovernor gov(g);
  // Gaps 100, 10, 100, 10: every consecutive delta changes sign.
  for (uint64_t clock : {0ull, 100ull, 110ull, 210ull, 220ull}) {
    gov.ObserveCollection(clock, false, 0.0);
  }
  EXPECT_DOUBLE_EQ(gov.FlipFraction(), 1.0);
  EXPECT_TRUE(gov.ShouldEnterSafeMode());

  // Monotone gaps (a converging controller) never trigger.
  PressureGovernor steady(g);
  for (uint64_t clock : {0ull, 10ull, 30ull, 60ull, 100ull}) {
    steady.ObserveCollection(clock, false, 0.0);
  }
  EXPECT_DOUBLE_EQ(steady.FlipFraction(), 0.0);
  EXPECT_FALSE(steady.ShouldEnterSafeMode());
}

TEST(GovernorTest, SafeModeExitsAfterCleanStreak) {
  GovernorConfig g;
  g.enabled = true;
  g.safe_mode_exit_clean = 3;
  PressureGovernor gov(g);
  gov.EnterSafeMode();
  EXPECT_TRUE(gov.safe_mode());
  EXPECT_FALSE(gov.ShouldExitSafeMode());
  gov.ObserveCollection(100, false, 0.0);
  gov.ObserveCollection(200, false, 0.0);
  EXPECT_FALSE(gov.ShouldExitSafeMode());
  gov.ObserveCollection(300, false, 0.0);
  EXPECT_TRUE(gov.ShouldExitSafeMode());
  gov.ExitSafeMode();
  EXPECT_FALSE(gov.safe_mode());
}

TEST(GovernorTest, StateRoundTripsThroughSnapshot) {
  GovernorConfig g;
  g.enabled = true;
  PressureGovernor gov(g);
  gov.ObserveUtilization(0.92);
  gov.ObserveIo(10, 90);
  gov.OnForcedCollection(5000);
  gov.ObserveCollection(100, true, 0.40);
  gov.ObserveCollection(150, true, 0.40);

  SnapshotWriter w;
  gov.SaveState(w);
  PressureGovernor back(g);
  SnapshotReader r(w.data());
  back.RestoreState(r);

  EXPECT_EQ(back.level(), gov.level());
  EXPECT_EQ(back.safe_mode(), gov.safe_mode());
  EXPECT_EQ(back.io_saturated(), gov.io_saturated());
  EXPECT_DOUBLE_EQ(back.FlipFraction(), gov.FlipFraction());
  for (uint64_t clock : {5000ull, 5100ull, 5128ull, 6000ull}) {
    EXPECT_EQ(back.BoostDue(clock), gov.BoostDue(clock)) << clock;
  }
  // The restored divergence streak continues where the saved one left
  // off: one more breach crosses the default count of 3.
  back.ObserveCollection(200, true, 0.40);
  EXPECT_TRUE(back.ShouldEnterSafeMode());
}

// --- bounded capacity ----------------------------------------------------

TEST(OverloadSimTest, CappedStoreRaisesSpaceExhausted) {
  // 8 partitions of 16 KB cannot hold 1500 cycles of uncollected churn.
  SimConfig cfg = LazyConfig(8 * 16 * 1024, /*governor=*/false);
  Simulation sim(cfg);
  Trace trace = Churn(3);
  bool threw = false;
  try {
    sim.Run(trace);
  } catch (const SpaceExhaustedError& e) {
    threw = true;
    EXPECT_EQ(e.max_db_bytes(), cfg.store.max_db_bytes);
    EXPECT_LE(e.committed_bytes(), e.max_db_bytes());
    EXPECT_EQ(std::string(SimErrorKindName(e.kind())), "space_exhausted");
  }
  EXPECT_TRUE(threw);
}

TEST(OverloadSimTest, GovernorHoldsCappedRunToCompletion) {
  // Same trace, same ceiling: the governed run must finish, and must
  // have actually intervened to do it.
  SimResult r = Simulation(LazyConfig(8 * 16 * 1024, /*governor=*/true))
                    .Run(Churn(3));
  EXPECT_GT(r.governor_boost_collections + r.governor_emergency_collections,
            0u);
  EXPECT_GT(r.governor_gc_io, 0u);
  EXPECT_GT(r.peak_utilization_pct_x100, 0u);
  // Interventions stay within the ceiling: peak utilization never
  // reports past 100%.
  EXPECT_LE(r.peak_utilization_pct_x100, 10000u);
}

TEST(OverloadSimTest, GovernorCannotMaskTrueExhaustion) {
  // A ceiling below the workload's live set is unrecoverable: no amount
  // of collection creates space, and the governor must not convert a
  // hard failure into a hang.
  SimConfig cfg = LazyConfig(2 * 16 * 1024, /*governor=*/true);
  EXPECT_THROW(Simulation(cfg).Run(Churn(3)), SpaceExhaustedError);
}

// --- determinism obligations ---------------------------------------------

TEST(OverloadSimTest, UncappedGovernedRunIsByteIdenticalToUngoverned) {
  // With no capacity cap and a healthy policy the governor only
  // observes; enabling it must not perturb a single byte of the report.
  SimConfig off = LazyConfig(0, /*governor=*/false);
  off.fixed_rate_overwrites = 300;
  SimConfig on = LazyConfig(0, /*governor=*/true);
  on.fixed_rate_overwrites = 300;
  Trace trace = Churn(7);
  EXPECT_EQ(SimResultToJson(Simulation(off).Run(trace)),
            SimResultToJson(Simulation(on).Run(trace)));
}

TEST(OverloadSimTest, SafeModeEngagesOnceAndStays) {
  // flip_frac 0 declares any filled window oscillating, so safe mode
  // engages as soon as the third inter-collection gap lands — a cheap
  // deterministic stand-in for a genuinely thrashing controller. The
  // safe-mode guard in ShouldEnterSafeMode keeps the entry count at one
  // even though the trigger keeps firing.
  SimConfig cfg = LazyConfig(0, /*governor=*/true);
  cfg.fixed_rate_overwrites = 200;
  cfg.governor.safe_mode_flip_frac = 0.0;
  cfg.governor.safe_mode_window = 3;
  SimResult r = Simulation(cfg).Run(Churn(9));
  EXPECT_EQ(r.safe_mode_entries, 1u);
  EXPECT_EQ(r.safe_mode_exits, 0u);
  EXPECT_GT(r.collections, 4u);  // the fallback policy kept collecting
}

TEST(OverloadSimTest, FingerprintCoversCapacityAndGovernorKnobs) {
  const SimConfig base = LazyConfig(8 * 16 * 1024, /*governor=*/true);
  const uint64_t fp = ConfigFingerprint(base);

  SimConfig cap = base;
  cap.store.max_db_bytes *= 2;
  EXPECT_NE(ConfigFingerprint(cap), fp);

  SimConfig off = base;
  off.governor.enabled = false;
  EXPECT_NE(ConfigFingerprint(off), fp);

  SimConfig yellow = base;
  yellow.governor.yellow_frac = 0.60;
  EXPECT_NE(ConfigFingerprint(yellow), fp);

  SimConfig rate = base;
  rate.governor.safe_mode_fixed_interval = 32;
  EXPECT_NE(ConfigFingerprint(rate), fp);
}

TEST(OverloadSimTest, GovernedCappedCrashResumeIsByteIdentical) {
  SimConfig cfg = LazyConfig(8 * 16 * 1024, /*governor=*/true);
  Trace trace = Churn(11);
  const std::string golden = SimResultToJson(Simulation(cfg).Run(trace));

  const std::string ckpt = TempPath("overload.ckpt");
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
  } catch (const SimCrashInjected& e) {
    crashed = true;
    EXPECT_EQ(e.at_event(), kill);
  }
  ASSERT_TRUE(crashed);

  ResumeResult rr = ResumeFromCheckpoint(cfg, ckpt);
  ASSERT_TRUE(rr.ok()) << CheckpointErrorName(rr.error);
  EXPECT_LT(rr.events_applied, kill);
  SimResult resumed = rr.sim->RunFrom(trace, ckpt, checkpoint_every);
  EXPECT_EQ(SimResultToJson(resumed), golden);
  RemoveCheckpointFiles(ckpt);
}

TEST(OverloadSimTest, SafeModeStateSurvivesCrashResume) {
  // Kill the run well after safe mode engaged; the resumed run must
  // still report exactly one entry and finish byte-identical.
  SimConfig cfg = LazyConfig(0, /*governor=*/true);
  cfg.fixed_rate_overwrites = 200;
  cfg.governor.safe_mode_flip_frac = 0.0;
  cfg.governor.safe_mode_window = 3;
  Trace trace = Churn(13);
  const std::string golden = SimResultToJson(Simulation(cfg).Run(trace));

  const std::string ckpt = TempPath("safemode.ckpt");
  RemoveCheckpointFiles(ckpt);
  const uint64_t kill = (3 * trace.size()) / 4;
  SimConfig crash_cfg = cfg;
  crash_cfg.store.fault.crash_at_event = kill;
  Simulation victim(crash_cfg);
  bool crashed = false;
  try {
    victim.RunFrom(trace, ckpt, 101);
  } catch (const SimCrashInjected&) {
    crashed = true;
  }
  ASSERT_TRUE(crashed);

  ResumeResult rr = ResumeFromCheckpoint(cfg, ckpt);
  ASSERT_TRUE(rr.ok()) << CheckpointErrorName(rr.error);
  SimResult resumed = rr.sim->RunFrom(trace, ckpt, 101);
  EXPECT_EQ(SimResultToJson(resumed), golden);
  EXPECT_EQ(resumed.safe_mode_entries, 1u);
  RemoveCheckpointFiles(ckpt);
}

TEST(OverloadSimTest, RestoreRejectsASafeModeFlagTheGovernorDisagreesWith) {
  // The simulation's safe-mode byte follows the governor's GOVE tag and
  // must repeat the governor's own flag.
  SimConfig cfg = LazyConfig(0, /*governor=*/true);
  cfg.fixed_rate_overwrites = 200;
  cfg.governor.safe_mode_flip_frac = 0.0;
  cfg.governor.safe_mode_window = 3;
  const Trace trace = Churn(9);
  Simulation sim(cfg);
  for (const TraceEvent& event : trace.events()) sim.Apply(event);
  SnapshotWriter w;
  sim.SaveState(w);
  std::string payload = w.Take();
  const size_t tag = payload.find("GOVE");
  ASSERT_NE(tag, std::string::npos);
  ASSERT_EQ(payload.rfind("GOVE"), tag);
  const size_t flag = tag + 4;
  ASSERT_EQ(payload[flag], 1);  // the run is in safe mode

  Simulation intact(cfg);
  SnapshotReader ok_reader(payload);
  intact.RestoreState(ok_reader);
  EXPECT_TRUE(ok_reader.AtEnd()) << ok_reader.error();

  payload[flag] = 0;
  Simulation flipped(cfg);
  SnapshotReader r(payload);
  flipped.RestoreState(r);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("safe-mode flag"), std::string::npos)
      << r.error();
}

}  // namespace
}  // namespace odbgc
