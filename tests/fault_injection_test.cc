// Fault injector determinism and the buffer pool's retry / torn-page
// accounting, plus end-to-end determinism of faulted runs (same seed +
// same FaultPlan => identical results at any thread count) and the
// zero-fault guarantee (a default FaultPlan changes nothing).

#include <vector>

#include <gtest/gtest.h>

#include "obs/telemetry.h"
#include "sim/parallel.h"
#include "sim/runner.h"
#include "storage/buffer_pool.h"
#include "storage/fault_injector.h"
#include "storage/object_store.h"

namespace odbgc {
namespace {

PageId P(PartitionId part, uint32_t page) { return PageId{part, page}; }

FaultPlan FlakyPlan() {
  FaultPlan plan;
  plan.read_fault_prob = 0.3;
  plan.write_fault_prob = 0.2;
  plan.torn_write_prob = 0.1;
  plan.max_retries = 3;
  return plan;
}

TEST(FaultInjectorTest, DeterministicBySeed) {
  FaultInjector a(FlakyPlan(), 42);
  FaultInjector b(FlakyPlan(), 42);
  for (uint32_t i = 0; i < 500; ++i) {
    PageId page = P(i % 5, i % 11);
    FaultOutcome oa = i % 2 ? a.OnWrite(page) : a.OnRead(page);
    FaultOutcome ob = i % 2 ? b.OnWrite(page) : b.OnRead(page);
    ASSERT_EQ(oa.retries, ob.retries) << i;
    ASSERT_EQ(oa.permanent, ob.permanent) << i;
    ASSERT_EQ(oa.torn, ob.torn) << i;
    ASSERT_EQ(oa.repaired_tear, ob.repaired_tear) << i;
  }
  EXPECT_EQ(a.torn_page_count(), b.torn_page_count());
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  FaultInjector a(FlakyPlan(), 1);
  FaultInjector b(FlakyPlan(), 2);
  bool differ = false;
  for (uint32_t i = 0; i < 500 && !differ; ++i) {
    FaultOutcome oa = a.OnRead(P(0, i));
    FaultOutcome ob = b.OnRead(P(0, i));
    differ = oa.retries != ob.retries || oa.permanent != ob.permanent;
  }
  EXPECT_TRUE(differ);
}

TEST(FaultInjectorTest, CertainFailureExhaustsRetriesThenPermanent) {
  FaultPlan plan;
  plan.read_fault_prob = 1.0;
  plan.max_retries = 3;
  FaultInjector inj(plan, 7);
  FaultOutcome o = inj.OnRead(P(0, 0));
  EXPECT_EQ(o.retries, 3u);
  EXPECT_TRUE(o.permanent);
  // Writes draw from the (disabled) write stream: clean.
  o = inj.OnWrite(P(0, 0));
  EXPECT_EQ(o.retries, 0u);
  EXPECT_FALSE(o.permanent);
}

TEST(FaultInjectorTest, ZeroProbabilityDrawsNothing) {
  FaultPlan plan;  // all probabilities zero
  FaultInjector inj(plan, 7);
  for (uint32_t i = 0; i < 100; ++i) {
    FaultOutcome r = inj.OnRead(P(0, i));
    FaultOutcome w = inj.OnWrite(P(0, i));
    ASSERT_EQ(r.retries, 0u);
    ASSERT_FALSE(r.permanent || r.torn || r.repaired_tear);
    ASSERT_FALSE(r.corrupt || r.bitflipped || r.decay_armed || r.dead);
    ASSERT_EQ(w.retries, 0u);
    ASSERT_FALSE(w.permanent || w.torn || w.repaired_tear);
    ASSERT_FALSE(w.corrupt || w.bitflipped || w.decay_armed || w.dead);
  }
}

TEST(FaultInjectorTest, SilentCorruptionKnobsAtZeroPreserveOldStreams) {
  // The silent-corruption knobs are gated on probability > 0, so a plan
  // that never heard of them draws the exact same RNG sequence as one
  // that sets them all to zero explicitly — committed goldens from
  // before the knobs existed stay byte-identical.
  FaultInjector old_style(FlakyPlan(), 42);
  FaultPlan explicit_zero = FlakyPlan();
  explicit_zero.bitflip_prob = 0.0;
  explicit_zero.decay_prob = 0.0;
  explicit_zero.dead_page_prob = 0.0;
  explicit_zero.dead_partition_prob = 0.0;
  FaultInjector with_zero(explicit_zero, 42);
  for (uint32_t i = 0; i < 500; ++i) {
    PageId page = P(i % 5, i % 11);
    FaultOutcome oa =
        i % 2 ? old_style.OnWrite(page) : old_style.OnRead(page);
    FaultOutcome ob =
        i % 2 ? with_zero.OnWrite(page) : with_zero.OnRead(page);
    ASSERT_EQ(oa.retries, ob.retries) << i;
    ASSERT_EQ(oa.permanent, ob.permanent) << i;
    ASSERT_EQ(oa.torn, ob.torn) << i;
    ASSERT_FALSE(ob.corrupt || ob.bitflipped || ob.decay_armed || ob.dead)
        << i;
  }
}

TEST(FaultInjectorTest, TornWriteDetectedAndRepairedOnNextRead) {
  FaultPlan plan;
  plan.torn_write_prob = 1.0;  // every write tears
  FaultInjector inj(plan, 7);
  FaultOutcome w = inj.OnWrite(P(0, 3));
  EXPECT_TRUE(w.torn);
  EXPECT_EQ(inj.torn_page_count(), 1u);
  FaultOutcome r1 = inj.OnRead(P(0, 3));
  EXPECT_TRUE(r1.repaired_tear);
  EXPECT_EQ(inj.torn_page_count(), 0u);
  FaultOutcome r2 = inj.OnRead(P(0, 3));  // repaired: clean now
  EXPECT_FALSE(r2.repaired_tear);
}

TEST(FaultInjectorTest, CleanRewriteClearsEarlierTear) {
  FaultPlan plan;
  plan.torn_write_prob = 0.5;
  FaultInjector inj(plan, 9);
  // Drive writes until one tears, then until a clean rewrite of the same
  // page clears it.
  PageId page = P(1, 1);
  bool torn = false;
  for (int i = 0; i < 64 && !torn; ++i) torn = inj.OnWrite(page).torn;
  ASSERT_TRUE(torn);
  ASSERT_EQ(inj.torn_page_count(), 1u);
  bool cleaned = false;
  for (int i = 0; i < 64 && !cleaned; ++i) {
    cleaned = !inj.OnWrite(page).torn;
  }
  ASSERT_TRUE(cleaned);
  EXPECT_EQ(inj.torn_page_count(), 0u);
  EXPECT_FALSE(inj.OnRead(page).repaired_tear);
}

TEST(BufferPoolFaultTest, RetriesChargedToIssuingContext) {
  FaultPlan plan;
  plan.read_fault_prob = 1.0;  // permanent failure after max_retries
  plan.max_retries = 2;
  FaultInjector inj(plan, 1);
  BufferPool pool(4);
  pool.AttachFaultInjector(&inj);
  pool.Access(P(0, 0), /*dirty=*/false, IoContext::kApplication);
  // 1 base transfer + 2 retries, all on the app read counter.
  EXPECT_EQ(pool.stats().app_reads, 3u);
  EXPECT_EQ(pool.stats().app_retries, 2u);
  EXPECT_EQ(pool.stats().read_failures, 1u);
  EXPECT_EQ(pool.stats().gc_retries, 0u);

  pool.Access(P(0, 1), /*dirty=*/false, IoContext::kCollector);
  EXPECT_EQ(pool.stats().gc_reads, 3u);
  EXPECT_EQ(pool.stats().gc_retries, 2u);
  EXPECT_EQ(pool.stats().read_failures, 2u);
  EXPECT_EQ(pool.stats().retries_total(), 4u);
}

TEST(BufferPoolFaultTest, TornWritebackThenRepairOnReread) {
  FaultPlan plan;
  plan.torn_write_prob = 1.0;
  FaultInjector inj(plan, 1);
  BufferPool pool(1);
  pool.AttachFaultInjector(&inj);
  // Dirty page 0; evicting it performs the (torn) write-back.
  pool.Access(P(0, 0), /*dirty=*/true, IoContext::kApplication);
  pool.Access(P(0, 1), /*dirty=*/false, IoContext::kApplication);
  EXPECT_EQ(pool.stats().torn_writes, 1u);
  EXPECT_EQ(pool.stats().torn_repairs, 0u);
  // Re-reading page 0 detects the tear and pays a repair write.
  uint64_t writes_before = pool.stats().app_writes;
  pool.Access(P(0, 0), /*dirty=*/false, IoContext::kApplication);
  EXPECT_EQ(pool.stats().torn_repairs, 1u);
  EXPECT_EQ(pool.stats().app_writes, writes_before + 1);
}

TEST(BufferPoolFaultTest, TornRepairUnderTelemetryAndBackoff) {
  // The torn-page repair cycle with the full observability stack
  // attached: the repair write must be charged to the disk clock, and
  // telemetry must not change what a bare pool would have done. (The
  // registry's copies of the pool's counters are checked at run level in
  // TelemetryCountersEqualTheRunsOwnTotals.)
  DiskParams dparams;
  FaultPlan plan;
  plan.torn_write_prob = 1.0;
  plan.retry_backoff_ms = 0.5;

  // Reference: the same access pattern on a pool with no telemetry.
  FaultInjector bare_inj(plan, 1);
  DiskModel bare_disk(dparams, 1024, 8);
  BufferPool bare(1);
  bare.AttachDiskModel(&bare_disk);
  bare.AttachFaultInjector(&bare_inj);

  FaultInjector inj(plan, 1);
  DiskModel disk(dparams, 1024, 8);
  obs::TelemetryOptions opts;
  opts.enabled = true;
  obs::Telemetry tel(opts);
  BufferPool pool(1);
  pool.AttachDiskModel(&disk);
  pool.AttachFaultInjector(&inj);
  pool.AttachTelemetry(&tel);

  for (BufferPool* p : {&bare, &pool}) {
    // Dirty page 0; evicting it performs the (torn) write-back; the
    // re-read detects the tear and pays the repair write.
    p->Access(P(0, 0), /*dirty=*/true, IoContext::kApplication);
    p->Access(P(0, 1), /*dirty=*/false, IoContext::kApplication);
    p->Access(P(0, 0), /*dirty=*/false, IoContext::kApplication);
  }
  EXPECT_EQ(pool.stats().torn_writes, 1u);
  EXPECT_EQ(pool.stats().torn_repairs, 1u);

  // Observability changed nothing: stats and disk time match the bare
  // pool, and the repair write's service time landed on the app clock.
  EXPECT_EQ(pool.stats().app_reads, bare.stats().app_reads);
  EXPECT_EQ(pool.stats().app_writes, bare.stats().app_writes);
  EXPECT_EQ(disk.app_ms(), bare_disk.app_ms());
  EXPECT_GT(disk.app_ms(), 0.0);
  EXPECT_EQ(disk.gc_ms(), 0.0);
}

TEST(BufferPoolFaultTest, RetryBackoffChargedToDiskClock) {
  DiskParams dparams;
  FaultPlan plan;
  plan.read_fault_prob = 1.0;
  plan.max_retries = 2;
  plan.retry_backoff_ms = 0.5;
  FaultInjector inj(plan, 1);

  DiskModel clean_disk(dparams, 1024, 8);
  BufferPool clean(4);
  clean.AttachDiskModel(&clean_disk);
  clean.Access(P(0, 0), false, IoContext::kApplication);

  DiskModel faulted_disk(dparams, 1024, 8);
  BufferPool faulted(4);
  faulted.AttachDiskModel(&faulted_disk);
  faulted.AttachFaultInjector(&inj);
  faulted.Access(P(0, 0), false, IoContext::kApplication);

  // The faulted access pays 2 extra transfers plus 0.5 + 1.0 ms backoff.
  EXPECT_GE(faulted_disk.app_ms(), clean_disk.app_ms() + 1.5);
  EXPECT_EQ(faulted_disk.gc_ms(), 0.0);
}

TEST(FaultPlanTest, EnabledFlags) {
  FaultPlan plan;
  EXPECT_FALSE(plan.io_faults_enabled());
  EXPECT_FALSE(plan.enabled());
  plan.commit_protocol = true;
  EXPECT_FALSE(plan.io_faults_enabled());
  EXPECT_TRUE(plan.enabled());
  plan.commit_protocol = false;
  plan.torn_write_prob = 0.01;
  EXPECT_TRUE(plan.io_faults_enabled());
  EXPECT_TRUE(plan.enabled());
}

TEST(ApplyRunSeedsTest, MixesFaultSeedOnlyWhenFaultsEnabled) {
  SimConfig off;
  ApplyRunSeeds(&off, 5);
  EXPECT_EQ(off.selector_seed, 5u * 7919 + 17);
  EXPECT_EQ(off.store.fault.seed, 0u);  // untouched: no fault stream

  SimConfig on;
  on.store.fault.read_fault_prob = 0.01;
  SimConfig on2 = on;
  ApplyRunSeeds(&on, 5);
  ApplyRunSeeds(&on2, 6);
  EXPECT_NE(on.store.fault.seed, 0u);
  EXPECT_NE(on.store.fault.seed, on2.store.fault.seed);

  // Same run seed => same derived seeds (reproducibility).
  SimConfig on3;
  on3.store.fault.read_fault_prob = 0.01;
  ApplyRunSeeds(&on3, 5);
  EXPECT_EQ(on.store.fault.seed, on3.store.fault.seed);
}

SimConfig FaultedSweepConfig() {
  SimConfig cfg;
  cfg.store.partition_bytes = 16 * 1024;
  cfg.store.page_bytes = 2 * 1024;
  cfg.store.buffer_pages = 8;
  cfg.preamble_collections = 3;
  cfg.policy = PolicyKind::kSaio;
  cfg.saio_frac = 0.10;
  cfg.store.fault.read_fault_prob = 0.01;
  cfg.store.fault.write_fault_prob = 0.005;
  cfg.store.fault.torn_write_prob = 0.002;
  cfg.store.fault.commit_protocol = true;
  return cfg;
}

void ExpectSameFaultedResult(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.collections, b.collections);
  EXPECT_EQ(a.clock.app_io, b.clock.app_io);
  EXPECT_EQ(a.clock.gc_io, b.clock.gc_io);
  EXPECT_EQ(a.achieved_gc_io_pct, b.achieved_gc_io_pct);
  EXPECT_EQ(a.io_retries, b.io_retries);
  EXPECT_EQ(a.io_read_failures, b.io_read_failures);
  EXPECT_EQ(a.io_write_failures, b.io_write_failures);
  EXPECT_EQ(a.torn_writes, b.torn_writes);
  EXPECT_EQ(a.torn_repairs, b.torn_repairs);
  EXPECT_EQ(a.total_reclaimed_bytes, b.total_reclaimed_bytes);
  EXPECT_EQ(a.final_actual_garbage_bytes, b.final_actual_garbage_bytes);
}

TEST(FaultedRunDeterminismTest, SerialAndParallelSweepsMatch) {
  SimConfig cfg = FaultedSweepConfig();
  Oo7Params params = Oo7Params::Tiny();
  AggregateResult serial = RunOo7Many(cfg, params, 100, 4, /*threads=*/1);
  AggregateResult parallel = RunOo7Many(cfg, params, 100, 4, /*threads=*/4);
  ASSERT_EQ(serial.runs.size(), parallel.runs.size());
  uint64_t total_retries = 0;
  for (size_t i = 0; i < serial.runs.size(); ++i) {
    ExpectSameFaultedResult(serial.runs[i], parallel.runs[i]);
    total_retries += serial.runs[i].io_retries;
  }
  // The plan's fault rates are high enough that the sweep actually
  // exercised the retry path.
  EXPECT_GT(total_retries, 0u);
}

uint64_t CounterValue(const obs::TelemetrySnapshot& snap, const char* id) {
  for (const obs::CounterSnapshot& c : snap.counters) {
    if (c.id == id) return c.value;
  }
  ADD_FAILURE() << "no counter " << id;
  return 0;
}

TEST(FaultedRunDeterminismTest, TelemetryCountersEqualTheRunsOwnTotals) {
#if !ODBGC_TELEMETRY
  GTEST_SKIP() << "built with ODBGC_TELEMETRY=OFF";
#endif
  // The registry's page, buffer, fault and collection counters are copies
  // of the run's own totals. Under transient faults the page counters
  // must include the retried transfers, so they sum to the I/O clocks.
  SimConfig cfg = FaultedSweepConfig();
  cfg.policy = PolicyKind::kFixedRate;
  cfg.fixed_rate_overwrites = 50;
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample_interval_events = 64;
  const SimResult r = RunOo7Once(cfg, Oo7Params::Tiny(), 100);
  ASSERT_GT(r.io_retries, 0u);
  ASSERT_GT(r.torn_writes, 0u);
  ASSERT_GT(r.collections, 0u);
  ASSERT_FALSE(r.timeseries.empty());

  const obs::TelemetrySnapshot& t = r.telemetry;
  EXPECT_EQ(CounterValue(t, "storage.page_reads.app") +
                CounterValue(t, "storage.page_writes.app"),
            r.clock.app_io);
  EXPECT_EQ(CounterValue(t, "storage.page_reads.gc") +
                CounterValue(t, "storage.page_writes.gc"),
            r.clock.gc_io);
  EXPECT_EQ(CounterValue(t, "storage.buffer.hits"), r.buffer_hits);
  EXPECT_EQ(CounterValue(t, "storage.buffer.misses"), r.buffer_misses);
  EXPECT_EQ(CounterValue(t, "storage.fault.retries"), r.io_retries);
  EXPECT_EQ(CounterValue(t, "storage.fault.permanent_failures"),
            r.io_read_failures + r.io_write_failures);
  EXPECT_EQ(CounterValue(t, "storage.fault.torn_writes"), r.torn_writes);
  EXPECT_EQ(CounterValue(t, "storage.fault.torn_repairs"), r.torn_repairs);
  EXPECT_EQ(CounterValue(t, "storage.checksum_failures"),
            r.checksum_failures);
  EXPECT_EQ(CounterValue(t, "storage.fault.bitflips"), r.bitflips_injected);
  EXPECT_EQ(CounterValue(t, "storage.fault.device_faults"), r.device_faults);
  EXPECT_EQ(CounterValue(t, "gc.collections"),
            r.collections + r.idle_collections);
  EXPECT_EQ(CounterValue(t, "gc.bytes_reclaimed"), r.total_reclaimed_bytes);
  // Each frame sees the totals as of its own event, not as of Finish.
  for (const obs::TimeSeriesFrame& frame : r.timeseries) {
    EXPECT_EQ(CounterValue(frame.metrics, "gc.collections"),
              frame.collections)
        << "frame " << frame.seq;
  }
}

TEST(FaultedRunDeterminismTest, ZeroFaultPlanChangesNothing) {
  SimConfig cfg;
  cfg.store.partition_bytes = 16 * 1024;
  cfg.store.page_bytes = 2 * 1024;
  cfg.store.buffer_pages = 8;
  cfg.preamble_collections = 3;
  cfg.policy = PolicyKind::kSaga;
  cfg.saga.garbage_frac = 0.10;
  Oo7Params params = Oo7Params::Tiny();

  SimResult plain = RunOo7Once(cfg, params, 3);
  // Constructing the plan explicitly (all defaults) must not perturb the
  // run in any observable way.
  SimConfig with_plan = cfg;
  with_plan.store.fault = FaultPlan{};
  SimResult with = RunOo7Once(with_plan, params, 3);
  EXPECT_EQ(plain.collections, with.collections);
  EXPECT_EQ(plain.clock.app_io, with.clock.app_io);
  EXPECT_EQ(plain.clock.gc_io, with.clock.gc_io);
  EXPECT_EQ(plain.achieved_gc_io_pct, with.achieved_gc_io_pct);
  EXPECT_EQ(plain.total_reclaimed_bytes, with.total_reclaimed_bytes);
  EXPECT_EQ(with.io_retries, 0u);
  EXPECT_EQ(with.crashes, 0u);
  EXPECT_EQ(with.verifier_runs, 0u);
}

}  // namespace
}  // namespace odbgc
