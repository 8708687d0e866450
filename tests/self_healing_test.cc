// The self-healing storage stack: silent-corruption fault kinds
// (bit-flips, latent decay, permanent device faults), checksum-on-read
// detection through the buffer pool's corruption-event queue, the
// background scrubber, partition quarantine, and the end-to-end
// detect -> quarantine -> repair pipeline inside a simulation run
// (deterministic at any thread count, clean runs untouched).

#include <vector>

#include <gtest/gtest.h>

#include "sim/parallel.h"
#include "sim/runner.h"
#include "storage/buffer_pool.h"
#include "storage/fault_injector.h"
#include "storage/object_store.h"
#include "storage/scrubber.h"
#include "storage/verifier.h"
#include "util/snapshot.h"

namespace odbgc {
namespace {

PageId P(PartitionId part, uint32_t page) { return PageId{part, page}; }

TEST(FaultInjectorSelfHealTest, BitflipCorruptsUntilRewriteOrHeal) {
  FaultPlan plan;
  plan.bitflip_prob = 1.0;  // every completed write flips bits
  FaultInjector inj(plan, 3);
  FaultOutcome w = inj.OnWrite(P(0, 2));
  EXPECT_TRUE(w.bitflipped);
  EXPECT_FALSE(w.torn);  // silent: nothing observable at write time
  EXPECT_EQ(inj.corrupt_page_count(), 1u);
  // Every read of the stored image fails its checksum until repair.
  EXPECT_TRUE(inj.OnRead(P(0, 2)).corrupt);
  EXPECT_TRUE(inj.OnRead(P(0, 2)).corrupt);
  // Other pages are unaffected.
  EXPECT_FALSE(inj.OnRead(P(0, 3)).corrupt);
  inj.HealPartition(0);
  EXPECT_EQ(inj.corrupt_page_count(), 0u);
  EXPECT_FALSE(inj.OnRead(P(0, 2)).corrupt);
}

TEST(FaultInjectorSelfHealTest, DecayStaysLatentUntilItsDeadline) {
  FaultPlan plan;
  plan.decay_prob = 1.0;
  plan.decay_latency = 5;
  FaultInjector inj(plan, 3);
  FaultOutcome w = inj.OnWrite(P(1, 0));  // transfer 1, rots at 6
  EXPECT_TRUE(w.decay_armed);
  EXPECT_EQ(inj.decaying_page_count(), 1u);
  // Reads before the deadline still see a good image.
  EXPECT_FALSE(inj.OnRead(P(1, 0)).corrupt);  // transfer 2
  for (uint32_t i = 0; i < 3; ++i) inj.OnRead(P(9, i));  // transfers 3..5
  // The deadline has passed: the next read of the page materializes the
  // rot as a checksum mismatch.
  FaultOutcome r = inj.OnRead(P(1, 0));  // transfer 6
  EXPECT_TRUE(r.corrupt);
  EXPECT_EQ(inj.decaying_page_count(), 0u);
  EXPECT_EQ(inj.corrupt_page_count(), 1u);
}

TEST(FaultInjectorSelfHealTest, RewriteSupersedesPendingDamage) {
  FaultPlan plan;
  plan.bitflip_prob = 1.0;
  FaultInjector inj(plan, 3);
  inj.OnWrite(P(0, 0));
  ASSERT_EQ(inj.corrupt_page_count(), 1u);
  // A later write lays down a fresh image first (clearing the old
  // corruption) and only then rolls its own dice — with probability 1
  // it corrupts again, but exactly once, not cumulatively.
  inj.OnWrite(P(0, 0));
  EXPECT_EQ(inj.corrupt_page_count(), 1u);
}

TEST(FaultInjectorSelfHealTest, DeadPartitionKillsEveryTransferUntilHealed) {
  FaultPlan plan;
  plan.dead_page_prob = 1.0;
  plan.dead_partition_prob = 1.0;
  FaultInjector inj(plan, 3);
  FaultOutcome w = inj.OnWrite(P(4, 1));
  EXPECT_TRUE(w.dead);
  EXPECT_TRUE(inj.partition_dead(4));
  // Every page of the partition is unreachable, reads and writes alike,
  // and no retry draws are consumed (the device is gone, not flaky).
  EXPECT_TRUE(inj.OnRead(P(4, 0)).dead);
  EXPECT_TRUE(inj.OnWrite(P(4, 7)).dead);
  EXPECT_FALSE(inj.OnRead(P(5, 0)).dead);
  inj.HealPartition(4);
  EXPECT_FALSE(inj.partition_dead(4));
  EXPECT_FALSE(inj.OnRead(P(4, 0)).dead);
}

TEST(FaultInjectorSelfHealTest, ChaosPlanDeterministicBySeed) {
  FaultPlan plan;
  plan.bitflip_prob = 0.3;
  plan.decay_prob = 0.2;
  plan.decay_latency = 7;
  plan.dead_page_prob = 0.05;
  plan.dead_partition_prob = 0.5;
  FaultInjector a(plan, 42);
  FaultInjector b(plan, 42);
  for (uint32_t i = 0; i < 500; ++i) {
    PageId page = P(i % 5, i % 11);
    FaultOutcome oa = i % 2 ? a.OnWrite(page) : a.OnRead(page);
    FaultOutcome ob = i % 2 ? b.OnWrite(page) : b.OnRead(page);
    ASSERT_EQ(oa.corrupt, ob.corrupt) << i;
    ASSERT_EQ(oa.bitflipped, ob.bitflipped) << i;
    ASSERT_EQ(oa.decay_armed, ob.decay_armed) << i;
    ASSERT_EQ(oa.dead, ob.dead) << i;
  }
  EXPECT_EQ(a.corrupt_page_count(), b.corrupt_page_count());
  EXPECT_EQ(a.dead_page_count(), b.dead_page_count());
  EXPECT_EQ(a.dead_partition_count(), b.dead_partition_count());
}

TEST(FaultInjectorSelfHealTest, HealthStateSurvivesSnapshotRoundTrip) {
  FaultPlan plan;
  plan.bitflip_prob = 0.4;
  plan.decay_prob = 0.3;
  plan.decay_latency = 9;
  plan.dead_page_prob = 0.1;
  plan.dead_partition_prob = 0.5;
  FaultInjector a(plan, 11);
  for (uint32_t i = 0; i < 200; ++i) a.OnWrite(P(i % 6, i % 13));

  SnapshotWriter w;
  a.SaveState(w);
  FaultInjector b(plan, 0);  // seed overwritten by the restored RNG
  SnapshotReader r(w.data());
  b.RestoreState(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(a.corrupt_page_count(), b.corrupt_page_count());
  EXPECT_EQ(a.decaying_page_count(), b.decaying_page_count());
  EXPECT_EQ(a.dead_page_count(), b.dead_page_count());
  EXPECT_EQ(a.dead_partition_count(), b.dead_partition_count());
  // The restored stream continues identically, decay clock included.
  for (uint32_t i = 0; i < 200; ++i) {
    PageId page = P(i % 6, i % 13);
    FaultOutcome oa = i % 2 ? a.OnWrite(page) : a.OnRead(page);
    FaultOutcome ob = i % 2 ? b.OnWrite(page) : b.OnRead(page);
    ASSERT_EQ(oa.corrupt, ob.corrupt) << i;
    ASSERT_EQ(oa.dead, ob.dead) << i;
  }
}

TEST(BufferPoolSelfHealTest, ChecksumMismatchQueuesTypedEvent) {
  FaultPlan plan;
  plan.bitflip_prob = 1.0;
  FaultInjector inj(plan, 1);
  BufferPool pool(1);
  pool.AttachFaultInjector(&inj);
  // Dirty page 0; evicting it performs the (silently corrupting)
  // write-back. Nothing is detected yet.
  pool.Access(P(0, 0), /*dirty=*/true, IoContext::kApplication);
  pool.Access(P(0, 1), /*dirty=*/false, IoContext::kApplication);
  EXPECT_EQ(pool.stats().bitflips, 1u);
  EXPECT_EQ(pool.stats().checksum_failures, 0u);
  EXPECT_EQ(pool.pending_corruption_count(), 0u);
  // The re-read pulls the corrupt image and fails its checksum.
  pool.Access(P(0, 0), /*dirty=*/false, IoContext::kApplication);
  EXPECT_EQ(pool.stats().checksum_failures, 1u);
  ASSERT_EQ(pool.pending_corruption_count(), 1u);
  EXPECT_TRUE(pool.HasPendingCorruption(0));
  EXPECT_FALSE(pool.HasPendingCorruption(1));
  std::vector<CorruptionEvent> events = pool.TakeCorruptionEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].page, P(0, 0));
  EXPECT_EQ(events[0].kind, CorruptionKind::kChecksum);
  EXPECT_EQ(pool.pending_corruption_count(), 0u);
}

TEST(BufferPoolSelfHealTest, CachedHitsNeverConsultTheMedia) {
  FaultPlan plan;
  plan.bitflip_prob = 1.0;
  FaultInjector inj(plan, 1);
  BufferPool pool(4);
  pool.AttachFaultInjector(&inj);
  pool.Access(P(0, 0), /*dirty=*/true, IoContext::kApplication);
  // Repeated hits on the resident page are RAM reads: no transfer, no
  // checksum verification, no detection — the dirty (good) copy shields
  // the application until write-back.
  for (int i = 0; i < 10; ++i) {
    pool.Access(P(0, 0), /*dirty=*/false, IoContext::kApplication);
  }
  EXPECT_EQ(pool.stats().checksum_failures, 0u);
  EXPECT_EQ(pool.pending_corruption_count(), 0u);
}

// A store whose every write-back corrupts the stored image, for scrub
// and quarantine fixtures.
StoreConfig BitflipStoreConfig() {
  StoreConfig config;
  config.partition_bytes = 8 * 1024;
  config.page_bytes = 1024;
  config.buffer_pages = 12;
  config.fault.bitflip_prob = 1.0;
  return config;
}

TEST(ScrubberTest, FindsLatentCorruptionAndReportsItAsScrub) {
  ObjectStore store(BitflipStoreConfig());
  for (ObjectId id = 1; id <= 20; ++id) store.CreateObject(id, 512, 2);
  ASSERT_GT(store.partition_count(), 1u);
  // Flush every partition: each written page's stored image is now
  // silently corrupt, while the cached copies stay good.
  for (PartitionId p = 0; p < store.partition_count(); ++p) {
    store.buffer_pool().FlushPartition(p, IoContext::kApplication);
  }
  const size_t corrupt_pages =
      store.mutable_fault_injector()->corrupt_page_count();
  ASSERT_GT(corrupt_pages, 0u);

  // One full lap over the database: budget = total used pages, so every
  // corrupt page is read exactly once.
  uint32_t used_pages = 0;
  const uint32_t page_bytes = store.config().page_bytes;
  for (PartitionId p = 0; p < store.partition_count(); ++p) {
    used_pages += (store.partition(p).used() + page_bytes - 1) / page_bytes;
  }
  Scrubber scrubber;
  ScrubReport rep = scrubber.ScrubQuantum(store, used_pages);
  EXPECT_EQ(rep.pages_scrubbed, used_pages);
  EXPECT_EQ(rep.corruption_found, corrupt_pages);  // all latent damage
  // Every detection is typed as a scrub find, not a demand-read one.
  for (const CorruptionEvent& e :
       store.buffer_pool().TakeCorruptionEvents()) {
    EXPECT_EQ(e.kind, CorruptionKind::kScrub);
  }
}

TEST(ScrubberTest, DeterministicCursorAndSnapshotRoundTrip) {
  ObjectStore store(BitflipStoreConfig());
  for (ObjectId id = 1; id <= 20; ++id) store.CreateObject(id, 512, 2);
  Scrubber a;
  a.ScrubQuantum(store, 7);
  SnapshotWriter w;
  a.SaveState(w);
  Scrubber b;
  SnapshotReader r(w.data());
  b.RestoreState(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(a.cursor_partition(), b.cursor_partition());
  EXPECT_EQ(a.cursor_page(), b.cursor_page());
}

TEST(ScrubberTest, SkipsQuarantinedPartitionsForFree) {
  StoreConfig config = BitflipStoreConfig();
  config.fault.bitflip_prob = 0.0;  // healthy media
  ObjectStore store(config);
  for (ObjectId id = 1; id <= 20; ++id) store.CreateObject(id, 512, 2);
  const uint64_t reads_before = store.io_stats().gc_reads;
  for (PartitionId p = 0; p < store.partition_count(); ++p) {
    store.QuarantinePartition(p);
  }
  Scrubber scrubber;
  ScrubReport rep = scrubber.ScrubQuantum(store, 100);
  EXPECT_EQ(rep.pages_scrubbed, 0u);
  EXPECT_EQ(store.io_stats().gc_reads, reads_before);
}

TEST(QuarantineTest, ExcludesPartitionFromAllocationAndByteAccounting) {
  StoreConfig config;
  config.partition_bytes = 8 * 1024;
  config.page_bytes = 1024;
  config.buffer_pages = 12;
  ObjectStore store(config);
  store.CreateObject(1, 1024, 0);
  const PartitionId home = store.object(1).partition;
  ASSERT_FALSE(store.IsQuarantined(home));
  EXPECT_EQ(store.quarantined_used_bytes(), 0u);

  ASSERT_TRUE(store.QuarantinePartition(home));
  EXPECT_FALSE(store.QuarantinePartition(home));  // already out of service
  EXPECT_TRUE(store.IsQuarantined(home));
  EXPECT_EQ(store.quarantined_count(), 1u);
  EXPECT_GT(store.quarantined_used_bytes(), 0u);
  // New allocations avoid the quarantined partition even though it has
  // plenty of free space.
  store.CreateObject(2, 1024, 0);
  EXPECT_NE(store.object(2).partition, home);

  store.ReleasePartition(home);
  EXPECT_FALSE(store.IsQuarantined(home));
  EXPECT_EQ(store.quarantined_count(), 0u);
  EXPECT_EQ(store.quarantined_used_bytes(), 0u);
}

TEST(QuarantineTest, RebuildDerivedStatePassesTheVerifier) {
  StoreConfig config;
  config.partition_bytes = 8 * 1024;
  config.page_bytes = 1024;
  config.buffer_pages = 12;
  ObjectStore store(config);
  for (ObjectId id = 1; id <= 12; ++id) store.CreateObject(id, 400, 3);
  for (ObjectId id = 1; id < 12; ++id) store.WriteRef(id, 0, id + 1);
  store.WriteRef(12, 0, 1);
  VerifierOptions options;
  options.check_reachability_agreement = false;
  ASSERT_TRUE(VerifyHeap(store, options).ok());
  // Rebuilding from the primary slot arena must reproduce exactly the
  // derived state incremental maintenance has been keeping.
  store.RebuildDerivedState();
  VerifierReport vr = VerifyHeap(store, options);
  EXPECT_TRUE(vr.ok()) << vr.Summary();
}

// A chaos SimConfig small enough for unit tests: silent corruption of
// every kind plus the scrubber and auto-repair.
SimConfig ChaosConfig() {
  SimConfig cfg;
  cfg.store.partition_bytes = 16 * 1024;
  cfg.store.page_bytes = 2 * 1024;
  cfg.store.buffer_pages = 8;
  cfg.preamble_collections = 3;
  cfg.policy = PolicyKind::kSaga;
  cfg.saga.garbage_frac = 0.10;
  cfg.store.fault.bitflip_prob = 0.01;
  cfg.store.fault.decay_prob = 0.005;
  cfg.store.fault.decay_latency = 32;
  cfg.store.fault.dead_page_prob = 0.002;
  cfg.store.fault.dead_partition_prob = 0.2;
  cfg.scrub_interval_events = 64;
  cfg.scrub_pages_per_quantum = 8;
  return cfg;
}

TEST(SelfHealingEndToEndTest, ChaosRunDetectsQuarantinesAndRepairs) {
  SimResult r = RunOo7Once(ChaosConfig(), Oo7Params::Tiny(), 3);
  // The plan's rates are high enough that the run exercised injection,
  // detection and the repair pipeline.
  EXPECT_GT(r.bitflips_injected + r.decays_armed + r.device_faults, 0u);
  EXPECT_GT(r.checksum_failures + r.device_faults, 0u);
  EXPECT_GT(r.pages_scrubbed, 0u);
  EXPECT_GT(r.partitions_quarantined, 0u);
  // End-of-run repair guarantees nothing stays out of service, and the
  // log records one entry per quarantine with a closed repair window.
  EXPECT_EQ(r.partitions_quarantined, r.partitions_repaired);
  ASSERT_EQ(r.quarantine_log.size(), r.partitions_quarantined);
  for (const QuarantineEvent& e : r.quarantine_log) {
    EXPECT_GT(e.detected_event, 0u);
    EXPECT_GE(e.repaired_event, e.detected_event);
  }
  EXPECT_GT(r.repair_pages_rewritten, 0u);
}

TEST(SelfHealingEndToEndTest, ChaosSweepsMatchAcrossThreadCounts) {
  SimConfig cfg = ChaosConfig();
  Oo7Params params = Oo7Params::Tiny();
  AggregateResult serial = RunOo7Many(cfg, params, 100, 6, /*threads=*/1);
  AggregateResult parallel = RunOo7Many(cfg, params, 100, 6, /*threads=*/4);
  ASSERT_EQ(serial.runs.size(), parallel.runs.size());
  for (size_t i = 0; i < serial.runs.size(); ++i) {
    const SimResult& a = serial.runs[i];
    const SimResult& b = parallel.runs[i];
    EXPECT_EQ(a.collections, b.collections) << i;
    EXPECT_EQ(a.clock.app_io, b.clock.app_io) << i;
    EXPECT_EQ(a.clock.gc_io, b.clock.gc_io) << i;
    EXPECT_EQ(a.checksum_failures, b.checksum_failures) << i;
    EXPECT_EQ(a.pages_scrubbed, b.pages_scrubbed) << i;
    EXPECT_EQ(a.scrub_detections, b.scrub_detections) << i;
    EXPECT_EQ(a.partitions_quarantined, b.partitions_quarantined) << i;
    EXPECT_EQ(a.partitions_repaired, b.partitions_repaired) << i;
    EXPECT_EQ(a.repair_pages_rewritten, b.repair_pages_rewritten) << i;
    EXPECT_EQ(a.collections_aborted_corrupt,
              b.collections_aborted_corrupt) << i;
    ASSERT_EQ(a.quarantine_log.size(), b.quarantine_log.size()) << i;
    for (size_t j = 0; j < a.quarantine_log.size(); ++j) {
      EXPECT_EQ(a.quarantine_log[j].detected_event,
                b.quarantine_log[j].detected_event) << i << "," << j;
      EXPECT_EQ(a.quarantine_log[j].partition,
                b.quarantine_log[j].partition) << i << "," << j;
      EXPECT_EQ(a.quarantine_log[j].repaired_event,
                b.quarantine_log[j].repaired_event) << i << "," << j;
    }
  }
}

TEST(SelfHealingEndToEndTest, ScrubbingHealthyMediaDetectsNothing) {
  SimConfig cfg = ChaosConfig();
  cfg.store.fault = FaultPlan{};  // healthy media, scrubber still on
  SimResult r = RunOo7Once(cfg, Oo7Params::Tiny(), 3);
  EXPECT_GT(r.pages_scrubbed, 0u);
  EXPECT_EQ(r.scrub_detections, 0u);
  EXPECT_EQ(r.checksum_failures, 0u);
  EXPECT_EQ(r.partitions_quarantined, 0u);
  EXPECT_EQ(r.collections_aborted_corrupt, 0u);
  EXPECT_TRUE(r.quarantine_log.empty());
}

}  // namespace
}  // namespace odbgc
