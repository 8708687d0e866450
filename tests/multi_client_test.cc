#include <gtest/gtest.h>

#include <vector>

#include "oo7/generator.h"
#include "sim/multi_client.h"
#include "sim/simulation.h"
#include "storage/reachability.h"
#include "tests/replay_test_util.h"
#include "workloads/synthetic.h"

namespace odbgc {
namespace {

StoreConfig SmallStore() {
  StoreConfig cfg;
  cfg.partition_bytes = 16 * 1024;
  cfg.page_bytes = 2 * 1024;
  cfg.buffer_pages = 8;
  return cfg;
}

Trace TinyOo7(uint64_t seed) {
  Oo7Generator gen(Oo7Params::Tiny(), seed);
  return gen.GenerateFullApplication();
}

Trace SmallChurn(uint64_t seed) {
  UniformChurnOptions o;
  o.seed = seed;
  o.cycles = 2000;
  o.list_count = 8;
  o.target_length = 16;
  return MakeUniformChurn(o);
}

TEST(RemapTest, ShiftsEveryIdField) {
  Trace t;
  t.Append(CreateEvent(1, 100, 2, /*near_hint=*/0));
  t.Append(CreateEvent(2, 100, 1, /*near_hint=*/1));
  t.Append(AddRootEvent(1));
  t.Append(WriteRefEvent(1, 0, 2));
  t.Append(WriteRefEvent(1, 1, 0));  // null target stays null
  t.Append(ReadEvent(2));
  t.Append(UpdateEvent(2));
  t.Append(GarbageMarkEvent(100, 1));
  t.Append(PhaseMarkEvent(Phase::kReorg1));

  Trace r = RemapObjectIds(t, 1000);
  EXPECT_EQ(r[0].a, 1001u);
  EXPECT_EQ(r[0].d, 0u);  // null hint stays null
  EXPECT_EQ(r[1].a, 1002u);
  EXPECT_EQ(r[1].d, 1001u);  // hint remapped
  EXPECT_EQ(r[2].a, 1001u);  // root
  EXPECT_EQ(r[3].a, 1001u);
  EXPECT_EQ(r[3].c, 1002u);
  EXPECT_EQ(r[4].c, 0u);  // null target
  EXPECT_EQ(r[5].a, 1002u);
  EXPECT_EQ(r[6].a, 1002u);
  EXPECT_EQ(r[7].a, 100u);  // marker bytes untouched
  EXPECT_EQ(r[8].a, static_cast<uint32_t>(Phase::kReorg1));
}

TEST(RemapTest, MaxObjectId) {
  Trace t;
  t.Append(CreateEvent(7, 100, 1));
  t.Append(WriteRefEvent(7, 0, 9));
  EXPECT_EQ(MaxObjectId(t), 9u);
  EXPECT_EQ(MaxObjectId(Trace{}), 0u);
}

TEST(InterleaveTest, PreservesEveryEvent) {
  Trace a = TinyOo7(1);
  Trace b = SmallChurn(2);
  Trace mix = InterleaveClients({a, b}, /*chunk=*/50);
  EXPECT_EQ(mix.size(), a.size() + b.size());
  // Per-client order is preserved: project client ids back out.
  uint32_t offset = MaxObjectId(a) + 1;
  size_t ai = 0;
  size_t bi = 0;
  Trace a_remap = RemapObjectIds(a, 0);
  Trace b_remap = RemapObjectIds(b, offset);
  for (const TraceEvent& e : mix.events()) {
    if (ai < a_remap.size() && e == a_remap[ai]) {
      ++ai;
    } else {
      ASSERT_LT(bi, b_remap.size());
      ASSERT_EQ(e, b_remap[bi]);
      ++bi;
    }
  }
  EXPECT_EQ(ai, a.size());
  EXPECT_EQ(bi, b.size());
}

TEST(InterleaveTest, MarkersStayConsistentOnBareReplay) {
  Trace mix = InterleaveClients({TinyOo7(3), SmallChurn(4)}, 25);
  ObjectStore store(SmallStore());
  ReplayIntoStore(mix, &store);
  ReachabilityResult scan = ScanReachability(store);
  EXPECT_EQ(scan.unreachable_bytes, store.actual_garbage_bytes());
}

TEST(InterleaveTest, SafeUnderCollectionAtEveryChunkSize) {
  // The create->link safe-point rule must hold for any slicing.
  for (uint32_t chunk : {1u, 3u, 17u, 100u}) {
    Trace mix = InterleaveClients({TinyOo7(5), SmallChurn(6)}, chunk);
    SimConfig cfg;
    cfg.store = SmallStore();
    cfg.policy = PolicyKind::kFixedRate;
    cfg.fixed_rate_overwrites = 30;
    Simulation sim(cfg);
    SimResult r = sim.Run(mix);
    EXPECT_GT(r.collections, 0u) << "chunk=" << chunk;
    ReachabilityResult scan = ScanReachability(sim.store());
    EXPECT_EQ(scan.unreachable_bytes, sim.store().actual_garbage_bytes())
        << "chunk=" << chunk;
  }
}

TEST(InterleaveTest, ThreeClients) {
  Trace mix =
      InterleaveClients({TinyOo7(7), SmallChurn(8), SmallChurn(9)}, 40);
  ObjectStore store(SmallStore());
  ReplayIntoStore(mix, &store);
  ReachabilityResult scan = ScanReachability(store);
  EXPECT_EQ(scan.unreachable_bytes, store.actual_garbage_bytes());
}

TEST(MultiClientSimulationTest, SaioHoldsBudgetOnMixedClients) {
  Trace mix = InterleaveClients({TinyOo7(10), SmallChurn(11)}, 50);
  SimConfig cfg;
  cfg.store = SmallStore();
  cfg.policy = PolicyKind::kSaio;
  cfg.saio_frac = 0.15;
  cfg.saio_bootstrap_app_io = 300;
  cfg.preamble_collections = 3;
  SimResult r = RunSimulation(cfg, mix);
  ASSERT_TRUE(r.window_opened);
  EXPECT_NEAR(r.achieved_gc_io_pct, 15.0, 3.0);
}


TEST(InterleaveTest, HugeChunkDegeneratesToConcatenation) {
  Trace a = TinyOo7(20);
  Trace b = SmallChurn(21);
  Trace mix = InterleaveClients({a, b}, /*chunk=*/10000000);
  ASSERT_EQ(mix.size(), a.size() + b.size());
  // All of A first (ids unshifted), then all of B.
  Trace b_remap = RemapObjectIds(b, MaxObjectId(a) + 1);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(mix[i], a[i]);
  for (size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(mix[a.size() + i], b_remap[i]);
  }
}

TEST(InterleaveTest, SingleClientIsIdentityModuloNothing) {
  Trace a = SmallChurn(22);
  Trace mix = InterleaveClients({a}, 7);
  ASSERT_EQ(mix.size(), a.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(mix[i], a[i]);
}

TEST(RemapTest, ZeroOffsetIsIdentity) {
  Trace a = SmallChurn(23);
  Trace r = RemapObjectIds(a, 0);
  ASSERT_EQ(r.size(), a.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(r[i], a[i]);
}

TEST(InterleaveTest, IdRangeOverflowIsRejected) {
  // Each client alone fits, but the second one's range would wrap past
  // 2^32 onto the first client's ids.
  Trace t;
  t.Append(CreateEvent(0x80000000u, 64, 0));
  t.Append(AddRootEvent(0x80000000u));
  EXPECT_DEATH(InterleaveClients({t, t}, 10),
               "client id ranges overflow the 32-bit id space");
}

}  // namespace
}  // namespace odbgc
