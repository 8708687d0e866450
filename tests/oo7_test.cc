#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "oo7/generator.h"
#include "oo7/params.h"
#include "storage/object_store.h"
#include "storage/reachability.h"
#include "tests/replay_test_util.h"
#include "trace/trace.h"

namespace odbgc {
namespace {

StoreConfig BigStore() {
  StoreConfig cfg;
  cfg.partition_bytes = 96 * 1024;
  cfg.page_bytes = 8 * 1024;
  cfg.buffer_pages = 12;
  return cfg;
}

TEST(Oo7ParamsTest, Table1Presets) {
  Oo7Params sp = Oo7Params::SmallPrime();
  EXPECT_EQ(sp.num_atomic_per_comp, 20u);
  EXPECT_EQ(sp.num_conn_per_atomic, 3u);
  EXPECT_EQ(sp.document_bytes, 2000u);
  EXPECT_EQ(sp.manual_kbytes, 100u);
  EXPECT_EQ(sp.num_comp_per_module, 150u);
  EXPECT_EQ(sp.num_assm_per_assm, 3u);
  EXPECT_EQ(sp.num_assm_levels, 6u);
  EXPECT_EQ(sp.num_comp_per_assm, 3u);
  EXPECT_EQ(sp.num_modules, 1u);

  Oo7Params s = Oo7Params::Small();
  EXPECT_EQ(s.num_comp_per_module, 500u);
  EXPECT_EQ(s.num_assm_levels, 7u);
}

TEST(Oo7ParamsTest, DerivedCounts) {
  Oo7Params p = Oo7Params::SmallPrime();
  // 1 + 3 + 9 + 27 + 81 + 243 = 364 assemblies, 243 leaves.
  EXPECT_EQ(p.assemblies_per_module(), 364u);
  EXPECT_EQ(p.base_assemblies_per_module(), 243u);
  EXPECT_EQ(p.doc_nodes_per_document(), 100u);
  EXPECT_EQ(p.manual_sections_per_module(), 25u);
}

TEST(Oo7ParamsTest, DatabaseSizeMatchesPaperRange) {
  // The paper: "the test database ranges from approximately 3.7 to 7.9
  // megabytes" across connectivity 3..9 (Section 3.3).
  Oo7Params p3 = Oo7Params::SmallPrime();
  double mb3 = static_cast<double>(p3.expected_database_bytes()) / 1.0e6;
  EXPECT_NEAR(mb3, 3.7, 0.25);

  Oo7Params p9 = Oo7Params::SmallPrime();
  p9.num_conn_per_atomic = 9;
  double mb9 = static_cast<double>(p9.expected_database_bytes()) / 1.0e6;
  EXPECT_NEAR(mb9, 7.9, 0.4);
}

TEST(Oo7ParamsTest, AverageObjectSizeMatchesPaper) {
  // "object size is 133 bytes on average" (Section 2.1).
  Oo7Params p = Oo7Params::SmallPrime();
  double avg = static_cast<double>(p.expected_database_bytes()) /
               static_cast<double>(p.expected_object_count());
  EXPECT_NEAR(avg, 133.0, 8.0);
}

TEST(Oo7GeneratorTest, GenDbMatchesExpectedAggregates) {
  Oo7Params p = Oo7Params::Tiny();
  Oo7Generator gen(p, 1);
  Trace trace;
  gen.GenDb(&trace);
  ObjectStore store(BigStore());
  ReplayIntoStore(trace, &store);
  EXPECT_EQ(store.used_bytes(), p.expected_database_bytes());
  EXPECT_EQ(store.live_object_count(), p.expected_object_count());
}

TEST(Oo7GeneratorTest, GenDbCreatesNoGarbage) {
  Oo7Generator gen(Oo7Params::Tiny(), 2);
  Trace trace;
  gen.GenDb(&trace);
  ObjectStore store(BigStore());
  ReplayIntoStore(trace, &store);
  EXPECT_EQ(store.actual_garbage_bytes(), 0u);
  ReachabilityResult r = ScanReachability(store);
  EXPECT_EQ(r.unreachable_bytes, 0u);
}

TEST(Oo7GeneratorTest, GenDbProducesBenignOverwrites) {
  // Head insertions during construction overwrite non-null pointers
  // (advancing the overwrite clock) without creating garbage.
  Oo7Generator gen(Oo7Params::Tiny(), 3);
  Trace trace;
  gen.GenDb(&trace);
  ObjectStore store(BigStore());
  ReplayIntoStore(trace, &store);
  EXPECT_GT(store.pointer_overwrites(), 0u);
  EXPECT_EQ(store.actual_garbage_bytes(), 0u);
}

TEST(Oo7GeneratorTest, GroundTruthMarkersMatchReachabilityAfterReorg1) {
  Oo7Generator gen(Oo7Params::Tiny(), 4);
  Trace trace;
  gen.GenDb(&trace);
  gen.Reorg1(&trace);
  ObjectStore store(BigStore());
  ReplayIntoStore(trace, &store);
  ReachabilityResult r = ScanReachability(store);
  EXPECT_EQ(r.unreachable_bytes, store.actual_garbage_bytes());
  EXPECT_GT(store.actual_garbage_bytes(), 0u);
}

TEST(Oo7GeneratorTest, GroundTruthMarkersMatchReachabilityFullApp) {
  Oo7Generator gen(Oo7Params::Tiny(), 5);
  Trace trace = gen.GenerateFullApplication();
  ObjectStore store(BigStore());
  ReplayIntoStore(trace, &store);
  ReachabilityResult r = ScanReachability(store);
  EXPECT_EQ(r.unreachable_bytes, store.actual_garbage_bytes());
}

TEST(Oo7GeneratorTest, ReorgPreservesAtomicPopulation) {
  Oo7Params p = Oo7Params::Tiny();
  Oo7Generator gen(p, 6);
  Trace trace;
  gen.GenDb(&trace);
  size_t atomics_before = gen.live_atomic_count();
  size_t conns_before = gen.live_connection_count();
  gen.Reorg1(&trace);
  EXPECT_EQ(gen.live_atomic_count(), atomics_before);
  EXPECT_EQ(gen.live_connection_count(), conns_before);
  gen.Reorg2(&trace);
  EXPECT_EQ(gen.live_atomic_count(), atomics_before);
}

TEST(Oo7GeneratorTest, TraverseIsReadOnly) {
  Oo7Generator gen(Oo7Params::Tiny(), 7);
  Trace setup;
  gen.GenDb(&setup);
  Trace traversal;
  gen.Traverse(&traversal);
  EXPECT_GT(traversal.size(), 0u);
  for (const TraceEvent& e : traversal.events()) {
    EXPECT_EQ(e.kind, EventKind::kRead);
  }
}

TEST(Oo7GeneratorTest, TraverseVisitsEveryAtomicPart) {
  Oo7Params p = Oo7Params::Tiny();
  Oo7Generator gen(p, 8);
  Trace setup;
  gen.GenDb(&setup);
  Trace traversal;
  gen.Traverse(&traversal);
  // Gather read ids; every atomic part created in GenDB must appear.
  std::unordered_set<ObjectId> read_ids;
  for (const TraceEvent& e : traversal.events()) read_ids.insert(e.a);
  size_t atomics_seen = 0;
  for (const TraceEvent& e : setup.events()) {
    if (e.kind == EventKind::kCreate && e.b == kAtomicBytes) {
      EXPECT_TRUE(read_ids.count(e.a) > 0) << "atomic " << e.a << " missed";
      ++atomics_seen;
    }
  }
  EXPECT_EQ(atomics_seen,
            static_cast<size_t>(p.num_comp_per_module) * p.num_atomic_per_comp);
}

TEST(Oo7GeneratorTest, DeterministicForSameSeed) {
  Oo7Generator a(Oo7Params::Tiny(), 99);
  Oo7Generator b(Oo7Params::Tiny(), 99);
  Trace ta = a.GenerateFullApplication();
  Trace tb = b.GenerateFullApplication();
  ASSERT_EQ(ta.size(), tb.size());
  for (size_t i = 0; i < ta.size(); ++i) {
    ASSERT_EQ(ta[i], tb[i]) << "event " << i;
  }
}

TEST(Oo7GeneratorTest, DifferentSeedsDiffer) {
  Oo7Generator a(Oo7Params::Tiny(), 1);
  Oo7Generator b(Oo7Params::Tiny(), 2);
  Trace ta = a.GenerateFullApplication();
  Trace tb = b.GenerateFullApplication();
  bool differ = ta.size() != tb.size();
  if (!differ) {
    for (size_t i = 0; i < ta.size(); ++i) {
      if (!(ta[i] == tb[i])) {
        differ = true;
        break;
      }
    }
  }
  EXPECT_TRUE(differ);
}

TEST(Oo7GeneratorTest, GarbagePerOverwriteExceedsNaiveHeuristic) {
  // Section 2.1: the static heuristic predicts ~33 bytes of garbage per
  // overwrite (133 / 4); the application actually creates several times
  // more because single overwrites detach whole clusters.
  Oo7Generator gen(Oo7Params::SmallPrime(), 10);
  Trace trace;
  gen.GenDb(&trace);
  ObjectStore store(BigStore());
  ReplayIntoStore(trace, &store);
  uint64_t ow_before = store.pointer_overwrites();
  Trace reorg;
  gen.Reorg1(&reorg);
  ReplayIntoStore(reorg, &store);
  uint64_t overwrites = store.pointer_overwrites() - ow_before;
  double garbage_per_overwrite =
      static_cast<double>(store.actual_garbage_bytes()) /
      static_cast<double>(overwrites);
  EXPECT_GT(garbage_per_overwrite, 2.0 * (133.0 / 4.0));
}

TEST(Oo7GeneratorTest, TraverseT2EmitsUpdates) {
  Oo7Params p = Oo7Params::Tiny();
  Oo7Generator gen(p, 21);
  Trace setup;
  gen.GenDb(&setup);
  Trace t2;
  gen.TraverseT2(&t2, /*updates_per_part=*/4);
  Trace::Summary s = t2.Summarize();
  EXPECT_GT(s.updates, 0u);
  EXPECT_EQ(s.write_refs, 0u);  // attribute updates, not pointer writes
  EXPECT_EQ(s.garbage_marks, 0u);
  // 4 updates per visited part; visits = reads of atomic parts.
  EXPECT_EQ(s.updates % 4, 0u);

  // Replaying T2 dirties pages but never advances the overwrite clock.
  ObjectStore store(BigStore());
  ReplayIntoStore(setup, &store);
  uint64_t ow = store.pointer_overwrites();
  uint64_t writes_before = store.io_stats().app_writes;
  ReplayIntoStore(t2, &store);
  EXPECT_EQ(store.pointer_overwrites(), ow);
  EXPECT_GE(store.io_stats().app_writes, writes_before);
}

TEST(Oo7GeneratorTest, TraverseT6TouchesFirstAtomicOnly) {
  Oo7Params p = Oo7Params::Tiny();
  Oo7Generator gen(p, 22);
  Trace setup;
  gen.GenDb(&setup);
  Trace t1;
  gen.Traverse(&t1);
  Trace t6;
  gen.TraverseT6(&t6);
  EXPECT_GT(t6.size(), 0u);
  EXPECT_LT(t6.size(), t1.size() / 2);  // sparse vs full traversal
  for (const TraceEvent& e : t6.events()) {
    EXPECT_EQ(e.kind, EventKind::kRead);
  }
}

TEST(Oo7GeneratorTest, StructuralDeleteDetachesWholeComposites) {
  Oo7Params p = Oo7Params::Tiny();
  Oo7Generator gen(p, 23);
  Trace trace;
  gen.GenDb(&trace);
  size_t comps_before = gen.live_composite_count();
  int deleted = gen.StructuralDelete(&trace, 3);
  EXPECT_EQ(deleted, 3);
  EXPECT_EQ(gen.live_composite_count(), comps_before - 3);

  ObjectStore store(BigStore());
  ReplayIntoStore(trace, &store);
  ReachabilityResult scan = ScanReachability(store);
  EXPECT_EQ(scan.unreachable_bytes, store.actual_garbage_bytes());
  // Each composite cluster includes the document: a "very large object"
  // detached by a handful of overwrites (the Section 2.1 remark).
  uint64_t per_comp_min =
      kCompositeBytes + p.doc_nodes_per_document() * kDocNodeBytes +
      p.num_atomic_per_comp * kAtomicBytes;
  EXPECT_GE(store.actual_garbage_bytes(), 3 * per_comp_min);
}

TEST(Oo7GeneratorTest, StructuralInsertGrowsDatabase) {
  Oo7Params p = Oo7Params::Tiny();
  Oo7Generator gen(p, 24);
  Trace trace;
  gen.GenDb(&trace);
  size_t comps_before = gen.live_composite_count();
  int inserted = gen.StructuralInsert(&trace, 4);
  EXPECT_EQ(inserted, 4);
  EXPECT_EQ(gen.live_composite_count(), comps_before + 4);

  ObjectStore store(BigStore());
  ReplayIntoStore(trace, &store);
  // Nothing inserted is garbage.
  ReachabilityResult scan = ScanReachability(store);
  EXPECT_EQ(scan.unreachable_bytes, 0u);
  EXPECT_GT(store.used_bytes(), p.expected_database_bytes());
}

TEST(Oo7GeneratorTest, StructuralChurnRoundTripsConsistently) {
  Oo7Params p = Oo7Params::Tiny();
  Oo7Generator gen(p, 25);
  Trace trace;
  gen.GenDb(&trace);
  for (int round = 0; round < 3; ++round) {
    gen.StructuralDelete(&trace, 2);
    gen.StructuralInsert(&trace, 2);
    gen.Reorg1(&trace);  // reorganize the surviving composites too
  }
  ObjectStore store(BigStore());
  ReplayIntoStore(trace, &store);
  ReachabilityResult scan = ScanReachability(store);
  EXPECT_EQ(scan.unreachable_bytes, store.actual_garbage_bytes());
}

TEST(Oo7GeneratorTest, StructuralInsertRespectsSlotCapacity) {
  Oo7Params p = Oo7Params::Tiny();
  Oo7Generator gen(p, 26);
  Trace trace;
  gen.GenDb(&trace);
  // Tiny has 9 base assemblies x 4 spare slots = 36 insert slots.
  int inserted = gen.StructuralInsert(&trace, 1000);
  EXPECT_LE(inserted, 36);
  EXPECT_GT(inserted, 0);
}

TEST(Oo7GeneratorTest, PhaseMarksPresentInFullApplication) {
  Oo7Generator gen(Oo7Params::Tiny(), 11);
  Trace t = gen.GenerateFullApplication();
  std::vector<Phase> phases;
  for (const TraceEvent& e : t.events()) {
    if (e.kind == EventKind::kPhaseMark) {
      phases.push_back(static_cast<Phase>(e.a));
    }
  }
  ASSERT_EQ(phases.size(), 4u);
  EXPECT_EQ(phases[0], Phase::kGenDb);
  EXPECT_EQ(phases[1], Phase::kReorg1);
  EXPECT_EQ(phases[2], Phase::kTraverse);
  EXPECT_EQ(phases[3], Phase::kReorg2);
}

TEST(Oo7GeneratorTest, FullApplicationNeverOutgrowsItsReservation) {
  // GenerateFullApplication allocates its trace once. A trace that
  // outgrew the reservation would have been reallocated to a larger
  // capacity, so capacity == reservation proves it never grew; the
  // reservation may exceed the final size by at most 15%. The id table
  // is reserved the same way.
  const Oo7Params presets[] = {Oo7Params::Tiny(), Oo7Params::SmallPrime(),
                               Oo7Params::Small()};
  for (const Oo7Params& preset : presets) {
    for (uint32_t connectivity : {3u, 6u, 9u}) {
      Oo7Params p = preset;
      p.num_conn_per_atomic = connectivity;
      const Oo7Generator::Reservation reserve =
          Oo7Generator::FullApplicationReserve(p);
      for (uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(testing::Message()
                     << "comps " << p.num_comp_per_module << " connectivity "
                     << connectivity << " seed " << seed);
        Oo7Generator gen(p, seed);
        Trace t = gen.GenerateFullApplication();
        EXPECT_EQ(t.capacity(), reserve.events);
        EXPECT_LE(t.size(), reserve.events);
        EXPECT_LE(reserve.events * 100, t.size() * 115);
        EXPECT_LE(gen.next_object_id(), reserve.ids + 1);
      }
    }
  }
  // The idle mark gets its own slot.
  Trace idle = Oo7Generator(Oo7Params::Tiny(), 1).GenerateFullApplication(50);
  EXPECT_EQ(idle.capacity(),
            Oo7Generator::FullApplicationReserve(Oo7Params::Tiny()).events +
                1);
  // Small's trace stays below glibc's 32 MiB ceiling for its dynamic
  // mmap threshold, so a regenerated trace reuses the freed heap instead
  // of faulting in a fresh mapping.
  EXPECT_LT(Oo7Generator::FullApplicationReserve(Oo7Params::Small()).events *
                sizeof(TraceEvent),
            size_t{32} << 20);
}

TEST(Oo7GeneratorTest, SmallPrimeTraceSizeIsReasonable) {
  Oo7Generator gen(Oo7Params::SmallPrime(), 12);
  Trace t = gen.GenerateFullApplication();
  Trace::Summary s = t.Summarize();
  // ~27.5k initial objects + 2 * 1500 reinserted parts (each with 3
  // connections).
  EXPECT_GT(s.creates, 27000u);
  EXPECT_LT(s.creates, 60000u);
  EXPECT_GT(s.write_refs, s.creates / 2);
  EXPECT_GT(s.reads, 10000u);
}

}  // namespace
}  // namespace odbgc
