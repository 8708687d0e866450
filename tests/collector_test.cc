#include <gtest/gtest.h>

#include <cstdint>

#include "gc/collector.h"
#include "oo7/generator.h"
#include "storage/object_store.h"
#include "storage/reachability.h"
#include "tests/replay_test_util.h"

namespace odbgc {
namespace {

StoreConfig SmallStore() {
  StoreConfig cfg;
  cfg.partition_bytes = 4096;
  cfg.page_bytes = 512;
  cfg.buffer_pages = 8;
  // These fixtures wire graphs by hand and drop references deliberately;
  // there is no application holding the newest allocation.
  cfg.pin_newest_allocation = false;
  return cfg;
}

TEST(CollectorTest, ReclaimsUnreachableKeepsReachable) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 1);  // root
  store.CreateObject(2, 100, 0);  // live via 1
  store.CreateObject(3, 100, 0);  // garbage
  store.AddRoot(1);
  store.WriteRef(1, 0, 2);

  Collector gc;
  CollectionReport report = gc.Collect(store, 0);
  EXPECT_EQ(report.bytes_before, 300u);
  EXPECT_EQ(report.bytes_reclaimed, 100u);
  EXPECT_EQ(report.bytes_live, 200u);
  EXPECT_EQ(report.objects_reclaimed, 1u);
  EXPECT_EQ(report.objects_live, 2u);
  EXPECT_TRUE(store.Exists(1));
  EXPECT_TRUE(store.Exists(2));
  EXPECT_FALSE(store.Exists(3));
  EXPECT_EQ(store.used_bytes(), 200u);
}

TEST(CollectorTest, CompactsSurvivorsFromOffsetZero) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 1);  // garbage (no root)
  store.CreateObject(2, 100, 0);  // root at offset 100
  store.AddRoot(2);
  Collector gc;
  gc.Collect(store, 0);
  EXPECT_EQ(store.object(2).offset, 0u);
  EXPECT_EQ(store.partition(0).used(), 100u);
}

TEST(CollectorTest, BreadthFirstCopyOrderFromRoots) {
  ObjectStore store(SmallStore());
  // root(1) -> {2, 3}; 2 -> 4. BFS order: 1, 2, 3, 4.
  store.CreateObject(1, 10, 2);
  store.CreateObject(2, 10, 1);
  store.CreateObject(3, 10, 0);
  store.CreateObject(4, 10, 0);
  store.AddRoot(1);
  store.WriteRef(1, 0, 2);
  store.WriteRef(1, 1, 3);
  store.WriteRef(2, 0, 4);
  Collector gc;
  gc.Collect(store, 0);
  EXPECT_EQ(store.object(1).offset, 0u);
  EXPECT_EQ(store.object(2).offset, 10u);
  EXPECT_EQ(store.object(3).offset, 20u);
  EXPECT_EQ(store.object(4).offset, 30u);
}

TEST(CollectorTest, ExternallyReferencedObjectsAreRoots) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 4000, 1);  // fills partition 0; root
  store.CreateObject(2, 100, 0);   // partition 1, only referenced by 1
  store.AddRoot(1);
  store.WriteRef(1, 0, 2);
  ASSERT_EQ(store.object(2).partition, 1u);
  Collector gc;
  CollectionReport report = gc.Collect(store, 1);
  // Object 2 is kept alive by the external reference from partition 0.
  EXPECT_TRUE(store.Exists(2));
  EXPECT_EQ(report.bytes_reclaimed, 0u);
}

TEST(CollectorTest, PointersLeavingPartitionNotTraversed) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 4000, 1);  // partition 0, root
  store.CreateObject(2, 100, 1);   // partition 1, live (referenced by 1)
  store.CreateObject(3, 100, 0);   // partition 1, garbage
  store.AddRoot(1);
  store.WriteRef(1, 0, 2);
  // 2 points back into partition 0 (cross-partition, must not confuse
  // the collection of partition 1).
  store.WriteRef(2, 0, 1);
  Collector gc;
  CollectionReport report = gc.Collect(store, 1);
  EXPECT_TRUE(store.Exists(2));
  EXPECT_FALSE(store.Exists(3));
  EXPECT_EQ(report.bytes_reclaimed, 100u);
  EXPECT_TRUE(store.Exists(1));  // untouched
}

TEST(CollectorTest, FloatingCrossPartitionGarbageCollectedInTwoSteps) {
  // Garbage in partition 1 referenced only by garbage in partition 0:
  // collecting partition 1 first keeps it (conservative), collecting
  // partition 0 then partition 1 reclaims everything.
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 0);   // root, partition 0
  store.CreateObject(2, 3996, 1);  // garbage, partition 0 (fills it)
  store.CreateObject(3, 100, 0);   // partition 1, referenced only by 2
  store.AddRoot(1);
  store.WriteRef(2, 0, 3);
  ASSERT_EQ(store.object(3).partition, 1u);

  Collector gc;
  CollectionReport r1 = gc.Collect(store, 1);
  EXPECT_EQ(r1.bytes_reclaimed, 0u);  // 3 survives: external ref from 2
  EXPECT_TRUE(store.Exists(3));

  gc.Collect(store, 0);  // reclaims 2, dropping its ref into partition 1
  EXPECT_FALSE(store.Exists(2));
  CollectionReport r2 = gc.Collect(store, 1);
  EXPECT_EQ(r2.bytes_reclaimed, 100u);
  EXPECT_FALSE(store.Exists(3));
}

TEST(CollectorTest, ResetsOverwriteCounter) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 1);
  store.CreateObject(2, 100, 0);
  store.CreateObject(3, 100, 0);
  store.AddRoot(1);
  store.WriteRef(1, 0, 2);
  store.WriteRef(1, 0, 3);  // overwrite charged to partition 0
  ASSERT_EQ(store.partition(0).overwrites(), 1u);
  Collector gc;
  CollectionReport report = gc.Collect(store, 0);
  EXPECT_EQ(report.overwrites_at_collection, 1u);
  EXPECT_EQ(store.partition(0).overwrites(), 0u);
  EXPECT_EQ(store.partition(0).collections(), 1u);
}

TEST(CollectorTest, CollectionCostsGcIo) {
  StoreConfig cfg = SmallStore();
  cfg.buffer_pages = 2;  // partition does not fit: the scan must do I/O
  ObjectStore store(cfg);
  store.CreateObject(1, 2000, 0);
  store.AddRoot(1);
  Collector gc;
  CollectionReport report = gc.Collect(store, 0);
  EXPECT_GT(report.gc_io(), 0u);
  EXPECT_EQ(store.io_stats().gc_total(), report.gc_io());
}

TEST(CollectorTest, ExternalReferencersPagesTouchedOnRelocation) {
  StoreConfig cfg = SmallStore();
  cfg.buffer_pages = 2;  // tiny buffer so touches become I/O
  ObjectStore store(cfg);
  store.CreateObject(1, 4000, 1);  // partition 0, root, references 2
  store.CreateObject(2, 100, 0);   // partition 1
  store.AddRoot(1);
  store.WriteRef(1, 0, 2);
  uint64_t gc_writes_before = store.io_stats().gc_writes;
  Collector gc;
  gc.Collect(store, 1);
  // Updating the pointer in object 1 dirties partition-0 pages under GC
  // context; with a 2-frame buffer those must flow through eviction by
  // the end of the collection or remain dirty in the pool. At minimum
  // the collection performed GC reads of partition 0's page.
  EXPECT_GT(store.io_stats().gc_reads, 0u);
  (void)gc_writes_before;
}

TEST(CollectorTest, EmptyPartitionCollectionIsHarmless) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 4000, 0);  // partition 0 full
  store.CreateObject(2, 100, 0);   // partition 1
  store.AddRoot(1);
  store.AddRoot(2);
  Collector gc;
  gc.Collect(store, 1);
  CollectionReport again = gc.Collect(store, 1);
  EXPECT_EQ(again.bytes_reclaimed, 0u);
  EXPECT_TRUE(store.Exists(2));
}

TEST(CollectorTest, ReverseIndexConsistentAfterCollection) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 2);
  store.CreateObject(2, 100, 1);
  store.CreateObject(3, 100, 1);  // garbage referencing 2
  store.CreateObject(4, 100, 0);
  store.AddRoot(1);
  store.WriteRef(1, 0, 2);
  store.WriteRef(2, 0, 4);
  store.WriteRef(3, 0, 2);  // garbage -> live
  Collector gc;
  gc.Collect(store, 0);
  // 3 destroyed; its in_ref entry on 2 must be gone.
  EXPECT_EQ(store.in_refs(2).size(), 1u);
  EXPECT_EQ(store.in_refs(2)[0].src, 1u);
  // Everything reachable must still be reachable.
  ReachabilityResult r = ScanReachability(store);
  EXPECT_TRUE(r.reachable[1]);
  EXPECT_TRUE(r.reachable[2]);
  EXPECT_TRUE(r.reachable[4]);
  EXPECT_EQ(r.unreachable_bytes, 0u);
}

TEST(CollectorTest, GroundTruthCollectedBytesUpdated) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 0);
  store.CreateObject(2, 100, 0);  // garbage
  store.AddRoot(1);
  store.RecordGarbageCreated(100, 1);  // the host knows 2 is garbage
  Collector gc;
  gc.Collect(store, 0);
  EXPECT_EQ(store.total_garbage_collected(), 100u);
  EXPECT_EQ(store.actual_garbage_bytes(), 0u);
}


TEST(CollectorTest, ImmediateRecollectionIsIdempotent) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 1);
  store.CreateObject(2, 100, 0);
  store.CreateObject(3, 100, 0);  // garbage
  store.AddRoot(1);
  store.WriteRef(1, 0, 2);
  Collector gc;
  CollectionReport first = gc.Collect(store, 0);
  EXPECT_EQ(first.bytes_reclaimed, 100u);
  CollectionReport second = gc.Collect(store, 0);
  EXPECT_EQ(second.bytes_reclaimed, 0u);
  EXPECT_EQ(second.bytes_live, first.bytes_live);
  EXPECT_EQ(store.object(1).offset, 0u);  // layout stable
}

TEST(CollectorTest, RootSurvivesAndCompactsToFront) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 0);  // garbage at offset 0
  store.CreateObject(2, 100, 0);  // root at offset 100
  store.AddRoot(2);
  Collector gc;
  gc.Collect(store, 0);
  EXPECT_TRUE(store.IsRoot(2));
  EXPECT_EQ(store.object(2).offset, 0u);
}

TEST(CollectorTest, MultipleExternalReferencesCountOnce) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 2048, 2);  // partition 0, root, two refs to 3
  store.CreateObject(2, 2040, 1);  // partition 0, also refs 3
  store.CreateObject(3, 100, 0);   // partition 1
  store.AddRoot(1);
  store.AddRoot(2);
  store.WriteRef(1, 0, 3);
  store.WriteRef(1, 1, 3);
  store.WriteRef(2, 0, 3);
  ASSERT_EQ(store.object(3).partition, 1u);
  ASSERT_EQ(store.in_refs(3).size(), 3u);
  Collector gc;
  CollectionReport r = gc.Collect(store, 1);
  EXPECT_EQ(r.objects_live, 1u);
  EXPECT_TRUE(store.Exists(3));
}

TEST(CollectorTest, CollectionsPerformedCounterAdvances) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 0);
  store.AddRoot(1);
  Collector gc;
  EXPECT_EQ(gc.collections_performed(), 0u);
  gc.Collect(store, 0);
  gc.Collect(store, 0);
  EXPECT_EQ(gc.collections_performed(), 2u);
}

// --- Reused collector vs fresh collectors ---
//
// Twin stores driven in lockstep: `reused` keeps one Collector for every
// collection; `fresh` gets a new Collector per call. The reused side's
// scratch (mark bitmap, plan vectors, remembered-set touches) must carry
// nothing from one collection to the next: a leftover shows up as a
// report or store divergence.

// Digest of everything a collection can influence: object placement,
// reverse-index state, partition bookkeeping, and total I/O.
uint64_t StoreDigest(const ObjectStore& store) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (ObjectId id = 1; id <= store.max_object_id(); ++id) {
    if (!store.Exists(id)) {
      mix(0xdead);
      continue;
    }
    const ObjectRecord& rec = store.object(id);
    mix(rec.partition);
    mix(rec.offset);
    mix(rec.xpart_in_refs);
    for (const Slot& sl : store.slots(id)) mix(sl.target);
  }
  for (const Partition& p : store.partitions()) {
    mix(p.used());
    mix(p.overwrites());
    for (ObjectId id : p.objects()) mix(id);
  }
  mix(store.io_stats().gc_reads);
  mix(store.io_stats().gc_writes);
  mix(store.io_stats().app_reads);
  mix(store.io_stats().app_writes);
  mix(store.used_bytes());
  return h;
}

class ReusedCollectorTwin {
 public:
  explicit ReusedCollectorTwin(const StoreConfig& cfg)
      : reused_(cfg), fresh_(cfg) {}

  template <typename Fn>
  void Mutate(Fn fn) {
    fn(&reused_);
    fn(&fresh_);
  }

  void Collect(PartitionId p) {
    const CollectionReport r = reused_gc_.Collect(reused_, p);
    const CollectionReport f = Collector().Collect(fresh_, p);
    EXPECT_EQ(r.bytes_reclaimed, f.bytes_reclaimed)
        << "collection " << collections_ << " of partition " << p;
    EXPECT_EQ(r.objects_live, f.objects_live)
        << "collection " << collections_ << " of partition " << p;
    EXPECT_EQ(r.gc_reads, f.gc_reads)
        << "collection " << collections_ << " of partition " << p;
    EXPECT_EQ(r.gc_writes, f.gc_writes)
        << "collection " << collections_ << " of partition " << p;
    ++collections_;
  }

  void CollectAll() {
    for (PartitionId p = 0; p < reused_.partition_count(); ++p) Collect(p);
  }

  void ExpectSameStores() const {
    EXPECT_EQ(StoreDigest(reused_), StoreDigest(fresh_))
        << "after " << collections_ << " collections";
  }

  const ObjectStore& reused() const { return reused_; }
  uint64_t collections() const { return collections_; }

 private:
  ObjectStore reused_;
  ObjectStore fresh_;
  Collector reused_gc_;
  uint64_t collections_ = 0;
};

TEST(CollectorReuseTest, CrossPartitionChainFreedByAnotherCollection) {
  // root(1) in p0 holds the only reference into p1 that keeps 2 alive; a
  // garbage chain 3 -> 4 crosses p0 -> p1. Collecting p0 destroys 3, the
  // only external referencer of 4, so the next collection of p1 must
  // drop 4 even though the previous one kept it as an externally
  // referenced root.
  ReusedCollectorTwin twin(SmallStore());
  twin.Mutate([](ObjectStore* s) {
    s->CreateObject(1, 3000, 2);  // p0: root
    s->CreateObject(3, 1000, 1);  // p0: garbage head
    s->CreateObject(2, 100, 0);   // p1: live via 1
    s->CreateObject(4, 100, 0);   // p1: garbage, held only by 3
    s->AddRoot(1);
    s->WriteRef(1, 0, 2);
    s->WriteRef(3, 0, 4);
  });
  ASSERT_EQ(twin.reused().object(3).partition, 0u);
  ASSERT_EQ(twin.reused().object(4).partition, 1u);
  twin.Collect(1);  // 4 survives: 3 still references it
  twin.Collect(0);  // destroys 3
  twin.Collect(1);  // 4 is now unreferenced
  EXPECT_FALSE(twin.reused().Exists(4));
  twin.ExpectSameStores();
}

TEST(CollectorReuseTest, CrossPartitionPointerOverwrittenBetweenCollections) {
  // The only reference to 2 (in p1) is a slot of root 1 (in p0); once
  // that slot is cleared, the next collection of p1 must reclaim 2.
  ReusedCollectorTwin twin(SmallStore());
  twin.Mutate([](ObjectStore* s) {
    s->CreateObject(1, 4000, 1);  // p0: root
    s->CreateObject(2, 100, 0);   // p1
    s->AddRoot(1);
    s->WriteRef(1, 0, 2);
  });
  ASSERT_EQ(twin.reused().object(2).partition, 1u);
  twin.Collect(1);
  twin.Mutate([](ObjectStore* s) { s->WriteRef(1, 0, kNullObject); });
  twin.Collect(1);
  EXPECT_FALSE(twin.reused().Exists(2));
  twin.ExpectSameStores();
}

TEST(CollectorReuseTest, RootSetChangesBetweenCollections) {
  // Chain 1 -> 2 -> 3 from root 1, plus a second root 4, all in p0. Each
  // mutation below follows a second, no-op collection, so the reused
  // collector's last plan is of the very partition and survivor list
  // the mutation changes.
  ReusedCollectorTwin twin(SmallStore());
  twin.Mutate([](ObjectStore* s) {
    s->CreateObject(1, 100, 1);
    s->CreateObject(2, 100, 1);
    s->CreateObject(3, 100, 0);
    s->CreateObject(4, 100, 0);
    s->AddRoot(1);
    s->AddRoot(4);
    s->WriteRef(1, 0, 2);
    s->WriteRef(2, 0, 3);
  });
  twin.Collect(0);
  twin.Collect(0);
  // Removing root 4 turns it into garbage.
  twin.Mutate([](ObjectStore* s) { s->RemoveRoot(4); });
  twin.Collect(0);
  EXPECT_FALSE(twin.reused().Exists(4));
  twin.ExpectSameStores();
  twin.Collect(0);
  // Rooting 3 moves it ahead of 2 in the Cheney copy order.
  twin.Mutate([](ObjectStore* s) { s->AddRoot(3); });
  twin.Collect(0);
  EXPECT_EQ(twin.reused().object(3).offset, 100u);
  twin.ExpectSameStores();
}

TEST(CollectorReuseTest, Oo7ReplayWithFrequentCollections) {
  // Every partition is collected after every 8th event of a whole OO7
  // application (about 2,000 collections), with every kind of store
  // mutation landing between them.
  Oo7Generator gen(Oo7Params::Tiny(), 11);
  const Trace trace = gen.GenerateFullApplication();
  StoreConfig cfg;
  cfg.partition_bytes = 16 * 1024;
  cfg.page_bytes = 2 * 1024;
  cfg.buffer_pages = 8;
  ReusedCollectorTwin twin(cfg);
  for (size_t i = 0; i < trace.size(); ++i) {
    twin.Mutate([&](ObjectStore* s) { ApplyToStore(trace[i], s); });
    if (i % 8 == 7) twin.CollectAll();
  }
  EXPECT_GT(twin.collections(), 1000u);
  twin.ExpectSameStores();
}

}  // namespace
}  // namespace odbgc
