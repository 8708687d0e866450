#include <gtest/gtest.h>

#include "storage/object_store.h"
#include "storage/reachability.h"

namespace odbgc {
namespace {

StoreConfig SmallStore() {
  StoreConfig cfg;
  cfg.partition_bytes = 4096;
  cfg.page_bytes = 512;
  cfg.buffer_pages = 8;
  return cfg;
}

TEST(ObjectStoreTest, CreatePlacesAndCountsIo) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 600, 2);
  EXPECT_TRUE(store.Exists(1));
  const ObjectRecord& rec = store.object(1);
  EXPECT_EQ(rec.size, 600u);
  EXPECT_EQ(rec.partition, 0u);
  EXPECT_EQ(rec.offset, 0u);
  EXPECT_EQ(rec.slot_count, 2u);
  EXPECT_EQ(store.used_bytes(), 600u);
  EXPECT_EQ(store.live_object_count(), 1u);
  // 600 bytes at offset 0 span pages 0..1 -> two read I/Os on miss.
  EXPECT_EQ(store.io_stats().app_reads, 2u);
}

TEST(ObjectStoreTest, BumpAllocationWithinPartition) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 0);
  store.CreateObject(2, 100, 0);
  EXPECT_EQ(store.object(2).offset, 100u);
  EXPECT_EQ(store.object(2).partition, 0u);
}

TEST(ObjectStoreTest, GrowsPartitionWhenFull) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 4000, 0);
  store.CreateObject(2, 200, 0);  // does not fit in partition 0
  EXPECT_EQ(store.partition_count(), 2u);
  EXPECT_EQ(store.object(2).partition, 1u);
}

TEST(ObjectStoreTest, FirstFitReusesEarlierPartitions) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 2000, 0);  // partition 0: 2000/4096
  store.CreateObject(2, 4000, 0);  // partition 1
  // 1000 fits back into partition 0 even though the cursor moved on.
  store.CreateObject(3, 1000, 0);
  EXPECT_EQ(store.object(3).partition, 0u);
  EXPECT_EQ(store.partition_count(), 2u);
}

TEST(ObjectStoreTest, WriteRefToNullSlotIsNotAnOverwrite) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 1);
  store.CreateObject(2, 100, 0);
  PartitionId p = store.WriteRef(1, 0, 2);
  EXPECT_EQ(p, kInvalidPartition);
  EXPECT_EQ(store.pointer_overwrites(), 0u);
  EXPECT_EQ(store.in_refs(2).size(), 1u);
  EXPECT_EQ(store.in_refs(2)[0].src, 1u);
}

TEST(ObjectStoreTest, OverwriteChargedToOldTargetsPartition) {
  StoreConfig cfg = SmallStore();
  ObjectStore store(cfg);
  store.CreateObject(1, 100, 1);   // partition 0
  store.CreateObject(2, 4000, 0);  // partition 0 is now full at 4100?
  // 100+4000 = 4100 > 4096, so object 2 lands in partition 1.
  ASSERT_EQ(store.object(2).partition, 1u);
  store.CreateObject(3, 100, 0);  // fits in partition 0
  ASSERT_EQ(store.object(3).partition, 0u);

  store.WriteRef(1, 0, 2);  // null -> 2, no overwrite
  PartitionId charged = store.WriteRef(1, 0, 3);  // 2 -> 3: overwrite
  EXPECT_EQ(charged, 1u);  // old target (2) lives in partition 1
  EXPECT_EQ(store.pointer_overwrites(), 1u);
  EXPECT_EQ(store.partition(1).overwrites(), 1u);
  EXPECT_EQ(store.partition(0).overwrites(), 0u);
  // Reverse index followed the pointer.
  EXPECT_TRUE(store.in_refs(2).empty());
  EXPECT_EQ(store.in_refs(3).size(), 1u);
}

TEST(ObjectStoreTest, RewritingSameValueIsNotAnOverwrite) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 1);
  store.CreateObject(2, 100, 0);
  store.WriteRef(1, 0, 2);
  PartitionId p = store.WriteRef(1, 0, 2);
  EXPECT_EQ(p, kInvalidPartition);
  EXPECT_EQ(store.pointer_overwrites(), 0u);
  EXPECT_EQ(store.in_refs(2).size(), 1u);  // no duplicate
}

TEST(ObjectStoreTest, OverwriteWithNullClearsReverseIndex) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 1);
  store.CreateObject(2, 100, 0);
  store.WriteRef(1, 0, 2);
  PartitionId charged = store.WriteRef(1, 0, kNullObject);
  EXPECT_EQ(charged, 0u);
  EXPECT_EQ(store.pointer_overwrites(), 1u);
  EXPECT_TRUE(store.in_refs(2).empty());
}

TEST(ObjectStoreTest, DuplicateReferencesTrackedAsMultiset) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 2);
  store.CreateObject(2, 100, 0);
  store.WriteRef(1, 0, 2);
  store.WriteRef(1, 1, 2);
  EXPECT_EQ(store.in_refs(2).size(), 2u);
  store.WriteRef(1, 0, kNullObject);
  EXPECT_EQ(store.in_refs(2).size(), 1u);
}

TEST(ObjectStoreTest, RootsAddRemove) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 0);
  store.AddRoot(1);
  EXPECT_TRUE(store.IsRoot(1));
  store.RemoveRoot(1);
  EXPECT_FALSE(store.IsRoot(1));
}

TEST(ObjectStoreTest, DestroyObjectDetachesOutPointers) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 1);
  store.CreateObject(2, 100, 0);
  store.WriteRef(1, 0, 2);
  store.DestroyObject(1);
  EXPECT_FALSE(store.Exists(1));
  EXPECT_TRUE(store.in_refs(2).empty());
  EXPECT_EQ(store.live_object_count(), 1u);
  // used_bytes is unchanged until a collection compacts the partition.
  EXPECT_EQ(store.used_bytes(), 200u);
}

TEST(ObjectStoreTest, GroundTruthGarbageAccounting) {
  ObjectStore store(SmallStore());
  store.RecordGarbageCreated(500, 2);
  EXPECT_EQ(store.actual_garbage_bytes(), 500u);
  store.RecordGarbageCollected(300, 1);
  EXPECT_EQ(store.actual_garbage_bytes(), 200u);
  EXPECT_EQ(store.total_garbage_created(), 500u);
  EXPECT_EQ(store.total_garbage_collected(), 300u);
}

TEST(ObjectStoreTest, TouchRangeSpansPages) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 0);  // primes partition 0
  uint64_t before = store.io_stats().app_reads;
  // Range [500, 1600) with 512-byte pages covers pages 0..3 = 4 pages,
  // page 0 already resident from the create.
  store.TouchRange(0, 500, 1100, false, IoContext::kApplication);
  EXPECT_EQ(store.io_stats().app_reads - before, 3u);
}

TEST(ReachabilityTest, FindsRootsAndTransitiveClosure) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 1);  // root
  store.CreateObject(2, 100, 1);  // reachable via 1
  store.CreateObject(3, 100, 0);  // reachable via 2
  store.CreateObject(4, 100, 0);  // unreachable
  store.AddRoot(1);
  store.WriteRef(1, 0, 2);
  store.WriteRef(2, 0, 3);
  ReachabilityResult r = ScanReachability(store);
  EXPECT_TRUE(r.reachable[1]);
  EXPECT_TRUE(r.reachable[2]);
  EXPECT_TRUE(r.reachable[3]);
  EXPECT_FALSE(r.reachable[4]);
  EXPECT_EQ(r.reachable_objects, 3u);
  EXPECT_EQ(r.reachable_bytes, 300u);
  EXPECT_EQ(r.unreachable_objects, 1u);
  EXPECT_EQ(r.unreachable_bytes, 100u);
}

TEST(ReachabilityTest, UnreachableCycleIsGarbage) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 0);  // root
  store.CreateObject(2, 100, 1);
  store.CreateObject(3, 100, 1);
  store.AddRoot(1);
  // 2 <-> 3 cycle, not reachable from 1.
  store.WriteRef(2, 0, 3);
  store.WriteRef(3, 0, 2);
  ReachabilityResult r = ScanReachability(store);
  EXPECT_FALSE(r.reachable[2]);
  EXPECT_FALSE(r.reachable[3]);
  EXPECT_EQ(r.unreachable_bytes, 200u);
}

TEST(ReachabilityTest, PerPartitionGarbage) {
  StoreConfig cfg = SmallStore();
  ObjectStore store(cfg);
  store.CreateObject(1, 4000, 0);  // partition 0, root
  store.CreateObject(2, 4000, 0);  // partition 1, garbage
  store.AddRoot(1);
  ReachabilityResult r = ScanReachability(store);
  EXPECT_EQ(UnreachableBytesInPartition(store, r, 0), 0u);
  EXPECT_EQ(UnreachableBytesInPartition(store, r, 1), 4000u);
}

TEST(ObjectStoreTest, ObjectLargerThanPageCountsMultipleIos) {
  StoreConfig cfg = SmallStore();
  ObjectStore store(cfg);
  store.CreateObject(1, 2048, 0);  // 4 pages
  EXPECT_EQ(store.io_stats().app_reads, 4u);
  uint64_t before = store.io_stats().app_reads;
  store.ReadObject(1);  // all resident: hits only
  EXPECT_EQ(store.io_stats().app_reads, before);
}


TEST(ObjectStoreTest, ClusteringHintHonoredWhenSpaceAllows) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 0);   // partition 0
  store.CreateObject(2, 4000, 0);  // partition 1 (0 has 3996 free)
  ASSERT_EQ(store.object(2).partition, 1u);
  // Cursor now points at partition 1; the hint pulls the new object
  // back beside object 1.
  store.CreateObject(3, 50, 0, /*near_hint=*/1);
  EXPECT_EQ(store.object(3).partition, 0u);
}

TEST(ObjectStoreTest, ClusteringHintFallsBackWhenFull) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 4090, 0);  // partition 0 nearly full
  store.CreateObject(2, 100, 0, /*near_hint=*/1);
  EXPECT_EQ(store.object(2).partition, 1u);  // hint could not fit
}

TEST(ObjectStoreTest, ClusteringHintIgnoresDeadObjects) {
  StoreConfig cfg = SmallStore();
  cfg.pin_newest_allocation = false;
  ObjectStore store(cfg);
  store.CreateObject(1, 100, 0);
  store.DestroyObject(1);
  // Hinting at a destroyed object must not crash; normal placement wins.
  store.CreateObject(2, 100, 0, /*near_hint=*/1);
  EXPECT_TRUE(store.Exists(2));
}

TEST(ObjectStoreTest, UpdateObjectDirtiesWithoutOverwrites) {
  StoreConfig cfg = SmallStore();
  cfg.buffer_pages = 1;
  ObjectStore store(cfg);
  store.CreateObject(1, 100, 1);
  store.CreateObject(2, 4000, 0);  // evicts object 1's page
  uint64_t writes_before = store.io_stats().app_writes;
  store.UpdateObject(1);  // re-fetch + dirty
  store.CreateObject(3, 10, 0);  // force eviction of the dirty page
  EXPECT_GT(store.io_stats().app_writes, writes_before);
  EXPECT_EQ(store.pointer_overwrites(), 0u);
}

TEST(ObjectStoreDeathTest, DuplicateIdAborts) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 0);
  EXPECT_DEATH(store.CreateObject(1, 100, 0), "");
}

TEST(ObjectStoreDeathTest, InvalidSlotAborts) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 1);
  EXPECT_DEATH(store.WriteRef(1, 5, 0), "");
}

TEST(ObjectStoreDeathTest, RemoveUnknownRootAborts) {
  ObjectStore store(SmallStore());
  store.CreateObject(1, 100, 0);
  EXPECT_DEATH(store.RemoveRoot(1), "");
}

TEST(ObjectStoreDeathTest, ObjectLargerThanPartitionAborts) {
  ObjectStore store(SmallStore());
  EXPECT_DEATH(store.CreateObject(1, 5000, 0), "");
}

TEST(ObjectStoreDeathTest, IdsWithoutAnArrayEntryAbort) {
  ObjectStore store(SmallStore());
  EXPECT_DEATH(store.CreateObject(kNullObject, 100, 0), "");
  EXPECT_DEATH(store.CreateObject(UINT32_MAX, 100, 0),
               "no room for its entry");
}

}  // namespace
}  // namespace odbgc
