#include <gtest/gtest.h>

#include <vector>

#include "storage/buffer_pool.h"
#include "util/snapshot.h"

namespace odbgc {
namespace {

PageId P(PartitionId part, uint32_t page) { return PageId{part, page}; }

TEST(BufferPoolTest, FirstAccessIsAMissAndRead) {
  BufferPool pool(4);
  pool.Access(P(0, 0), /*dirty=*/false, IoContext::kApplication);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.stats().app_reads, 1u);
  EXPECT_EQ(pool.stats().app_writes, 0u);
}

TEST(BufferPoolTest, RepeatedAccessHits) {
  BufferPool pool(4);
  pool.Access(P(0, 0), false, IoContext::kApplication);
  pool.Access(P(0, 0), false, IoContext::kApplication);
  pool.Access(P(0, 0), true, IoContext::kApplication);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), 2u);
  EXPECT_EQ(pool.stats().app_reads, 1u);
}

TEST(BufferPoolTest, LruEvictionOrder) {
  BufferPool pool(2);
  pool.Access(P(0, 0), false, IoContext::kApplication);
  pool.Access(P(0, 1), false, IoContext::kApplication);
  // Touch page 0 so page 1 becomes LRU.
  pool.Access(P(0, 0), false, IoContext::kApplication);
  // Page 2 evicts page 1.
  pool.Access(P(0, 2), false, IoContext::kApplication);
  // Page 0 should still be resident (hit); page 1 should miss.
  pool.Access(P(0, 0), false, IoContext::kApplication);
  EXPECT_EQ(pool.hits(), 2u);
  pool.Access(P(0, 1), false, IoContext::kApplication);
  EXPECT_EQ(pool.misses(), 4u);
}

TEST(BufferPoolTest, DirtyEvictionCostsWrite) {
  BufferPool pool(1);
  pool.Access(P(0, 0), /*dirty=*/true, IoContext::kApplication);
  EXPECT_EQ(pool.stats().app_writes, 0u);  // not written back yet
  pool.Access(P(0, 1), false, IoContext::kApplication);
  // Evicting dirty page 0 costs one write attributed to the evictor.
  EXPECT_EQ(pool.stats().app_writes, 1u);
  EXPECT_EQ(pool.stats().app_reads, 2u);
}

TEST(BufferPoolTest, CleanEvictionCostsNoWrite) {
  BufferPool pool(1);
  pool.Access(P(0, 0), false, IoContext::kApplication);
  pool.Access(P(0, 1), false, IoContext::kApplication);
  EXPECT_EQ(pool.stats().app_writes, 0u);
}

TEST(BufferPoolTest, DirtinessMergesAcrossAccesses) {
  BufferPool pool(1);
  pool.Access(P(0, 0), false, IoContext::kApplication);
  pool.Access(P(0, 0), true, IoContext::kApplication);  // now dirty
  pool.Access(P(0, 1), false, IoContext::kApplication);
  EXPECT_EQ(pool.stats().app_writes, 1u);
}

TEST(BufferPoolTest, GcContextAttribution) {
  BufferPool pool(1);
  pool.Access(P(0, 0), true, IoContext::kCollector);
  pool.Access(P(0, 1), false, IoContext::kCollector);
  EXPECT_EQ(pool.stats().gc_reads, 2u);
  EXPECT_EQ(pool.stats().gc_writes, 1u);
  EXPECT_EQ(pool.stats().app_total(), 0u);
}

TEST(BufferPoolTest, EvictionAttributedToEvictorNotOwner) {
  BufferPool pool(1);
  // App dirties a page; the collector's access evicts it. The write-back
  // is charged to the collector (it caused the transfer).
  pool.Access(P(0, 0), true, IoContext::kApplication);
  pool.Access(P(0, 1), false, IoContext::kCollector);
  EXPECT_EQ(pool.stats().app_writes, 0u);
  EXPECT_EQ(pool.stats().gc_writes, 1u);
}

TEST(BufferPoolTest, DropPartitionTailDiscardsWithoutWriteback) {
  BufferPool pool(4);
  pool.Access(P(3, 0), true, IoContext::kCollector);
  pool.Access(P(3, 1), true, IoContext::kCollector);
  pool.Access(P(4, 1), true, IoContext::kCollector);
  pool.DropPartitionTail(3, 1);
  EXPECT_EQ(pool.resident_pages(), 2u);  // (3,0) and (4,1) remain
  pool.FlushPartition(3, IoContext::kCollector);
  pool.FlushPartition(4, IoContext::kCollector);
  // Only the two surviving dirty pages get written.
  EXPECT_EQ(pool.stats().gc_writes, 2u);
}

TEST(BufferPoolTest, NeverExceedsFrameCount) {
  BufferPool pool(3);
  for (uint32_t i = 0; i < 100; ++i) {
    pool.Access(P(i % 7, i), i % 2 == 0, IoContext::kApplication);
    EXPECT_LE(pool.resident_pages(), 3u);
  }
}

TEST(BufferPoolTest, PagesDistinguishedByPartition) {
  BufferPool pool(4);
  pool.Access(P(0, 0), false, IoContext::kApplication);
  pool.Access(P(1, 0), false, IoContext::kApplication);
  EXPECT_EQ(pool.misses(), 2u);
}

TEST(BufferPoolTest, DirtyEvictionWritesBackExactlyOnce) {
  // Regression: a dirty page must be written back when evicted, and the
  // write-back must not leave a phantom dirty frame behind — re-faulting
  // the page and evicting it clean must cost no second write.
  BufferPool pool(1);
  pool.Access(P(0, 0), /*dirty=*/true, IoContext::kApplication);
  pool.Access(P(0, 1), false, IoContext::kApplication);  // evicts 0 dirty
  EXPECT_EQ(pool.stats().app_writes, 1u);
  pool.Access(P(0, 0), false, IoContext::kApplication);  // back in, clean
  pool.Access(P(0, 1), false, IoContext::kApplication);  // evicts 0 clean
  EXPECT_EQ(pool.stats().app_writes, 1u);
  EXPECT_EQ(pool.stats().app_reads, 4u);
}

TEST(BufferPoolTest, FlushPartitionWritesOnlyThatPartition) {
  BufferPool pool(4);
  pool.Access(P(0, 0), /*dirty=*/true, IoContext::kCollector);
  pool.Access(P(0, 1), /*dirty=*/false, IoContext::kCollector);
  pool.Access(P(1, 0), /*dirty=*/true, IoContext::kCollector);
  pool.FlushPartition(0, IoContext::kCollector);
  EXPECT_EQ(pool.stats().gc_writes, 1u);  // only (0,0)
  EXPECT_EQ(pool.resident_pages(), 3u);   // flushed page stays resident
  pool.FlushPartition(0, IoContext::kCollector);  // now clean: no-op
  EXPECT_EQ(pool.stats().gc_writes, 1u);
  pool.FlushPartition(1, IoContext::kCollector);  // partition 1 still dirty
  EXPECT_EQ(pool.stats().gc_writes, 2u);
}

TEST(BufferPoolTest, DiscardAllDropsEverythingWithoutWriteback) {
  BufferPool pool(4);
  pool.Access(P(0, 0), /*dirty=*/true, IoContext::kApplication);
  pool.Access(P(0, 1), /*dirty=*/true, IoContext::kApplication);
  pool.Access(P(0, 2), /*dirty=*/false, IoContext::kApplication);
  size_t lost = pool.DiscardAll();
  EXPECT_EQ(lost, 2u);  // the two dirty pages
  EXPECT_EQ(pool.resident_pages(), 0u);
  EXPECT_EQ(pool.stats().app_writes, 0u);  // nothing was flushed
  // The pool is fully usable afterwards.
  pool.Access(P(0, 0), false, IoContext::kApplication);
  EXPECT_EQ(pool.resident_pages(), 1u);
}

TEST(BufferPoolTest, WriteThroughBypassesFrames) {
  BufferPool pool(2);
  pool.WriteThrough(P(0, kMetaPageIndex), IoContext::kCollector);
  pool.ReadThrough(P(0, kMetaPageIndex), IoContext::kCollector);
  EXPECT_EQ(pool.stats().gc_writes, 1u);
  EXPECT_EQ(pool.stats().gc_reads, 1u);
  EXPECT_EQ(pool.resident_pages(), 0u);  // never occupies a frame
  EXPECT_EQ(pool.hits() + pool.misses(), 0u);
}

// Hand-built pool snapshots. The layout is the resident count and pages
// (MRU first), the IoStats rows, hits, misses, then the undrained
// corruption events.
TEST(BufferPoolTest, RestoreRejectsMoreResidentPagesThanFrames) {
  SnapshotWriter w;
  w.U64(5);
  for (uint32_t i = 0; i < 5; ++i) {
    w.U32(0);
    w.U32(i);
    w.Bool(false);
  }
  BufferPool pool(4);
  SnapshotReader r(w.data());
  pool.RestoreState(r, 1);
  EXPECT_FALSE(r.ok());
}

// A restored page id sizes the page table, so the pool must reject one
// it cannot hold before growing anything: the metadata page index (its
// row width would wrap to 0), a partition id that wraps the row count,
// a partition the store does not have (100,000,000 12-page rows would
// ask for 4.8 GB), a page past the partition's last, and a page listed
// twice (two frames for one page).
TEST(BufferPoolTest, RestoreRejectsPageIdsTheTableCannotHold) {
  auto restore = [](std::vector<PageId> pages) {
    SnapshotWriter w;
    w.U64(pages.size());
    for (const PageId& page : pages) {
      SaveField(w, page);
      w.Bool(false);
    }
    SaveField(w, IoStats{});
    w.U64(0);  // hits
    w.U64(0);  // misses
    w.U64(0);  // no undrained detections
    BufferPool pool(4, /*pages_per_partition_hint=*/12);
    SnapshotReader r(w.data());
    pool.RestoreState(r, /*partition_count=*/3);
    return r.AtEnd();
  };
  EXPECT_TRUE(restore({P(2, 11), P(0, 0)}));
  EXPECT_FALSE(restore({P(0, kMetaPageIndex)}));
  EXPECT_FALSE(restore({P(0xFFFFFFFFu, 0)}));
  EXPECT_FALSE(restore({P(100000000, 0)}));
  EXPECT_FALSE(restore({P(3, 0)}));
  EXPECT_FALSE(restore({P(0, 12)}));
  EXPECT_FALSE(restore({P(1, 5), P(0, 0), P(1, 5)}));
}

TEST(BufferPoolTest, RestoreRejectsUnknownCorruptionKind) {
  auto restore_with_kind = [](uint8_t kind) {
    SnapshotWriter w;
    w.U64(0);  // no resident pages
    SaveField(w, IoStats{});
    w.U64(0);  // hits
    w.U64(0);  // misses
    w.U64(1);  // one undrained detection: partition, page, kind
    w.U32(0);
    w.U32(0);
    w.U8(kind);
    BufferPool pool(4);
    SnapshotReader r(w.data());
    pool.RestoreState(r, 1);
    return r.AtEnd();
  };
  EXPECT_TRUE(restore_with_kind(static_cast<uint8_t>(CorruptionKind::kScrub)));
  EXPECT_FALSE(restore_with_kind(3));
}

}  // namespace
}  // namespace odbgc
