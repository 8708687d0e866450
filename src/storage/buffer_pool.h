#ifndef ODBGC_STORAGE_BUFFER_POOL_H_
#define ODBGC_STORAGE_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/telemetry.h"
#include "storage/disk_model.h"
#include "storage/fault_injector.h"
#include "storage/types.h"
#include "util/fields.h"
#include "util/snapshot.h"

namespace odbgc {

// One detected-damage event (CorruptionKind is in storage/types.h), in
// detection order.
#define ODBGC_CORRUPTION_EVENT_FIELDS(X) \
  X(PageId, page, {})                    \
  X(CorruptionKind, kind, CorruptionKind::kChecksum)

struct CorruptionEvent {
  ODBGC_FIELD_TABLE(ODBGC_CORRUPTION_EVENT_FIELDS)
};

// LRU page buffer. The paper sets the buffer to the partition size
// (12 x 8 KB pages, Section 3.1): small enough that a collection's
// sequential scan does not retain the whole database, large enough that a
// partition fits during collection.
//
// The pool does not hold data — the simulation tracks object contents
// elsewhere — it only decides which page accesses hit the buffer and which
// cost disk I/O operations, and attributes those operations to the
// application or the collector. With a fault injector attached, each
// physical transfer may additionally fail transiently (retried with
// backoff, retries charged to the issuing context), fail permanently, or
// leave / detect a torn page; all outcomes surface in IoStats.
//
// Layout: a fixed array of frames linked into an intrusive doubly-linked
// LRU list (head = most recently used), plus a direct-mapped page table:
// one flat row-major array of frame indices, indexed
// partition * row_stride + page_index (page ids are dense within a
// partition; the stride grows geometrically and rarely). A hit is a
// single indexed load and a few pointer swaps; no node allocation, no
// hashing, no per-partition row pointer to chase.
class BufferPool {
 public:
  // `pages_per_partition_hint`, if non-zero, pre-sizes each page-table
  // row so steady-state lookups never grow a row. Access treats it as a
  // capacity hint (pages beyond it still work); RestoreState treats it as
  // the bound on a restored page index.
  explicit BufferPool(uint32_t frame_count,
                      uint32_t pages_per_partition_hint = 0);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Touches a page. A miss costs one read I/O (plus one write I/O if a
  // dirty page must be evicted). `dirty` marks the page as modified.
  //
  // The hit path is inline — it is the single hottest operation in the
  // simulator (every object touch and every remembered-set rewrite lands
  // here) and amounts to two array lookups plus an LRU splice. Misses
  // (I/O accounting, eviction) take the out-of-line slow path.
  void Access(PageId page, bool dirty, IoContext ctx) {
    if (page.partition < table_partitions_ && page.page_index < row_stride_) {
      const int32_t f = table_[static_cast<size_t>(page.partition) *
                                   row_stride_ +
                               page.page_index];
      if (f != kNoFrame) {
        ++hits_;
        frames_[f].dirty = frames_[f].dirty || dirty;
        if (lru_head_ != f) {
          Unlink(f);
          PushFront(f);
        }
        return;
      }
    }
    AccessMiss(page, dirty, ctx);
  }

  // Drops any cached pages of `partition` with page_index >= first_dropped
  // without writing them back. Used after a collection compacts a
  // partition: the discarded from-space tail must not be flushed later.
  void DropPartitionTail(PartitionId partition, uint32_t first_dropped);

  // Writes back the dirty pages of one partition (they stay resident and
  // become clean). The collector's commit protocol uses this to make
  // to-space durable before the commit record is written.
  void FlushPartition(PartitionId partition, IoContext ctx);

  // Simulates losing all volatile state at a crash: every frame is
  // dropped with no write-back. Returns the number of dirty pages whose
  // contents were lost.
  size_t DiscardAll();

  // One uncached, durable page write / read (the collector's commit
  // record). Costs one transfer, never occupies a frame.
  void WriteThrough(PageId page, IoContext ctx) { CountWrite(page, ctx); }
  void ReadThrough(PageId page, IoContext ctx) { CountRead(page, ctx); }

  // Attaches an optional disk service-time model: every physical
  // transfer (read on miss, write-back on eviction or flush) is reported
  // to it. Not owned; may be null.
  void AttachDiskModel(DiskModel* model) { disk_ = model; }

  // Attaches an optional deterministic fault injector consulted on every
  // physical transfer. Not owned; may be null.
  void AttachFaultInjector(FaultInjector* injector) { fault_ = injector; }

  // Attaches per-run telemetry (not owned; may be null). Every physical
  // transfer advances the telemetry timebase by one tick and, when page
  // events are enabled, records a page_read/page_write instant. The pool
  // registers only what nothing else counts: `storage.buffer.evictions`
  // and the `stall.fault_retry_io` histogram. Its transfer, hit, miss and
  // fault totals reach the registry from stats(), hits() and misses(),
  // which the simulation copies in before each registry read.
  void AttachTelemetry(obs::Telemetry* telemetry);

  // Damage detections (checksum mismatches, dead-device transfers) since
  // the last drain, in detection order. The simulation polls this at
  // event boundaries to quarantine the affected partitions; with no fault
  // injector attached the queue is always empty.
  std::vector<CorruptionEvent> TakeCorruptionEvents() {
    return std::move(pending_corruption_);
  }
  bool HasPendingCorruption(PartitionId partition) const {
    for (const CorruptionEvent& e : pending_corruption_) {
      if (e.page.partition == partition) return true;
    }
    return false;
  }
  size_t pending_corruption_count() const {
    return pending_corruption_.size();
  }

  // Marks subsequent transfers as scrub reads: detections they surface
  // are typed kScrub instead of kChecksum. The scrubber brackets its
  // quantum with this so repair accounting can tell proactive detection
  // from demand-read detection apart.
  void SetScrubbing(bool scrubbing) { scrubbing_ = scrubbing; }

  const IoStats& stats() const { return stats_; }
  size_t resident_pages() const { return resident_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

  // Checkpoint hooks. Residency is serialized in LRU order (head first)
  // and rebuilt exactly, so post-restore hit/miss/eviction sequences —
  // and therefore all downstream I/O accounting — are byte-identical to
  // a run that never checkpointed. A restored page must lie in one of
  // the store's `partition_count` partitions, below the pool's pages per
  // partition (a pool built without that hint restores no pages), and
  // appear once; anything else marks the snapshot malformed before the
  // page table is sized from it.
  void SaveState(SnapshotWriter& w) const;
  void RestoreState(SnapshotReader& r, uint32_t partition_count);

 private:
  static constexpr int32_t kNoFrame = -1;

  struct Frame {
    PageId page{0, 0};
    bool dirty = false;
    // Intrusive LRU links (frame indices). A free frame reuses `next` as
    // its free-list link.
    int32_t prev = kNoFrame;
    int32_t next = kNoFrame;
  };

  // Slow path of Access: the page is not resident — count the read,
  // evict if the pool is full, and install the page in a fresh frame.
  // Also inline: miss-heavy hot loops (reorg churn, scan-through
  // workloads) take this path every other touch.
  void AccessMiss(PageId page, bool dirty, IoContext ctx) {
    ++misses_;
    CountRead(page, ctx);
    int32_t fresh;
    if (resident_ >= frame_count_) {
      // Evict the least recently used frame and reuse it in place:
      // clear its table slot and splice it straight to the LRU head — no
      // free-list round trip through ReleaseFrame (a full pool stays
      // full, and miss-heavy workloads evict on every miss).
      const int32_t victim = lru_tail_;
      if (frames_[victim].dirty) CountWrite(frames_[victim].page, ctx);
      ODBGC_IF_TEL(tel_) { tel_evictions_->Increment(); }
      ClearSlot(frames_[victim].page);
      if (lru_head_ != victim) {
        Unlink(victim);
        PushFront(victim);
      }
      fresh = victim;
    } else {
      fresh = free_head_;
      free_head_ = frames_[fresh].next;
      PushFront(fresh);
      ++resident_;
    }
    frames_[fresh].page = page;
    frames_[fresh].dirty = dirty;
    SetSlot(page, fresh);
  }

  // Transfer accounting. With no disk model, fault injector, or
  // telemetry attached (the common bench/test configuration) a transfer
  // is a single counter increment, inlined here; any attached model
  // takes the out-of-line path.
  void CountRead(PageId page, IoContext ctx) {
    if (disk_ == nullptr && fault_ == nullptr && tel_ == nullptr) {
      ++(ctx == IoContext::kApplication ? stats_.app_reads
                                        : stats_.gc_reads);
      return;
    }
    RecordTransfer(page, ctx, /*is_write=*/false);
  }
  void CountWrite(PageId page, IoContext ctx) {
    if (disk_ == nullptr && fault_ == nullptr && tel_ == nullptr) {
      ++(ctx == IoContext::kApplication ? stats_.app_writes
                                        : stats_.gc_writes);
      return;
    }
    RecordTransfer(page, ctx, /*is_write=*/true);
  }
  // Shared transfer accounting: counts the base transfer, advances
  // telemetry, then consults the fault injector for retries / permanent
  // errors / tears.
  void RecordTransfer(PageId page, IoContext ctx, bool is_write);

  // Frame index of a resident page, or kNoFrame.
  int32_t Lookup(PageId page) const;
  // Records `frame` as the residence of `page`, growing the table.
  void SetSlot(PageId page, int32_t frame) {
    if (page.partition >= table_partitions_ || page.page_index >= row_stride_) {
      GrowTable(page);
    }
    table_[static_cast<size_t>(page.partition) * row_stride_ +
           page.page_index] = frame;
  }
  void ClearSlot(PageId page) {
    table_[static_cast<size_t>(page.partition) * row_stride_ +
           page.page_index] = kNoFrame;
  }
  // Grows the flat table so `page` indexes in bounds: appends rows for
  // new partitions (cheap) and remaps to a wider stride when a page
  // index exceeds the current one (rare, geometric).
  void GrowTable(PageId page);
  // LRU splices, inline for the Access hit path.
  void Unlink(int32_t f) {
    Frame& frame = frames_[f];
    if (frame.prev != kNoFrame) {
      frames_[frame.prev].next = frame.next;
    } else {
      lru_head_ = frame.next;
    }
    if (frame.next != kNoFrame) {
      frames_[frame.next].prev = frame.prev;
    } else {
      lru_tail_ = frame.prev;
    }
  }
  void PushFront(int32_t f) {
    Frame& frame = frames_[f];
    frame.prev = kNoFrame;
    frame.next = lru_head_;
    if (lru_head_ != kNoFrame) frames_[lru_head_].prev = f;
    lru_head_ = f;
    if (lru_tail_ == kNoFrame) lru_tail_ = f;
  }
  // Removes a resident frame entirely (table slot, LRU list, free list).
  void ReleaseFrame(int32_t f);
  void ResetFreeList();

  // The checkpointed state after the resident pages, in checkpoint order
  // (util/fields.h Persist).
  template <class Io, class Self>
  static void Checkpoint(Io& io, Self& self) {
    // Undrained detections are normally empty: the simulation drains the
    // queue before every checkpoint boundary.
    Persist(io, self.stats_, self.hits_, self.misses_,
            self.pending_corruption_);
  }

  uint32_t frame_count_;
  uint32_t pages_hint_;
  DiskModel* disk_ = nullptr;
  FaultInjector* fault_ = nullptr;
  obs::Telemetry* tel_ = nullptr;
  // Instrument handles cached at AttachTelemetry (valid iff tel_ != null).
  obs::Counter* tel_evictions_ = nullptr;
  // Stall attribution: retry counts of application-context transfers
  // that hit transient faults (gc-context retries are not app-visible).
  obs::Histogram* tel_retry_stall_ = nullptr;
  std::vector<Frame> frames_;
  int32_t lru_head_ = kNoFrame;  // most recently used
  int32_t lru_tail_ = kNoFrame;  // least recently used
  int32_t free_head_ = kNoFrame;
  uint32_t resident_ = 0;
  // Flat page table: table_[partition * row_stride_ + page_index] = frame
  // index or kNoFrame. Rows are appended as partitions appear; the stride
  // widens (with a remap) only when a page index outgrows it, which the
  // pages-per-partition hint makes a cold one-time event.
  std::vector<int32_t> table_;
  uint32_t table_partitions_ = 0;  // rows in table_
  uint32_t row_stride_ = 0;        // columns per row
  IoStats stats_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  bool scrubbing_ = false;
  std::vector<CorruptionEvent> pending_corruption_;
};

}  // namespace odbgc

#endif  // ODBGC_STORAGE_BUFFER_POOL_H_
