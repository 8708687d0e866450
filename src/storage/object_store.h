#ifndef ODBGC_STORAGE_OBJECT_STORE_H_
#define ODBGC_STORAGE_OBJECT_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_model.h"
#include "storage/fault_injector.h"
#include "storage/free_space_index.h"
#include "storage/in_ref_list.h"
#include "storage/partition.h"
#include "storage/types.h"
#include "util/check.h"
#include "util/fields.h"

namespace odbgc {

// One pointer slot: the referenced object plus the slot's entry index in
// that object's in-ref list (meaningless while `target` is null). Target
// and back-reference are interleaved in one arena so the WriteRef hot
// path reads and patches both with a single cache line per slot, instead
// of one line in each of two parallel arrays.
struct Slot {
  ObjectId target = kNullObject;
  uint32_t backref = 0;
};

// Per-object header. This is a compact POD (no embedded containers):
// pointer slots and their back-references live in store-level arenas
// (structure-of-arrays layout), addressed by [slot_begin, slot_begin +
// slot_count). Shrinking the header from ~112 bytes (four embedded
// vectors) to 28 packs 2+ headers per cache line, which is what the
// mark/scan walks and WriteRef mostly read.
//
// The reverse index is maintained in O(1) per pointer write: every slot
// remembers where its entry sits in the target's in-ref list (the
// slot_backrefs arena), every in-ref entry remembers which arena slot of
// the source it came from (InRef::backref_pos, needed to patch the moved
// entry's back-pointer on a swap-erase), and `xpart_in_refs` counts the entries
// whose source lives in another partition so partition-root discovery
// never has to scan the lists.
struct ObjectRecord {
  bool exists = false;
  uint32_t size = 0;
  PartitionId partition = kInvalidPartition;
  uint32_t offset = 0;
  // Range of this object's pointer slots in the store's slot arenas.
  // Slot counts are fixed at creation; a destroyed object's range is
  // abandoned (bump arena — see ObjectStore).
  uint32_t slot_begin = 0;
  uint32_t slot_count = 0;
  // Number of in-ref entries whose source is in a different partition.
  uint32_t xpart_in_refs = 0;
};

#define ODBGC_STORE_CONFIG_FIELDS(X)                                      \
  X(uint32_t, partition_bytes, 96 * 1024)                                 \
  X(uint32_t, page_bytes, 8 * 1024)                                       \
  X(uint32_t, buffer_pages, 12) /* buffer == partition size (Sec. 3.1) */ \
  /* Capacity ceiling in bytes for the partition footprint (0 =           \
     uncapped, today's unbounded growth). With a cap, an allocation that  \
     needs a new partition when the footprint is already at the ceiling   \
     raises SpaceExhaustedError (sim/errors.h) instead of growing — the   \
     regime the 1996 paper's rate control exists to prevent. Capped runs  \
     whose footprint never reaches the ceiling are byte-identical to      \
     uncapped ones. */                                                    \
  X(uint64_t, max_db_bytes, 0)                                            \
  /* Treat the most recent allocation as a GC root (the application       \
     still holds a transient reference to an object it has not linked in  \
     yet). Trace-driven simulations need this; bare-store fixtures may    \
     not. */                                                              \
  X(bool, pin_newest_allocation, true)                                    \
  /* Optional physical-disk service-time model (off: the paper's          \
     operation-count methodology; on: elapsed-time estimates too). */     \
  X(bool, enable_disk_timing, false)                                      \
  X(DiskParams, disk, {})                                                 \
  /* Deterministic fault schedule (I/O faults, torn pages, crash          \
     points). Defaults to all-off, which leaves behavior byte-identical   \
     to a store without fault support. */                                 \
  X(FaultPlan, fault, {})

struct StoreConfig {
  ODBGC_FIELD_TABLE(ODBGC_STORE_CONFIG_FIELDS)
};

// The simulated object database: partitions, objects, pointer slots,
// roots, a paged buffer pool, and the bookkeeping the collection-rate
// policies consume (pointer-overwrite counters, I/O statistics, and
// ground-truth garbage accounting).
//
// Data layout (structure of arrays): object headers are one contiguous
// vector of compact PODs; slot targets and slot back-references are two
// parallel store-level arenas bump-allocated at object creation; in-ref
// lists are per-object InRefLists (two entries inline, the rest on the
// heap). Arena ranges of destroyed objects are abandoned, not recycled —
// slot storage grows with bytes ever allocated, which is bounded by the
// trace.
//
// Database growth is decoupled from collection (Section 3.1): if no
// existing partition can hold an allocation, a new partition is added;
// allocation never triggers a collection.
class ObjectStore {
 public:
  explicit ObjectStore(const StoreConfig& config);

  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  // --- Application operations (drive app-attributed I/O) ---

  // Creates object `id` with `size` bytes and `num_slots` null pointer
  // slots. Placement: the partition of `near_hint` if given and it fits
  // (OO7-style clustering), else the current allocation partition, else
  // the first partition with space, else a new partition.
  void CreateObject(ObjectId id, uint32_t size, uint32_t num_slots,
                    ObjectId near_hint = kNullObject);

  // Sizes the id-indexed arrays for ids below `id_bound` and the slot
  // arena for `slot_total` slots in one allocation each, so creates
  // within those bounds never regrow them (Trace::create_id_bound and
  // created_slot_total give a replay's exact sizes). Never shrinks.
  void Reserve(uint32_t id_bound, uint64_t slot_total);

  // Reads an object: touches its pages through the buffer pool.
  void ReadObject(ObjectId id);

  // Modifies an object's non-pointer data (OO7 T2-style attribute
  // update): dirties its pages; connectivity and the overwrite clock
  // are untouched.
  void UpdateObject(ObjectId id);

  // Stores `new_target` into slot `slot` of `src`. If the previous value
  // was non-null this is a *pointer overwrite*: the partition holding the
  // old target gets its overwrite counter bumped (the old target is the
  // object that became less connected), and the global overwrite clock
  // advances. Returns the partition charged with the overwrite, or
  // kInvalidPartition if the write was not an overwrite.
  PartitionId WriteRef(ObjectId src, uint32_t slot, ObjectId new_target) {
    ObjectRecord& s = mutable_object(src);
    ODBGC_CHECK(slot < s.slot_count);
    const uint32_t pos = s.slot_begin + slot;
    ObjectId& slot_ref = slot_arena_[pos].target;
    const ObjectId old_target = slot_ref;
    if (old_target == new_target) {
      // Writing the same value still dirties the source page but is not a
      // pointer overwrite (connectivity unchanged).
      TouchRange(s.partition, s.offset, s.size, /*dirty=*/true,
                 IoContext::kApplication);
      return kInvalidPartition;
    }
    // The detach/attach below need the targets' headers, the old entry's
    // list position, the swap-source tail entry, and the attach
    // destination — all data-dependent loads scattered across the arenas.
    // Start them now so they resolve while the buffer-pool touch (often a
    // miss plus an eviction) runs.
    if (old_target != kNullObject) {
      __builtin_prefetch(&objects_[old_target]);
      const InRefList& otin = in_refs_[old_target];
      const uint32_t idx = slot_arena_[pos].backref;
      if (!otin.empty()) {
        __builtin_prefetch(otin.data() + otin.size() - 1);
        // Write intent: the swap-erase stores to this entry.
        if (idx < otin.size()) __builtin_prefetch(otin.data() + idx, 1);
      }
    }
    if (new_target != kNullObject && new_target < objects_.size()) {
      __builtin_prefetch(&objects_[new_target]);
      const InRefList& ntin = in_refs_[new_target];
      // Write intent: the attach push_back stores here.
      __builtin_prefetch(ntin.data() + ntin.size(), 1);
    }
    slot_ref = new_target;
    TouchRange(s.partition, s.offset, s.size, /*dirty=*/true,
               IoContext::kApplication);

    // Fused detach + attach (DetachInRef's body plus the attach, with the
    // source-side work shared): one load of the source header and one
    // slot position. DetachInRef remains for DestroyObject.
    PartitionId overwritten_partition = kInvalidPartition;
    if (old_target != kNullObject) {
      // Unchecked: a non-null slot target always exists (DestroyObject
      // detaches every inbound slot), and the verifier audits the edge
      // tables; re-validating here would tax every overwrite.
      ObjectRecord& ot = objects_[old_target];
      InRefList& otin = in_refs_[old_target];
      const uint32_t idx = slot_arena_[pos].backref;
      // Bounds only; entry identity is the verifier's job (see DetachInRef).
      ODBGC_CHECK_MSG(idx < otin.size(), "reverse index out of sync");
      if (s.partition != ot.partition) {
        ODBGC_CHECK_MSG(ot.xpart_in_refs > 0, "reverse index out of sync");
        --ot.xpart_in_refs;
      }
      const uint32_t last = static_cast<uint32_t>(otin.size()) - 1;
      if (idx != last) {
        const InRef moved = otin[last];
        otin[idx] = moved;
        slot_arena_[moved.backref_pos].backref = idx;
      }
      otin.pop_back();
      // The old target became less connected: charge the overwrite to the
      // partition that holds it (feeds FGS and UpdatedPointer selection).
      partitions_[ot.partition].RecordOverwrite();
      ++pointer_overwrites_;
      overwritten_partition = ot.partition;
    }
    if (new_target != kNullObject) {
      ObjectRecord& nt = mutable_object(new_target);
      InRefList& ntin = in_refs_[new_target];
      slot_arena_[pos].backref = static_cast<uint32_t>(ntin.size());
      ntin.push_back(InRef{src, pos});
      if (s.partition != nt.partition) ++nt.xpart_in_refs;
    }
    return overwritten_partition;
  }

  void AddRoot(ObjectId id);
  void RemoveRoot(ObjectId id);

  // --- Ground-truth garbage accounting (oracle instrumentation) ---

  // The trace generator knows exactly when its unlink operations detach a
  // cluster; it reports the detached bytes here. This mirrors the paper's
  // "perfect garbage estimator" simulator facility; the practical
  // estimators never read it.
  void RecordGarbageCreated(uint64_t bytes, uint64_t objects);
  // Called by the collector with the bytes it reclaimed.
  void RecordGarbageCollected(uint64_t bytes, uint64_t objects);

  uint64_t total_garbage_created() const { return garbage_created_bytes_; }
  uint64_t total_garbage_collected() const {
    return garbage_collected_bytes_;
  }
  // Exact unreachable bytes currently stored (created minus collected).
  // Saturates at zero for hosts that collect without reporting markers
  // (e.g. unit fixtures); in marker-driven runs collected never exceeds
  // created, which the test suite verifies against a full scan.
  uint64_t actual_garbage_bytes() const {
    return garbage_created_bytes_ > garbage_collected_bytes_
               ? garbage_created_bytes_ - garbage_collected_bytes_
               : 0;
  }

  // --- Accessors ---

  // Inline: every slot view, reverse-index view, and mutation funnels
  // through these, so they are the hottest accessors in the store.
  const ObjectRecord& object(ObjectId id) const {
    ODBGC_CHECK(id < objects_.size() && objects_[id].exists);
    return objects_[id];
  }
  ObjectRecord& mutable_object(ObjectId id) {
    ODBGC_CHECK(id < objects_.size() && objects_[id].exists);
    return objects_[id];
  }
  bool Exists(ObjectId id) const {
    return id < objects_.size() && objects_[id].exists;
  }

  // Pointer-slot views into the slot arena (valid until the next
  // CreateObject, which may grow the arena). Each entry carries the
  // target and its in-ref back-reference; the mutable view is exposed
  // for corruption-injecting tests.
  std::span<const Slot> slots(ObjectId id) const {
    const ObjectRecord& rec = object(id);
    return {slot_arena_.data() + rec.slot_begin, rec.slot_count};
  }
  std::span<Slot> mutable_slots(ObjectId id) {
    ObjectRecord& rec = mutable_object(id);
    return {slot_arena_.data() + rec.slot_begin, rec.slot_count};
  }

  // Reverse index: one entry per referencing slot, duplicates allowed,
  // unordered (swap-erase on detach).
  const InRefList& in_refs(ObjectId id) const {
    object(id);  // existence check
    return in_refs_[id];
  }
  InRefList& mutable_in_refs(ObjectId id) {
    object(id);  // existence check
    return in_refs_[id];
  }

  // Raw arena base (prefetch targets for the mark/scan walks). The
  // in-ref arena base lets the collector's remembered-set walk skip the
  // per-object existence check — its ids come from a copy order whose
  // objects are live by construction.
  const Slot* slot_arena() const { return slot_arena_.data(); }
  const ObjectRecord* header_arena() const { return objects_.data(); }
  const InRefList* in_ref_arena() const { return in_refs_.data(); }

  size_t partition_count() const { return partitions_.size(); }
  const Partition& partition(PartitionId p) const;
  Partition& mutable_partition(PartitionId p);
  const std::vector<Partition>& partitions() const { return partitions_; }

  // Bytes committed to partitions on disk — the quantity capped by
  // StoreConfig::max_db_bytes. Grows in whole partitions and never
  // shrinks (collections compact within partitions).
  uint64_t committed_bytes() const {
    return static_cast<uint64_t>(partitions_.size()) *
           config_.partition_bytes;
  }
  // Fraction of the capacity occupied by live + uncollected garbage
  // bytes; 0 when uncapped. This is the governor's utilization signal:
  // unlike the committed footprint it falls when collections reclaim.
  double utilization() const {
    if (config_.max_db_bytes == 0) return 0.0;
    return static_cast<double>(used_bytes_) /
           static_cast<double>(config_.max_db_bytes);
  }

  const std::vector<ObjectId>& roots() const { return roots_; }
  bool IsRoot(ObjectId id) const;

  // --- External pins (cross-shard remembered set) ---
  //
  // A refcounted liveness pin held by a referencer *outside* this store
  // — in the sharded multi-tenant engine, an object in another shard
  // whose pointer slot targets this object. Pins extend the
  // slot_backrefs/xpart_in_refs remembered-set machinery across the
  // store boundary: the collector treats every pinned object as a
  // partition root (it can never be reclaimed while pinned), exactly as
  // an object with xpart_in_refs > 0 is protected within one store.
  // Unlike AddRoot, pins are counted, so several remote referencers can
  // pin the same object independently. Kept as a sorted (id, count)
  // vector: iteration order is deterministic for planning and
  // serialization, and the set stays small (one entry per remotely
  // referenced object, not per remote reference).
  void AddExternalPin(ObjectId id);
  // Decrements; drops the entry at zero. CHECK-fails on an unpinned id.
  void RemoveExternalPin(ObjectId id);
  bool IsExternallyPinned(ObjectId id) const;
  // Sorted by object id.
  const std::vector<std::pair<ObjectId, uint32_t>>& external_pins() const {
    return external_pins_;
  }

  // The most recently created object (kNullObject if none, or if the
  // pin is disabled by config). A real application holds a transient
  // reference to its newest allocation until it links the object into
  // the database; the collector treats it as a root so that an in-flight
  // allocation cannot be reclaimed.
  ObjectId newest_object() const {
    return config_.pin_newest_allocation ? newest_object_ : kNullObject;
  }

  uint64_t used_bytes() const { return used_bytes_; }
  uint64_t live_object_count() const { return live_objects_; }
  uint64_t pointer_overwrites() const { return pointer_overwrites_; }
  // Cumulative bytes ever allocated (never decreases; feeds the
  // allocation-clock baseline policies).
  uint64_t allocated_bytes_total() const { return allocated_bytes_total_; }

  BufferPool& buffer_pool() { return *pool_; }
  const BufferPool& buffer_pool() const { return *pool_; }
  const IoStats& io_stats() const { return pool_->stats(); }
  const StoreConfig& config() const { return config_; }
  // Null unless config.enable_disk_timing.
  const DiskModel* disk_model() const { return disk_.get(); }
  // Null unless config.fault has I/O faults enabled.
  const FaultInjector* fault_injector() const { return fault_.get(); }
  // Mutable injector access for the repair path (healing page state).
  FaultInjector* mutable_fault_injector() { return fault_.get(); }

  // --- Quarantine (self-healing) ---
  //
  // A partition whose pages failed checksum verification or whose device
  // died is quarantined: the allocator stops placing objects in it, the
  // collector and the partition selectors skip it, and the simulation
  // excludes its bytes from the policies' accounting until repair
  // restores it to service. Returns false if already quarantined.
  bool QuarantinePartition(PartitionId p);
  // Returns the partition to service (allocation and collection resume).
  void ReleasePartition(PartitionId p);
  bool IsQuarantined(PartitionId p) const {
    return quarantined_count_ != 0 && p < quarantined_.size() &&
           quarantined_[p] != 0;
  }
  size_t quarantined_count() const { return quarantined_count_; }
  // Bytes currently resident in quarantined partitions (zero when none
  // is quarantined, so zero-fault accounting is untouched). Inline: the
  // simulation reads it after every event.
  uint64_t quarantined_used_bytes() const {
    return quarantined_count_ == 0 ? 0 : SumQuarantinedUsedBytes();
  }

  // Rebuilds every piece of derived state from the primary data (slot
  // arena targets + partition object lists + headers + roots): the
  // reverse index (in-ref lists and slot back-references), the
  // cross-partition in-ref counters, and the free-space index. In-ref
  // lists come out in canonical (source id, slot) order — equivalent
  // under the verifier's multiset semantics, deterministic at any thread
  // count. Partition repair calls it once per self-healing tick.
  void RebuildDerivedState();

  // --- Collector support ---

  // Touches every page overlapping [offset, offset+len) of `partition`.
  // Inline: remembered-set maintenance issues one of these per external
  // in-ref, and nearly all of them resolve to a single Access hit.
  void TouchRange(PartitionId partition, uint32_t offset, uint32_t len,
                  bool dirty, IoContext ctx) {
    ODBGC_CHECK(partition < partitions_.size());
    uint32_t first, last;
    if (page_shift_ >= 0) {
      first = offset >> page_shift_;
      last = (offset + len - 1) >> page_shift_;
    } else {
      first = offset / config_.page_bytes;
      last = (offset + len - 1) / config_.page_bytes;
    }
    for (uint32_t pg = first; pg <= last; ++pg) {
      pool_->Access(PageId{partition, pg}, dirty, ctx);
    }
  }

  // Durable (write-through) update of `partition`'s commit-record
  // metadata page, and the matching read used by recovery. Both cost one
  // uncached transfer; the collector's atomic-flip protocol brackets a
  // collection's logical flip with them.
  void CommitRecordWrite(PartitionId partition, IoContext ctx);
  void CommitRecordRead(PartitionId partition, IoContext ctx);

  // Removes a (garbage) object: detaches its out-pointers from the
  // reverse index and frees its record. The caller (collector) is
  // responsible for partition bookkeeping and I/O accounting.
  void DestroyObject(ObjectId id);

  // Moves `id` to a new offset within its partition (compaction).
  // Inline: the collector calls this once per survivor per collection.
  void Relocate(ObjectId id, uint32_t new_offset) {
    mutable_object(id).offset = new_offset;
  }

  // Adjusts the cached used-bytes total (and the allocation free-space
  // index) after a compaction changed `partition`'s used size from
  // `old_used` to `new_used`. Call after the partition's own bookkeeping
  // has been updated.
  void AdjustUsedBytes(PartitionId partition, uint32_t old_used,
                       uint32_t new_used);

  // Highest object id ever created (for iteration); ids are dense-ish.
  ObjectId max_object_id() const {
    return static_cast<ObjectId>(objects_.size() - 1);
  }

  // Allocated entries of the header, in-ref and slot arrays (Reserve's
  // guard in simulation_test).
  struct Capacities {
    size_t objects = 0;
    size_t in_refs = 0;
    size_t slots = 0;
  };
  Capacities capacities() const {
    return {objects_.capacity(), in_refs_.capacity(), slot_arena_.capacity()};
  }

  // Free bytes of `partition` according to the allocation index (the
  // heap verifier cross-checks this against the partition itself).
  uint32_t indexed_free_bytes(PartitionId p) const {
    return free_index_.FreeBytesAt(p);
  }

  // --- Checkpoint hooks (sim/checkpoint.h) ---
  //
  // Saves / restores the complete mutable store: partitions, object
  // records (slots + reverse index), roots, allocation cursor, buffer
  // pool residency, disk-model and fault-injector state, and all
  // counters. The byte format is layout-independent (logical slot and
  // in-ref contents, not arena offsets), so it is unchanged from the
  // AoS store. The free-space index is rebuilt rather than serialized.
  // Restore requires the store to have been constructed with the same
  // StoreConfig.
  void SaveState(SnapshotWriter& w) const;
  void RestoreState(SnapshotReader& r);

 private:
  Partition& PartitionFor(uint32_t size, ObjectId near_hint);
  uint64_t SumQuarantinedUsedBytes() const;

  // O(1) reverse-index maintenance: unlinks the (src, slot) -> target
  // edge, keeping back-pointers and the cross-partition counters in sync,
  // and patches the swap-erased entry's back-pointer.
  void DetachInRef(ObjectId src, uint32_t slot, ObjectId target);

  // The counter block that ends the store's checkpoint, in checkpoint
  // order (util/fields.h Persist). The rest of the store is saved and
  // validated by hand: its object arrays need a fixup pass on restore.
  template <class Io, class Self>
  static void CheckpointCounters(Io& io, Self& self) {
    Persist(io, SectionTag{"CNTR"}, self.used_bytes_, self.live_objects_,
            self.pointer_overwrites_, self.allocated_bytes_total_,
            self.garbage_created_bytes_, self.garbage_created_objects_,
            self.garbage_collected_bytes_, self.garbage_collected_objects_);
  }

  StoreConfig config_;
  std::vector<Partition> partitions_;
  std::vector<ObjectRecord> objects_;  // index 0 unused (null)
  // Slot arena; see ObjectRecord::slot_begin.
  std::vector<Slot> slot_arena_;
  // Reverse-index lists, indexed by ObjectId like objects_.
  std::vector<InRefList> in_refs_;
  std::vector<ObjectId> roots_;
  // Sorted (id, refcount); see AddExternalPin.
  std::vector<std::pair<ObjectId, uint32_t>> external_pins_;
  ObjectId newest_object_ = kNullObject;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<DiskModel> disk_;
  std::unique_ptr<FaultInjector> fault_;
  // Parallel to partitions_ (1 = quarantined) plus a count so the
  // zero-quarantine common case is a single integer compare.
  std::vector<uint8_t> quarantined_;
  size_t quarantined_count_ = 0;
  PartitionId alloc_cursor_ = 0;  // partition last allocated from
  FreeSpaceIndex free_index_;     // first-fit over partition free bytes
  // log2(page_bytes) when page_bytes is a power of two (the common
  // case), else -1; TouchRange turns its per-page divisions into shifts.
  int page_shift_ = -1;

  uint64_t used_bytes_ = 0;
  uint64_t live_objects_ = 0;
  uint64_t pointer_overwrites_ = 0;
  uint64_t allocated_bytes_total_ = 0;
  uint64_t garbage_created_bytes_ = 0;
  uint64_t garbage_created_objects_ = 0;
  uint64_t garbage_collected_bytes_ = 0;
  uint64_t garbage_collected_objects_ = 0;
};

}  // namespace odbgc

#endif  // ODBGC_STORAGE_OBJECT_STORE_H_
