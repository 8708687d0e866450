#include "storage/object_store.h"

#include <algorithm>
#include <bit>

#include "sim/errors.h"
#include "util/check.h"

namespace odbgc {

ObjectStore::ObjectStore(const StoreConfig& config) : config_(config) {
  ODBGC_CHECK(config.page_bytes > 0);
  ODBGC_CHECK(config.partition_bytes % config.page_bytes == 0);
  pool_ = std::make_unique<BufferPool>(
      config.buffer_pages, config.partition_bytes / config.page_bytes);
  if (config.enable_disk_timing) {
    disk_ = std::make_unique<DiskModel>(
        config.disk, config.page_bytes,
        config.partition_bytes / config.page_bytes);
    pool_->AttachDiskModel(disk_.get());
  }
  if (config.fault.io_faults_enabled()) {
    fault_ = std::make_unique<FaultInjector>(config.fault, config.fault.seed);
    pool_->AttachFaultInjector(fault_.get());
  }
  if (std::has_single_bit(config.page_bytes)) {
    page_shift_ = std::countr_zero(config.page_bytes);
  }
  objects_.resize(1);  // id 0 = null
  in_refs_.resize(1);
}

Partition& ObjectStore::PartitionFor(uint32_t size, ObjectId near_hint) {
  ODBGC_CHECK_MSG(size <= config_.partition_bytes,
                  "object larger than a partition");
  if (near_hint != kNullObject && Exists(near_hint)) {
    Partition& near = partitions_[objects_[near_hint].partition];
    if (near.Fits(size) && !IsQuarantined(near.id())) return near;
  }
  if (!partitions_.empty() && partitions_[alloc_cursor_].Fits(size) &&
      !IsQuarantined(alloc_cursor_)) {
    return partitions_[alloc_cursor_];
  }
  // First fit over existing partitions (space freed by collections is
  // reused before the database grows). The free-space index returns the
  // lowest-id partition that fits — the same answer the historical O(P)
  // scan gave — in O(log P).
  const uint32_t fit = free_index_.FirstFit(size);
  if (fit != FreeSpaceIndex::kNotFound) {
    alloc_cursor_ = fit;
    return partitions_[fit];
  }
  // Grow: allocation never triggers a collection (Section 3.1). Under a
  // capacity ceiling the growth is bounded: when the next partition
  // would push the committed footprint past max_db_bytes, allocation
  // has truly outrun collection and the store raises the typed error
  // instead of silently growing.
  if (config_.max_db_bytes > 0 &&
      committed_bytes() + config_.partition_bytes > config_.max_db_bytes) {
    throw SpaceExhaustedError(used_bytes_, committed_bytes(),
                              config_.max_db_bytes);
  }
  PartitionId id = static_cast<PartitionId>(partitions_.size());
  partitions_.emplace_back(id, config_.partition_bytes);
  if (!quarantined_.empty()) quarantined_.push_back(0);
  free_index_.PushPartition(config_.partition_bytes);
  alloc_cursor_ = id;
  return partitions_.back();
}

bool ObjectStore::QuarantinePartition(PartitionId p) {
  ODBGC_CHECK(p < partitions_.size());
  if (IsQuarantined(p)) return false;
  if (quarantined_.size() < partitions_.size()) {
    quarantined_.resize(partitions_.size(), 0);
  }
  quarantined_[p] = 1;
  ++quarantined_count_;
  // Hide the partition from the allocator: the free-space index reports
  // it full, and PartitionFor's cursor / hint fast paths check the flag.
  free_index_.Update(p, 0);
  return true;
}

void ObjectStore::ReleasePartition(PartitionId p) {
  ODBGC_CHECK(p < partitions_.size());
  ODBGC_CHECK_MSG(IsQuarantined(p), "releasing a healthy partition");
  quarantined_[p] = 0;
  --quarantined_count_;
  free_index_.Update(p, partitions_[p].free_bytes());
}

uint64_t ObjectStore::SumQuarantinedUsedBytes() const {
  uint64_t total = 0;
  for (const Partition& part : partitions_) {
    if (IsQuarantined(part.id())) total += part.used();
  }
  return total;
}

void ObjectStore::RebuildDerivedState() {
  // Wipe the derived side completely, then rebuild it from the primary
  // data in canonical (source id, slot index) order. The result is
  // verifier-identical to incrementally maintained state (the in-ref
  // lists are unordered multisets) and deterministic regardless of the
  // history that preceded the rebuild.
  for (size_t i = 0; i < objects_.size(); ++i) {
    in_refs_[i].clear();
    objects_[i].xpart_in_refs = 0;
  }
  for (ObjectId id = 1; id < objects_.size(); ++id) {
    const ObjectRecord& rec = objects_[id];
    if (!rec.exists) continue;
    for (uint32_t j = 0; j < rec.slot_count; ++j) {
      const uint32_t pos = rec.slot_begin + j;
      const ObjectId target = slot_arena_[pos].target;
      if (target == kNullObject || !Exists(target)) continue;
      InRefList& tin = in_refs_[target];
      slot_arena_[pos].backref = static_cast<uint32_t>(tin.size());
      tin.push_back(InRef{id, pos});
      if (rec.partition != objects_[target].partition) {
        ++objects_[target].xpart_in_refs;
      }
    }
  }
  for (const Partition& part : partitions_) {
    free_index_.Update(part.id(),
                       IsQuarantined(part.id()) ? 0 : part.free_bytes());
  }
}

void ObjectStore::CreateObject(ObjectId id, uint32_t size,
                               uint32_t num_slots, ObjectId near_hint) {
  ODBGC_CHECK(id != kNullObject);
  // The id-indexed arrays hold id + 1 entries, which must not wrap to 0.
  ODBGC_CHECK_MSG(id != UINT32_MAX, "object id leaves no room for its entry");
  ODBGC_CHECK(size > 0);
  if (id >= objects_.size()) {
    objects_.resize(id + 1);
    in_refs_.resize(id + 1);
  }
  Partition& part = PartitionFor(size, near_hint);
  ObjectRecord& rec = objects_[id];
  ODBGC_CHECK_MSG(!rec.exists, "duplicate object id");
  rec.exists = true;
  rec.size = size;
  rec.partition = part.id();
  rec.offset = part.Allocate(id, size);
  free_index_.Update(part.id(), part.free_bytes());
  // Bump-allocate this object's slot range at the arena tail. Ranges of
  // destroyed (or re-created) objects are abandoned, not recycled.
  rec.slot_begin = static_cast<uint32_t>(slot_arena_.size());
  rec.slot_count = num_slots;
  slot_arena_.resize(slot_arena_.size() + num_slots);
  in_refs_[id].clear();
  rec.xpart_in_refs = 0;
  used_bytes_ += size;
  allocated_bytes_total_ += size;
  ++live_objects_;
  newest_object_ = id;
  TouchRange(rec.partition, rec.offset, rec.size, /*dirty=*/true,
             IoContext::kApplication);
}

void ObjectStore::Reserve(uint32_t id_bound, uint64_t slot_total) {
  objects_.reserve(id_bound);
  in_refs_.reserve(id_bound);
  slot_arena_.reserve(slot_total);
}

void ObjectStore::ReadObject(ObjectId id) {
  const ObjectRecord& rec = object(id);
  TouchRange(rec.partition, rec.offset, rec.size, /*dirty=*/false,
             IoContext::kApplication);
}

void ObjectStore::UpdateObject(ObjectId id) {
  const ObjectRecord& rec = object(id);
  TouchRange(rec.partition, rec.offset, rec.size, /*dirty=*/true,
             IoContext::kApplication);
}

void ObjectStore::DetachInRef(ObjectId src, uint32_t slot, ObjectId target) {
  ObjectRecord& s = objects_[src];
  ObjectRecord& t = objects_[target];
  InRefList& tin = in_refs_[target];
  const uint32_t pos = s.slot_begin + slot;
  const uint32_t idx = slot_arena_[pos].backref;
  // Bounds are checked here (a desynced index must not swap-erase through
  // a foreign list); the deeper entry-identity invariant — tin[idx] names
  // exactly (src, pos) — is the verifier's job, keeping a random entry
  // load out of every pointer overwrite.
  ODBGC_CHECK_MSG(idx < tin.size(), "reverse index out of sync");
  if (s.partition != t.partition) {
    ODBGC_CHECK_MSG(t.xpart_in_refs > 0, "reverse index out of sync");
    --t.xpart_in_refs;
  }
  // Swap-erase (the in-ref list is an unordered multiset); the moved
  // entry's owning slot is patched to its new position. The entry carries
  // its arena position, so no source-header load is needed here.
  const uint32_t last = static_cast<uint32_t>(tin.size()) - 1;
  if (idx != last) {
    const InRef moved = tin[last];
    tin[idx] = moved;
    slot_arena_[moved.backref_pos].backref = idx;
  }
  tin.pop_back();
}

void ObjectStore::AddRoot(ObjectId id) {
  ODBGC_CHECK(Exists(id));
  ODBGC_CHECK(!IsRoot(id));
  roots_.push_back(id);
}

void ObjectStore::RemoveRoot(ObjectId id) {
  auto it = std::find(roots_.begin(), roots_.end(), id);
  ODBGC_CHECK(it != roots_.end());
  roots_.erase(it);
}

bool ObjectStore::IsRoot(ObjectId id) const {
  return std::find(roots_.begin(), roots_.end(), id) != roots_.end();
}

void ObjectStore::AddExternalPin(ObjectId id) {
  ODBGC_CHECK(Exists(id));
  auto it = std::lower_bound(
      external_pins_.begin(), external_pins_.end(), id,
      [](const std::pair<ObjectId, uint32_t>& e, ObjectId v) {
        return e.first < v;
      });
  if (it != external_pins_.end() && it->first == id) {
    ++it->second;
  } else {
    external_pins_.insert(it, {id, 1u});
  }
}

void ObjectStore::RemoveExternalPin(ObjectId id) {
  auto it = std::lower_bound(
      external_pins_.begin(), external_pins_.end(), id,
      [](const std::pair<ObjectId, uint32_t>& e, ObjectId v) {
        return e.first < v;
      });
  ODBGC_CHECK_MSG(it != external_pins_.end() && it->first == id,
                  "removing an external pin that was never added");
  if (--it->second == 0) external_pins_.erase(it);
}

bool ObjectStore::IsExternallyPinned(ObjectId id) const {
  auto it = std::lower_bound(
      external_pins_.begin(), external_pins_.end(), id,
      [](const std::pair<ObjectId, uint32_t>& e, ObjectId v) {
        return e.first < v;
      });
  return it != external_pins_.end() && it->first == id;
}

void ObjectStore::RecordGarbageCreated(uint64_t bytes, uint64_t objects) {
  garbage_created_bytes_ += bytes;
  garbage_created_objects_ += objects;
}

void ObjectStore::RecordGarbageCollected(uint64_t bytes, uint64_t objects) {
  garbage_collected_bytes_ += bytes;
  garbage_collected_objects_ += objects;
}

const Partition& ObjectStore::partition(PartitionId p) const {
  ODBGC_CHECK(p < partitions_.size());
  return partitions_[p];
}

Partition& ObjectStore::mutable_partition(PartitionId p) {
  ODBGC_CHECK(p < partitions_.size());
  return partitions_[p];
}

void ObjectStore::CommitRecordWrite(PartitionId partition, IoContext ctx) {
  ODBGC_CHECK(partition < partitions_.size());
  pool_->WriteThrough(PageId{partition, kMetaPageIndex}, ctx);
}

void ObjectStore::CommitRecordRead(PartitionId partition, IoContext ctx) {
  ODBGC_CHECK(partition < partitions_.size());
  pool_->ReadThrough(PageId{partition, kMetaPageIndex}, ctx);
}

void ObjectStore::DestroyObject(ObjectId id) {
  ObjectRecord& rec = mutable_object(id);
  for (uint32_t slot = 0; slot < rec.slot_count; ++slot) {
    const ObjectId target = slot_arena_[rec.slot_begin + slot].target;
    if (target == kNullObject) continue;
    // The target may itself have been destroyed earlier in this sweep.
    if (!Exists(target)) continue;
    DetachInRef(id, slot, target);
  }
  // Note: used_bytes_ is not reduced here. The object's bytes still occupy
  // from-space until the collector compacts the partition and calls
  // AdjustUsedBytes().
  --live_objects_;
  rec.exists = false;
  // The slot range is abandoned in the arenas (bump allocation).
  rec.slot_count = 0;
  in_refs_[id].clear();
  in_refs_[id].shrink_to_fit();
  rec.xpart_in_refs = 0;
}

void ObjectStore::AdjustUsedBytes(PartitionId partition, uint32_t old_used,
                                  uint32_t new_used) {
  ODBGC_CHECK(used_bytes_ + new_used >= old_used);
  used_bytes_ = used_bytes_ - old_used + new_used;
  ODBGC_CHECK(partition < partitions_.size());
  free_index_.Update(partition, partitions_[partition].free_bytes());
}

void ObjectStore::SaveState(SnapshotWriter& w) const {
  w.Tag("STOR");
  w.U64(partitions_.size());
  for (const Partition& p : partitions_) p.SaveState(w);

  // Logical per-object content in the historical (AoS) field order —
  // slots, in-ref sources, in-ref slots, slot back-references — so the
  // byte format is independent of the arena layout.
  w.U64(objects_.size());
  std::vector<uint32_t> tmp;
  for (size_t i = 0; i < objects_.size(); ++i) {
    const ObjectRecord& rec = objects_[i];
    w.Bool(rec.exists);
    if (!rec.exists) continue;
    w.U32(rec.size);
    w.U32(rec.partition);
    w.U32(rec.offset);
    tmp.clear();
    for (uint32_t j = 0; j < rec.slot_count; ++j) {
      tmp.push_back(slot_arena_[rec.slot_begin + j].target);
    }
    SaveField(w, tmp);
    const InRefList& tin = in_refs_[i];
    tmp.clear();
    for (const InRef& ir : tin) tmp.push_back(ir.src);
    SaveField(w, tmp);
    tmp.clear();
    // Serialized as relative slot indices (the historical byte format):
    // arena positions are layout-dependent and rebuilt on restore.
    for (const InRef& ir : tin) {
      tmp.push_back(ir.backref_pos - objects_[ir.src].slot_begin);
    }
    SaveField(w, tmp);
    tmp.clear();
    for (uint32_t j = 0; j < rec.slot_count; ++j) {
      tmp.push_back(slot_arena_[rec.slot_begin + j].backref);
    }
    SaveField(w, tmp);
    w.U32(rec.xpart_in_refs);
  }

  SaveField(w, roots_);
  // External pins, already in ascending id order (sorted invariant).
  std::vector<uint32_t> pin_ids;
  std::vector<uint32_t> pin_counts;
  for (const auto& [id, count] : external_pins_) {
    pin_ids.push_back(id);
    pin_counts.push_back(count);
  }
  SaveField(w, pin_ids);
  SaveField(w, pin_counts);
  w.U32(newest_object_);
  w.U32(alloc_cursor_);
  // Quarantined partition ids, ascending (the flag vector is positional,
  // so iteration order is already sorted).
  std::vector<uint32_t> quarantined_ids;
  for (PartitionId p = 0; p < quarantined_.size(); ++p) {
    if (quarantined_[p] != 0) quarantined_ids.push_back(p);
  }
  SaveField(w, quarantined_ids);

  w.Tag("POOL");
  pool_->SaveState(w);
  w.Bool(disk_ != nullptr);
  if (disk_ != nullptr) disk_->SaveState(w);
  w.Bool(fault_ != nullptr);
  if (fault_ != nullptr) fault_->SaveState(w);

  CheckpointCounters(w, *this);
}

void ObjectStore::RestoreState(SnapshotReader& r) {
  r.Tag("STOR");
  const uint64_t part_count = r.U64();
  if (!r.ok()) return;
  partitions_.clear();
  free_index_ = FreeSpaceIndex();
  for (uint64_t i = 0; i < part_count && r.ok(); ++i) {
    partitions_.emplace_back(static_cast<PartitionId>(i),
                             config_.partition_bytes);
    partitions_.back().RestoreState(r);
    free_index_.PushPartition(partitions_.back().free_bytes());
  }
  const uint64_t obj_count = r.U64();
  // Every object takes at least its exists byte.
  if (!r.ok() || obj_count > r.remaining()) {
    r.MarkMalformed("object count exceeds snapshot");
    return;
  }
  objects_.clear();
  objects_.resize(static_cast<size_t>(obj_count));
  in_refs_.clear();
  in_refs_.resize(static_cast<size_t>(obj_count));
  slot_arena_.clear();
  for (uint64_t i = 0; i < obj_count && r.ok(); ++i) {
    ObjectRecord& rec = objects_[i];
    rec.exists = r.Bool();
    if (!rec.exists) continue;
    std::vector<uint32_t> slots;
    std::vector<uint32_t> srcs;
    std::vector<uint32_t> src_slots;
    std::vector<uint32_t> backrefs;
    Persist(r, rec.size, rec.partition, rec.offset, slots, srcs, src_slots,
            backrefs, rec.xpart_in_refs);
    if (!r.ok()) return;
    if (srcs.size() != src_slots.size() || backrefs.size() != slots.size()) {
      r.MarkMalformed("object reverse-index arrays disagree");
      return;
    }
    rec.slot_begin = static_cast<uint32_t>(slot_arena_.size());
    rec.slot_count = static_cast<uint32_t>(slots.size());
    for (size_t k = 0; k < slots.size(); ++k) {
      slot_arena_.push_back(Slot{slots[k], backrefs[k]});
    }
    InRefList& tin = in_refs_[i];
    tin.clear();
    tin.reserve(srcs.size());
    for (size_t k = 0; k < srcs.size(); ++k) {
      // backref_pos temporarily holds the relative slot; the fixup pass
      // below resolves it once every source's slot_begin is known.
      tin.push_back(InRef{srcs[k], src_slots[k]});
    }
  }
  // Fixup: resolve relative slot indices to arena positions. Sources with
  // ids above the owner are not yet placed during the loop above, so this
  // must run after every header's slot_begin is final.
  for (uint64_t i = 0; i < obj_count && r.ok(); ++i) {
    for (InRef& ir : in_refs_[i]) {
      if (ir.src < objects_.size() && objects_[ir.src].exists) {
        ir.backref_pos += objects_[ir.src].slot_begin;
      }
    }
  }

  std::vector<uint32_t> pin_ids;
  std::vector<uint32_t> pin_counts;
  std::vector<uint32_t> quarantined_ids;
  Persist(r, roots_, pin_ids, pin_counts, newest_object_, alloc_cursor_,
          quarantined_ids);
  if (pin_counts.size() != pin_ids.size()) {
    r.MarkMalformed("external pin id/count length mismatch");
    return;
  }
  external_pins_.clear();
  for (size_t i = 0; i < pin_ids.size(); ++i) {
    if (i > 0 && pin_ids[i] <= pin_ids[i - 1]) {
      r.MarkMalformed("external pins not strictly ascending");
      return;
    }
    if (pin_counts[i] == 0) {
      r.MarkMalformed("external pin with zero count");
      return;
    }
    external_pins_.emplace_back(pin_ids[i], pin_counts[i]);
  }
  quarantined_.clear();
  quarantined_count_ = 0;
  for (uint32_t p : quarantined_ids) {
    if (p >= partitions_.size()) {
      r.MarkMalformed("quarantined partition out of range");
      return;
    }
    if (quarantined_.size() < partitions_.size()) {
      quarantined_.resize(partitions_.size(), 0);
    }
    quarantined_[p] = 1;
    ++quarantined_count_;
    free_index_.Update(p, 0);
  }

  r.Tag("POOL");
  pool_->RestoreState(r, static_cast<uint32_t>(partitions_.size()));
  if (r.Bool()) {
    if (disk_ == nullptr) {
      r.MarkMalformed("snapshot has disk-model state but timing is off");
      return;
    }
    disk_->RestoreState(r);
  }
  if (r.Bool()) {
    if (fault_ == nullptr) {
      r.MarkMalformed("snapshot has fault-injector state but faults are off");
      return;
    }
    fault_->RestoreState(r);
  }

  CheckpointCounters(r, *this);
}

}  // namespace odbgc
