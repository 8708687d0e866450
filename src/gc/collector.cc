#include "gc/collector.h"

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace odbgc {

void Collector::SaveState(SnapshotWriter& w) const {
  ODBGC_CHECK_MSG(!journal_.pending,
                  "checkpoint with a pending GC recovery");
  Checkpoint(w, *this);
}

void Collector::RestoreState(SnapshotReader& r) {
  Checkpoint(r, *this);
  journal_ = Journal();
}

void Collector::ScheduleCrash(CrashPoint point, uint64_t attempt) {
  ODBGC_CHECK(point != CrashPoint::kNone);
  crash_point_ = point;
  // 1-based; 0 means "the next Collect call".
  crash_attempt_ = attempt == 0 ? attempts_ + 1 : attempt;
}

void Collector::PlanPartition(const ObjectStore& store, PartitionId partition,
                              CollectionPlan* plan) {
  std::vector<ObjectId>& copy_order = plan->copy_order;
  std::vector<ObjectId>& reclaim = plan->reclaim;
  copy_order.clear();
  reclaim.clear();
  plan->new_used = 0;
  plan->reclaimed_bytes = 0;

  // `unvisited_` is a word-packed bitmap over object ids holding exactly
  // the partition's live objects not reached yet. One TestAndClear is
  // then both the partition test and the first-visit test, so the walk
  // never loads the header of a slot target in another partition. It is
  // all clear between plans: it only grows to cover new ids, and the
  // reclaim pass below clears the bits the walk left.
  unvisited_.GrowTo(store.max_object_id() + 1);
  const ObjectRecord* headers = store.header_arena();
  const std::vector<ObjectId>& resident = store.partition(partition).objects();
  const size_t resident_count = resident.size();
  // Partition roots: global roots in this partition, plus objects with at
  // least one referencing slot held by an object outside this partition
  // (the store's cross-partition in-ref counters answer that in O(1) per
  // object; the reverse-index lists are never scanned). The resident pass
  // lists the latter to visit after the global roots.
  std::vector<ObjectId>& xpart = xpart_scratch_;
  xpart.clear();
  for (size_t i = 0; i < resident_count; ++i) {
    // Resident ids are dense in the list but their headers are not;
    // stream the header loads ahead of the xpart test.
    if (i + 8 < resident_count) __builtin_prefetch(&headers[resident[i + 8]]);
    const ObjectId id = resident[i];
    ODBGC_CHECK_MSG(store.Exists(id), "partition lists a destroyed object");
    unvisited_.Set(id);
    if (headers[id].xpart_in_refs > 0) xpart.push_back(id);
  }

  // copy_order doubles as the BFS worklist (head cursor), which makes it
  // exactly the Cheney breadth-first copy order.
  auto visit = [&](ObjectId id) {
    if (unvisited_.TestAndClear(id)) copy_order.push_back(id);
  };
  for (ObjectId root : store.roots()) visit(root);
  // Externally pinned objects (the cross-shard remembered set): a
  // referencer in another store holds them live, exactly as an in-store
  // cross-partition in-ref would. The pin list is sorted by id, so this
  // walk is deterministic.
  for (const auto& [pinned, count] : store.external_pins()) {
    (void)count;
    if (store.Exists(pinned)) visit(pinned);
  }
  // The newest allocation is pinned: the application still holds a
  // transient reference to it even if it is not linked in yet.
  const ObjectId newest = store.newest_object();
  if (newest != kNullObject && store.Exists(newest)) visit(newest);
  for (ObjectId id : xpart) visit(id);

  // Cheney breadth-first traversal; pointers leaving the partition, and
  // null slots (id 0 is never resident), find their bit clear and are
  // not traversed.
  const Slot* slot_arena = store.slot_arena();
  uint32_t new_used = 0;
  for (size_t head = 0; head < copy_order.size(); ++head) {
    if (head + 1 < copy_order.size()) {
      // Pull the next worklist entry's slot range in while this one scans.
      __builtin_prefetch(slot_arena + headers[copy_order[head + 1]].slot_begin);
    }
    const ObjectRecord& rec = headers[copy_order[head]];
    new_used += rec.size;
    const Slot* slots = slot_arena + rec.slot_begin;
    const uint32_t n = rec.slot_count;
    for (uint32_t i = 0; i < n; ++i) visit(slots[i].target);
  }

  // Plan the reclaim set and the compacted layout WITHOUT mutating the
  // store: nothing is destroyed or relocated until the flip, so a crash
  // before the commit point leaves from-space fully authoritative. The
  // residents still unvisited are the garbage; clearing their bits
  // leaves the bitmap clear for the next plan.
  for (ObjectId id : resident) {
    if (!unvisited_.TestAndClear(id)) continue;
    ODBGC_CHECK_MSG(!store.IsRoot(id), "collector reclaiming a root");
    ODBGC_CHECK_MSG(!store.IsExternallyPinned(id),
                    "collector reclaiming an externally pinned object");
    plan->reclaimed_bytes += headers[id].size;
    reclaim.push_back(id);
  }
  plan->new_used = new_used;
}

CollectionReport Collector::Collect(ObjectStore& store,
                                    PartitionId partition) {
  ODBGC_CHECK_MSG(!journal_.pending,
                  "Collect while crash recovery is pending");
  if (store.IsQuarantined(partition)) {
    // A quarantined partition's pages are suspect and its derived state
    // is pending repair; collecting it could consume corrupt data.
    CollectionReport report;
    report.partition = partition;
    report.skipped_quarantine = true;
    return report;
  }
  PlanPartition(store, partition, &plan_scratch_);
  const CollectionPlan& plan = plan_scratch_;

  ++attempts_;
  const bool crash_now =
      crash_point_ != CrashPoint::kNone && attempts_ == crash_attempt_;
  const CrashPoint crash_point =
      crash_now ? crash_point_ : CrashPoint::kNone;
  // A scheduled crash forces the durable protocol for this collection so
  // that the commit record it relies on actually exists.
  const bool protocol = commit_protocol_ || crash_now;

  Partition& part = store.mutable_partition(partition);
  CollectionReport report;
  report.partition = partition;
  report.bytes_before = part.used();
  report.overwrites_at_collection = part.overwrites();

  const IoStats before_io = store.io_stats();

  ODBGC_TEL_SPAN(collection_span, tel_, "collection",
                 {{"partition", partition},
                  {"bytes_before", report.bytes_before}});
  ODBGC_IF_TEL(tel_) { tel_->Begin("scan"); }

  // 1. Read the partition's from-space (sequential scan of its used pages).
  // The marking itself already happened in PlanPartition — it is a pure
  // in-memory computation, so planning ahead of this read changes no I/O.
  if (part.used() > 0) {
    store.TouchRange(partition, 0, part.used(), /*dirty=*/false,
                     IoContext::kCollector);
  }

  // Damage gate: if the from-space scan surfaced a detection (checksum
  // mismatch, device fault) in this partition, abort before anything is
  // written or flipped. Nothing has mutated yet — plan was a pure memory
  // computation and step 1 was read-only — so from-space remains
  // authoritative and the caller can quarantine + repair, then retry.
  if (store.buffer_pool().HasPendingCorruption(partition)) {
    report.aborted_corrupt = true;
    const IoStats at_abort = store.io_stats();
    report.gc_reads = at_abort.gc_reads - before_io.gc_reads;
    report.gc_writes = at_abort.gc_writes - before_io.gc_writes;
    ODBGC_IF_TEL(tel_) { tel_->End("scan"); }
    ODBGC_IF_TEL(tel_) {
      tel_->Instant("collection_aborted_corrupt",
                    {{"partition", partition}});
    }
    return report;
  }

  const std::vector<ObjectId>& copy_order = plan.copy_order;
  const uint32_t new_used = plan.new_used;
  ODBGC_CHECK(report.bytes_before == new_used + plan.reclaimed_bytes);

  report.bytes_live = new_used;
  report.bytes_reclaimed = plan.reclaimed_bytes;
  report.objects_live = copy_order.size();
  report.objects_reclaimed = plan.reclaim.size();

  ODBGC_IF_TEL(tel_) {
    tel_->End("scan", {{"objects_live", report.objects_live},
                       {"objects_reclaimed", report.objects_reclaimed}});
  }

  // Simulated power cut: capture the durable journal, drop the volatile
  // buffer contents, and hand the partial report back to the caller.
  auto crash = [&](bool committed) -> CollectionReport {
    journal_.pending = true;
    journal_.committed = committed;
    journal_.point = crash_point;
    journal_.partition = partition;
    journal_.plan = plan;
    journal_.dirty_pages_lost = store.buffer_pool().DiscardAll();
    ++crashes_;
    crash_point_ = CrashPoint::kNone;  // single shot
    crash_attempt_ = 0;
    const IoStats at_crash = store.io_stats();
    report.gc_reads = at_crash.gc_reads - before_io.gc_reads;
    report.gc_writes = at_crash.gc_writes - before_io.gc_writes;
    report.crashed = true;
    report.crash_point = journal_.point;
    journal_.report = report;
    ODBGC_IF_TEL(tel_) {
      tel_->Instant("crash", {{"partition", partition},
                              {"crash_point", CrashPointName(journal_.point)},
                              {"committed", committed ? 1 : 0}});
    }
    return report;
  };

  // 2. Write the compacted to-space.
  ODBGC_IF_TEL(tel_) { tel_->Begin("copy", {{"bytes_live", new_used}}); }
  if (new_used > 0) {
    store.TouchRange(partition, 0, new_used, /*dirty=*/true,
                     IoContext::kCollector);
  }
  if (crash_point == CrashPoint::kAfterCopy) {
    ODBGC_IF_TEL(tel_) { tel_->End("copy"); }
    return crash(/*committed=*/false);
  }

  // 3. Commit point: force the to-space copy to disk, then make the
  // commit record durable (write-through, never cached).
  if (protocol) {
    store.buffer_pool().FlushPartition(partition, IoContext::kCollector);
    store.CommitRecordWrite(partition, IoContext::kCollector);
  }
  ODBGC_IF_TEL(tel_) { tel_->End("copy"); }
  if (crash_point == CrashPoint::kBeforeFlip) {
    return crash(/*committed=*/true);
  }

  // 4. Flip: destroy garbage, relocate survivors, drop the stale tail.
  ApplyFlip(store, partition, plan);

  // 5. Remembered-set update: relocation invalidates external pointers
  // into this partition, so the referencing slot of every external source
  // is rewritten, costing a read (and dirty write-back) of its page.
  ODBGC_IF_TEL(tel_) { tel_->Begin("remembered_set"); }
  if (crash_point == CrashPoint::kMidRememberedSet) {
    const uint64_t total =
        UpdateRememberedSets(store, partition, copy_order, 0, 0);
    UpdateRememberedSets(store, partition, copy_order, 0, total / 2);
    ODBGC_IF_TEL(tel_) { tel_->End("remembered_set"); }
    return crash(/*committed=*/true);
  }
  const uint64_t external_updates =
      UpdateRememberedSets(store, partition, copy_order, 0, UINT64_MAX);
  ODBGC_IF_TEL(tel_) {
    tel_->End("remembered_set", {{"external_updates", external_updates}});
  }

  // 6. Clear the commit record and finish partition bookkeeping.
  if (protocol) {
    store.CommitRecordWrite(partition, IoContext::kCollector);
  }
  FinishCollection(store, partition, plan);

  const IoStats after_io = store.io_stats();
  report.gc_reads = after_io.gc_reads - before_io.gc_reads;
  report.gc_writes = after_io.gc_writes - before_io.gc_writes;
  return report;
}

RecoveryReport Collector::Recover(ObjectStore& store) {
  ODBGC_CHECK_MSG(journal_.pending, "Recover without a pending crash");
  RecoveryReport rec;
  rec.crash_point = journal_.point;
  rec.dirty_pages_lost = journal_.dirty_pages_lost;
  const PartitionId partition = journal_.partition;
  const IoStats before_io = store.io_stats();

  ODBGC_TEL_SPAN(recovery_span, tel_, "recovery",
                 {{"partition", partition},
                  {"crash_point", CrashPointName(journal_.point)}});

  // Restart probe: read the commit record to learn whether the crashed
  // collection reached its commit point.
  store.CommitRecordRead(partition, IoContext::kCollector);

  if (!journal_.committed) {
    // Roll back. The flip never became durable, so from-space remains
    // authoritative: no object was destroyed or moved, and the partial
    // to-space copy died with the buffer pool. Dropping the journal is
    // the whole undo.
    rec.rolled_forward = false;
  } else {
    // Roll forward: the commit record is durable, so the collection must
    // complete. kBeforeFlip crashed with the flip still unapplied;
    // kMidRememberedSet crashed after it.
    rec.rolled_forward = true;
    if (journal_.point == CrashPoint::kBeforeFlip) {
      ApplyFlip(store, partition, journal_.plan);
    }
    // Redo every remembered-set update. The update set is recomputed from
    // the survivors' reverse index (external object positions are
    // unchanged by the crash) and replayed in full: the crash dropped the
    // volatile buffer, so recovery cannot know which rewrites reached
    // disk, and page rewrites are idempotent.
    rec.redo_external_updates = UpdateRememberedSets(
        store, partition, journal_.plan.copy_order, 0, UINT64_MAX);
    store.CommitRecordWrite(partition, IoContext::kCollector);  // clear
    FinishCollection(store, partition, journal_.plan);
  }

  const IoStats after_io = store.io_stats();
  rec.gc_reads = after_io.gc_reads - before_io.gc_reads;
  rec.gc_writes = after_io.gc_writes - before_io.gc_writes;
  if (rec.rolled_forward) {
    rec.completed = journal_.report;
    rec.completed.gc_reads += rec.gc_reads;
    rec.completed.gc_writes += rec.gc_writes;
  }
  journal_ = Journal{};
  return rec;
}

void Collector::ApplyFlip(ObjectStore& store, PartitionId partition,
                          const CollectionPlan& plan) {
  // Destroying a garbage object detaches its out-pointers, which may
  // clear external references into other partitions (their floating
  // garbage becomes collectable later).
  for (ObjectId id : plan.reclaim) store.DestroyObject(id);
  // Compact survivors in copy order (to-space starts at offset 0).
  uint32_t offset = 0;
  for (ObjectId id : plan.copy_order) {
    store.Relocate(id, offset);
    offset += store.object(id).size;
  }
  ODBGC_CHECK(offset == plan.new_used);
  // Pages past the compacted tail no longer exist; drop without flushing.
  const uint32_t page_bytes = store.config().page_bytes;
  const uint32_t first_dead_page =
      (plan.new_used + page_bytes - 1) / page_bytes;
  store.buffer_pool().DropPartitionTail(partition, first_dead_page);
}

uint64_t Collector::UpdateRememberedSets(ObjectStore& store,
                                         PartitionId partition,
                                         const std::vector<ObjectId>& copy_order,
                                         uint64_t first, uint64_t count) {
  // Gather pass: walk the survivors' in-ref lists and collect the page
  // ranges of external sources. This is a pure memory walk; the
  // buffer-pool touches are issued afterwards in gather order, which is
  // exactly the order the historical interleaved walk used (touches never
  // move objects, so gathering first cannot change what is gathered).
  // The in-ref lists are short, so software prefetch overhead costs more
  // here than the stalls it hides; the hardware prefetcher handles the
  // sequential entry reads.
  std::vector<RemsetTouch>& touches = remset_scratch_;
  touches.clear();
  const ObjectRecord* headers = store.header_arena();
  const InRefList* in_refs = store.in_ref_arena();
  for (ObjectId id : copy_order) {
    // A survivor's cross-partition in-ref counter is exactly the number
    // of entries this walk would keep; zero means the whole list is
    // same-partition sources (rewritten by the copy), so skip the list
    // walk — most OO7 objects are only referenced from their own cluster.
    if (headers[id].xpart_in_refs == 0) continue;
    for (const InRef& ir : in_refs[id]) {
      const ObjectRecord& s = headers[ir.src];
      if (s.partition == partition) continue;  // rewritten by the copy
      touches.push_back(RemsetTouch{s.partition, s.offset, s.size});
    }
  }
  const uint64_t total = touches.size();
  // Touch entries with ordinal in [first, first + count), clamped.
  uint64_t end = total;
  if (first < total && count < total - first) end = first + count;
  for (uint64_t i = first; i < end; ++i) {
    const RemsetTouch& t = touches[i];
    store.TouchRange(t.partition, t.offset, t.size, /*dirty=*/true,
                     IoContext::kCollector);
  }
  return total;
}

void Collector::FinishCollection(ObjectStore& store, PartitionId partition,
                                 const CollectionPlan& plan) {
  Partition& part = store.mutable_partition(partition);
  const uint32_t old_used = part.used();
  part.ResetAfterCollection(plan.copy_order, plan.new_used);
  part.set_last_collected_stamp(++collections_);
  store.AdjustUsedBytes(partition, old_used, plan.new_used);
  store.RecordGarbageCollected(plan.reclaimed_bytes, plan.reclaim.size());
}

}  // namespace odbgc
