#ifndef ODBGC_GC_COLLECTOR_H_
#define ODBGC_GC_COLLECTOR_H_

#include <cstdint>
#include <vector>

#include "obs/telemetry.h"
#include "storage/fault_injector.h"
#include "storage/mark_bitmap.h"
#include "storage/object_store.h"
#include "storage/types.h"
#include "util/fields.h"
#include "util/snapshot.h"

namespace odbgc {

// Outcome of one partition collection.
struct CollectionReport {
  PartitionId partition = kInvalidPartition;
  uint64_t bytes_before = 0;        // partition bytes in use before
  uint64_t bytes_live = 0;          // surviving bytes after compaction
  uint64_t bytes_reclaimed = 0;     // bytes_before - bytes_live
  uint64_t objects_live = 0;
  uint64_t objects_reclaimed = 0;
  uint64_t gc_reads = 0;            // I/O operations attributed to this GC
  uint64_t gc_writes = 0;
  uint64_t gc_io() const { return gc_reads + gc_writes; }
  // FGS value of the partition at selection time (pointer overwrites
  // accumulated since its previous collection); consumed by FGS/HB.
  uint64_t overwrites_at_collection = 0;
  // An injected crash interrupted this collection at `crash_point`; the
  // store is mid-protocol and the caller must run Recover() before doing
  // anything else with it. The reclaim/live figures above are the values
  // the collection *would* have produced; whether they materialize is
  // decided by recovery (roll forward) or not (roll back).
  bool crashed = false;
  CrashPoint crash_point = CrashPoint::kNone;
  // The partition was quarantined at Collect time; nothing was read,
  // written, or mutated. The caller should pick another partition.
  bool skipped_quarantine = false;
  // The step-1 from-space scan surfaced a corruption detection (checksum
  // mismatch or device fault) in this partition, and the collection
  // aborted *before its commit point*: no object was destroyed, moved,
  // or rewritten, so from-space stays fully authoritative. gc_reads
  // counts the scan that found the damage; the caller quarantines and
  // repairs, then may retry.
  bool aborted_corrupt = false;
};

// Outcome of recovering from an injected crash.
struct RecoveryReport {
  CrashPoint crash_point = CrashPoint::kNone;
  // True: the commit record was durable, so recovery completed the
  // collection (redo). False: the crash preceded the commit point, so
  // recovery discarded the partial collection (undo) and the partition's
  // from-space stayed authoritative.
  bool rolled_forward = false;
  uint64_t redo_external_updates = 0;  // remembered-set entries redone
  size_t dirty_pages_lost = 0;   // volatile buffer contents lost at crash
  uint64_t gc_reads = 0;         // recovery's own I/O
  uint64_t gc_writes = 0;
  // The completed collection (valid only when rolled_forward): the
  // crashed attempt's report finished by recovery, with recovery I/O
  // folded into gc_reads/gc_writes.
  CollectionReport completed;
};

// Partitioned copying collector (Section 3.1, after [CWZ94]):
//
//  * The unit of collection is one partition.
//  * Partition roots are the global roots residing in the partition plus
//    every object referenced from outside the partition (pointers leaving
//    the collected partition are not traversed; pointers entering it are
//    treated as roots, which is what makes the collection safe without
//    scanning other partitions).
//  * Live objects are copied breadth first (Cheney) to offset-compacted
//    positions, improving reference locality.
//  * Everything not reached is reclaimed.
//
// Every collection is split into a read-only *plan* (walk the partition's
// unvisited live objects in a bitmap, derive the Cheney copy order, the
// reclaim set, and the compacted layout — no store mutation, no I/O
// dependence) and an *apply* (the I/O, the flip, the remembered-set
// rewrite, the bookkeeping). The split keeps every store mutation after
// the commit point (step 3 below), and the crash journal holds a copy of
// the plan.
//
// I/O model: the collector scans the partition's used pages (reads),
// writes the compacted survivors, and — because relocation changes object
// positions — reads and rewrites the page of every external object that
// holds a pointer into the partition. All transfers go through the store's
// buffer pool tagged IoContext::kCollector.
//
// Crash consistency (atomic partition-flip commit protocol): with the
// commit protocol enabled, a collection orders its effects as
//
//   1. read from-space, mark, compute the compacted layout
//   2. write to-space                       <- CrashPoint::kAfterCopy
//   3. flush to-space + write commit record (durable, write-through)
//                                           <- CrashPoint::kBeforeFlip
//   4. flip: destroy garbage, relocate survivors, drop the stale tail
//   5. remembered-set update: rewrite every external referencing page
//                                           <- CrashPoint::kMidRememberedSet
//   6. clear commit record, finish partition bookkeeping
//
// The commit record (step 3) is the atomicity point: a crash before it
// rolls back (from-space untouched, nothing logically changed), a crash
// after it rolls forward (recovery replays the flip and/or redoes the
// remembered-set updates from the durable record). Either way no
// reachable object is ever lost. A crash also drops the buffer pool's
// volatile contents, so recovery pays realistic re-read costs.
class Collector {
 public:
  Collector() = default;

  CollectionReport Collect(ObjectStore& store, PartitionId partition);

  // Runs the durable commit protocol on every collection (two
  // write-through metadata transfers plus a to-space flush per
  // collection). Off by default: zero-fault runs stay byte-identical to
  // the protocol-free collector. A scheduled crash forces the protocol
  // for the crashed collection regardless.
  void set_commit_protocol(bool on) { commit_protocol_ = on; }
  bool commit_protocol() const { return commit_protocol_; }

  // Schedules a single injected crash: the `attempt`-th Collect call
  // (1-based, counting every call including rolled-back ones) stops at
  // `point`. The schedule clears once it fires.
  void ScheduleCrash(CrashPoint point, uint64_t attempt);

  // True after a crashed Collect until Recover is called. Collect CHECKs
  // that no recovery is pending.
  bool needs_recovery() const { return journal_.pending; }

  // Rolls the interrupted collection back (crash before the commit
  // point) or forward (crash after it). Leaves the heap verifier-clean.
  RecoveryReport Recover(ObjectStore& store);

  uint64_t collections_performed() const { return collections_; }
  uint64_t crashes_injected() const { return crashes_; }

  // Checkpoint hooks. Checkpoints are taken between trace events, never
  // inside a collection, so the journal must be quiescent (no pending
  // recovery) — CHECKed on save. The crash schedule is part of the
  // persisted state: a resumed run keeps an unfired schedule.
  void SaveState(SnapshotWriter& w) const;
  void RestoreState(SnapshotReader& r);

  // Attaches per-run telemetry (not owned; may be null). A collection
  // records a `collection` span with `scan` / `copy` / `remembered_set`
  // child spans; crashes record an instant and Recover() a `recovery`
  // span. The collector registers no metric: the simulation publishes its
  // counts and records the per-collection histograms.
  void AttachTelemetry(obs::Telemetry* telemetry) { tel_ = telemetry; }

 private:
  // Read-only result of marking one partition: everything a collection
  // decides before it mutates anything.
  struct CollectionPlan {
    std::vector<ObjectId> copy_order;  // survivors, Cheney BFS order
    std::vector<ObjectId> reclaim;     // garbage, partition-list order
    uint32_t new_used = 0;             // compacted survivor bytes
    uint64_t reclaimed_bytes = 0;
  };

  // Durable commit-record contents, captured at the crash point. In a
  // real system this is the journal page the commit protocol writes; the
  // simulation keeps it in memory and charges the I/O explicitly. Never
  // checkpointed: SaveState CHECKs that no recovery is pending.
  struct Journal {
    bool pending = false;
    bool committed = false;  // commit record durable at crash time
    CrashPoint point = CrashPoint::kNone;
    PartitionId partition = kInvalidPartition;
    CollectionPlan plan;  // the crashed collection's plan
    size_t dirty_pages_lost = 0;
    CollectionReport report;  // partial report at crash time
  };

  // One pending remembered-set page rewrite (gathered, then applied in
  // gather order).
  struct RemsetTouch {
    PartitionId partition;
    uint32_t offset;
    uint32_t size;
  };

  // Walks `partition` from its roots over the `unvisited_` bitmap and
  // fills `*plan`. Pure read of the store; `unvisited_` is all clear
  // again when it returns.
  void PlanPartition(const ObjectStore& store, PartitionId partition,
                     CollectionPlan* plan);

  // Applies the logical flip: destroys the reclaim set, relocates the
  // survivors to the compacted layout, and drops the stale buffer tail.
  void ApplyFlip(ObjectStore& store, PartitionId partition,
                 const CollectionPlan& plan);

  // Rewrites the page of external objects referencing a survivor:
  // entries with ordinal in [first, first + count) are touched (count = 0
  // just counts). Returns the total number of external referencing
  // entries, regardless of how many were touched. The walk gathers the
  // external (partition, offset, size) triples first (a pure prefetched
  // memory pass over the survivors' in-ref lists), then issues the page
  // touches in the same order the interleaved walk would have.
  uint64_t UpdateRememberedSets(ObjectStore& store, PartitionId partition,
                                const std::vector<ObjectId>& copy_order,
                                uint64_t first, uint64_t count);

  // Finishes partition bookkeeping and store-level accounting shared by
  // the normal path and roll-forward recovery.
  void FinishCollection(ObjectStore& store, PartitionId partition,
                        const CollectionPlan& plan);

  template <class Io, class Self>
  static void Checkpoint(Io& io, Self& self) {
    Persist(io, SectionTag{"COLL"}, self.collections_, self.attempts_,
            self.crashes_, self.commit_protocol_, self.crash_point_,
            self.crash_attempt_);
  }

  obs::Telemetry* tel_ = nullptr;

  uint64_t collections_ = 0;
  uint64_t attempts_ = 0;
  uint64_t crashes_ = 0;
  bool commit_protocol_ = false;
  CrashPoint crash_point_ = CrashPoint::kNone;
  uint64_t crash_attempt_ = 0;
  Journal journal_;

  // Scratch reused across collections (no alloc churn). `unvisited_`
  // holds, during a plan, the partition's live objects the plan has not
  // reached yet; between plans every bit is clear.
  MarkBitmap unvisited_;
  std::vector<ObjectId> xpart_scratch_;
  CollectionPlan plan_scratch_;
  std::vector<RemsetTouch> remset_scratch_;
};

}  // namespace odbgc

#endif  // ODBGC_GC_COLLECTOR_H_
