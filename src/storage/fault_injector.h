#ifndef ODBGC_STORAGE_FAULT_INJECTOR_H_
#define ODBGC_STORAGE_FAULT_INJECTOR_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "storage/types.h"
#include "util/fields.h"
#include "util/random.h"
#include "util/snapshot.h"

namespace odbgc {

// Named points inside one partition collection at which an injected
// crash can interrupt the collector (see gc/collector.h for the commit
// protocol these bracket).
enum class CrashPoint : uint8_t {
  kNone = 0,
  // To-space copy written, commit record NOT yet durable. Recovery must
  // roll the collection back; from-space stays authoritative.
  kAfterCopy = 1,
  // Commit record durable, forwarding flip not yet applied. Recovery must
  // roll forward past the commit point.
  kBeforeFlip = 2,
  // Flip applied, remembered-set (external pointer) updates interrupted
  // midway. Recovery must redo the updates from the commit record.
  kMidRememberedSet = 3,
};

const char* CrashPointName(CrashPoint p);

template <>
struct EnumTraits<CrashPoint> {
  static constexpr CrashPoint kLast = CrashPoint::kMidRememberedSet;
};

// Deterministic fault schedule for one run. Part of the run's
// configuration, so identical seed + identical plan reproduces the exact
// same fault sequence (at any --threads; runner.h's ApplyRunSeeds mixes
// the per-run seed in). All knobs default to "no faults": a default plan
// leaves behavior and output byte-identical to a build without it.
#define ODBGC_FAULT_PLAN_FIELDS(X)                                        \
  /* Per-attempt probability that a page read / write transfer fails      \
     transiently. A failed attempt is retried (with backoff) up to        \
     max_retries times; if every attempt fails the error is permanent. */ \
  X(double, read_fault_prob, 0.0)                                         \
  X(double, write_fault_prob, 0.0)                                        \
  /* Probability that a completed write leaves the page torn. A torn      \
     page is detected on its next read and repaired by a rewrite. */      \
  X(double, torn_write_prob, 0.0)                                         \
  /* Probability that a completed write silently flips bits in the        \
     stored page image. Nothing is reported at write time; the per-page   \
     checksum catches the mismatch on the next media read (demand miss    \
     or scrub). */                                                        \
  X(double, bitflip_prob, 0.0)                                            \
  /* Latent media decay: probability that a completed write leaves the    \
     page on a weak sector that rots after decay_latency further          \
     physical transfers (to any page). Like a bit-flip, the rot is only   \
     observable as a checksum mismatch once the page is next read from    \
     media. */                                                            \
  X(double, decay_prob, 0.0)                                              \
  X(uint32_t, decay_latency, 64)                                          \
  /* Permanent device faults: probability that a completed write kills    \
     the page's physical location for good (every later transfer fails    \
     without retry), and — given a dead page — the conditional            \
     probability that the whole partition's device dies with it. Dead     \
     locations stay dead until repair remaps them (HealPartition). */     \
  X(double, dead_page_prob, 0.0)                                          \
  X(double, dead_partition_prob, 0.0)                                     \
  X(uint32_t, max_retries, 3)                                             \
  /* Base backoff charged to the disk-time model before the first         \
     retry; doubles per subsequent retry. Ignored unless disk timing is   \
     enabled. */                                                          \
  X(double, retry_backoff_ms, 0.5)                                        \
  /* Run the durable commit protocol (to-space flush + commit-record      \
     write-through) on every collection, not only the crashed one.        \
     Costs extra GC writes; required for crash consistency in faulted     \
     runs. */                                                             \
  X(bool, commit_protocol, false)

struct FaultPlan {
  ODBGC_FIELD_TABLE(ODBGC_FAULT_PLAN_FIELDS)

  // Not fingerprinted: a resumed run restores the live RNG state from
  // its checkpoint and drops the crash schedule that killed it.
  //
  // Mixed with the run seed by ApplyRunSeeds; used raw when a store is
  // constructed directly (unit fixtures).
  uint64_t seed = 0;
  // Single-shot crash schedule: the crash_at_collection-th call of
  // Collector::Collect (1-based) stops at crash_point; the simulation
  // then runs recovery. kNone disables.
  CrashPoint crash_point = CrashPoint::kNone;
  uint64_t crash_at_collection = 0;
  // Whole-process crash schedule: kill the simulation after the Nth
  // applied trace event (1-based; 0 disables). Unlike crash_point this
  // models losing the process anywhere, not just inside a collection;
  // the run aborts with SimCrashInjected and is expected to be resumed
  // from its last checkpoint (sim/checkpoint.h).
  uint64_t crash_at_event = 0;

  bool io_faults_enabled() const {
    return read_fault_prob > 0.0 || write_fault_prob > 0.0 ||
           torn_write_prob > 0.0 || bitflip_prob > 0.0 || decay_prob > 0.0 ||
           dead_page_prob > 0.0;
  }
  bool enabled() const {
    return io_faults_enabled() || crash_point != CrashPoint::kNone ||
           commit_protocol || crash_at_event != 0;
  }
};

// Outcome of injecting faults into one physical page transfer.
struct FaultOutcome {
  uint32_t retries = 0;      // failed attempts that were retried
  bool permanent = false;    // every attempt failed
  bool torn = false;         // write completed but left the page torn
  bool repaired_tear = false;  // read detected a torn page (rewrite due)
  // The read returned a page image whose CRC does not match its stored
  // checksum (earlier bit-flip or materialized decay). The page's logical
  // content is unusable until repair rewrites it from the primary copy.
  bool corrupt = false;
  bool bitflipped = false;   // write silently corrupted the stored image
  bool decay_armed = false;  // write landed on a weak sector (latent)
  // The page's (or its partition's) physical location is permanently
  // dead: the transfer failed outright, no retry can help.
  bool dead = false;
};

// Deterministic fault source for the buffer pool's physical transfers.
// One injector per ObjectStore: its RNG stream is consumed in transfer
// order, which is itself deterministic per run, so a (plan, seed) pair
// fully determines every fault. Tracks the set of currently-torn pages:
// a tear persists until the page is rewritten or its read repairs it.
class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, uint64_t seed);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Decides the fate of one read / write transfer of `page`. Each call
  // advances the RNG by the number of attempts, plus — per completed
  // write — one draw per enabled post-write fault kind (tear, bit-flip,
  // decay, dead page; disabled kinds draw nothing, so adding a knob at
  // probability zero leaves existing fault streams untouched).
  FaultOutcome OnRead(PageId page);
  FaultOutcome OnWrite(PageId page);

  const FaultPlan& plan() const { return plan_; }
  size_t torn_page_count() const { return torn_.size(); }
  size_t corrupt_page_count() const { return corrupt_.size(); }
  size_t decaying_page_count() const { return decaying_.size(); }
  size_t dead_page_count() const { return dead_pages_.size(); }
  size_t dead_partition_count() const { return dead_partitions_.size(); }
  bool page_dead(PageId page) const {
    return dead_partitions_.count(page.partition) != 0 ||
           dead_pages_.count(page) != 0;
  }
  bool partition_dead(PartitionId p) const {
    return dead_partitions_.count(p) != 0;
  }

  // Repair hook: clears all health state for every page of a partition
  // (models rewriting from the primary copy plus remapping dead locations
  // to spare sectors or a replacement device).
  void HealPartition(PartitionId p);
  // Pages at index >= first_page of `p` were physically discarded (the
  // partition shrank); their content no longer exists, so pending tears,
  // corruption and decay schedules for them are moot. Dead locations stay
  // dead — a device fault outlives the data.
  void ForgetTail(PartitionId p, uint32_t first_page);

  // Checkpoint hooks: RNG stream position and the per-page health state
  // (the plan itself is configuration and travels with SimConfig).
  void SaveState(SnapshotWriter& w) const { Checkpoint(w, *this); }
  void RestoreState(SnapshotReader& r) { Checkpoint(r, *this); }

 private:
  // Runs the retry loop for one transfer with per-attempt failure
  // probability `prob`.
  FaultOutcome Attempt(double prob);

  // The health sets travel in key order, so the bytes are stable.
  template <class Io, class Self>
  static void Checkpoint(Io& io, Self& self) {
    Persist(io, self.rng_, self.torn_, self.transfers_, self.corrupt_,
            self.decaying_, self.dead_pages_, self.dead_partitions_);
  }

  FaultPlan plan_;
  Rng rng_;
  std::unordered_set<PageId, PageIdHash> torn_;
  // Pages whose stored image fails its checksum (detected on next read).
  std::unordered_set<PageId, PageIdHash> corrupt_;
  // Weak sectors: page -> transfer count at which the image rots.
  std::unordered_map<PageId, uint64_t, PageIdHash> decaying_;
  std::unordered_set<PageId, PageIdHash> dead_pages_;
  std::unordered_set<PartitionId> dead_partitions_;
  uint64_t transfers_ = 0;  // physical transfers seen (decay clock)
};

}  // namespace odbgc

#endif  // ODBGC_STORAGE_FAULT_INJECTOR_H_
