#ifndef ODBGC_OBS_DECISION_LEDGER_H_
#define ODBGC_OBS_DECISION_LEDGER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/bounded_ring.h"
#include "util/fields.h"

namespace odbgc::obs {

// Why a rate policy chose the interval it chose. One closed vocabulary
// across all five policy families so downstream consumers (odbgc_analyze,
// learned-policy feature extraction) never parse free-form strings.
// docs/POLICIES.md tables which codes each policy can emit.
enum class DecisionReason : uint8_t {
  kIntervalElapsed = 0,  // fixed/connectivity: static interval re-armed
  kAllocInterval,        // alloc_rate: allocation-clock interval re-armed
  kPartitionGrowth,      // alloc_triggered: partition count grew
  kBudgetSolve,          // saio/coupled: closed-form I/O budget solve
  kOverBudgetFloor,      // saio/coupled: already over budget, floored at 1
  kScaleFloor,           // coupled: garbage scale clamped up to min_scale
  kScaleCeiling,         // coupled: garbage scale clamped down to max_scale
  kSlopeSolve,           // saga: garbage-slope solve inside [dt_min, dt_max]
  kDegenerateSlopeMin,   // saga: unusable slope while over target -> dt_min
  kDegenerateSlopeMax,   // saga: unusable slope while under target -> dt_max
  kDtMinClamp,           // saga: solved dt clamped up to dt_min
  kDtMaxClamp,           // saga: solved dt clamped down to dt_max
  kIdleReschedule,       // saga: threshold recomputed after an idle collection
  kBudgetGrant,          // coordinator: shard's GC I/O budget raised
  kBudgetRevoke,         // coordinator: shard's GC I/O budget lowered
  kGovernorBoost,        // governor: yellow-watermark forced collection
  kEmergencyGc,          // governor: red-watermark synchronous collection
  kAdmissionDefer,       // mux/engine: client chunk deferred at a safe point
  kSafeModeEnter,        // governor: swapped to the fixed-rate fallback
  kSafeModeExit,         // governor: hysteresis-gated return to the policy
  kBreakerOpen,          // coordinator: shard circuit breaker opened
  kBreakerClose,         // coordinator: shard circuit breaker closed
};

// Stable wire name for a reason code ("budget_solve", ...).
const char* DecisionReasonName(DecisionReason r);

}  // namespace odbgc::obs

namespace odbgc {
template <>
struct EnumTraits<obs::DecisionReason> {
  static constexpr obs::DecisionReason kLast =
      obs::DecisionReason::kBreakerClose;
  static const char* Name(obs::DecisionReason r) {
    return obs::DecisionReasonName(r);
  }
};
}  // namespace odbgc

namespace odbgc::obs {

// One policy decision: the run context the controller saw (filled by the
// simulation just before the policy's OnCollection/OnIdleCollection) plus
// what the policy decided (filled by the policy's cold recording path:
// policy, reason, chosen_interval, next_threshold, target). Rows are in
// decision-JSONL order.
#define ODBGC_POLICY_DECISION_FIELDS(X)                                   \
  X(uint64_t, seq, 0)         /* 0-based decision index, never reused */  \
  X(uint64_t, tick, 0)        /* logical tick at decision time */         \
  X(uint64_t, event, 0)       /* trace event cursor at decision time */   \
  X(uint64_t, collection, 0)  /* 1-based collection index; 0 if idle */   \
  X(std::string, policy, {})  /* RatePolicy::name() */                    \
  X(DecisionReason, reason, DecisionReason::kIntervalElapsed)             \
  X(double, chosen_interval, 0.0)  /* policy-clock units to next trigger */ \
  X(uint64_t, next_threshold, 0)   /* absolute clock threshold armed */   \
  X(double, target, 0.0)  /* io%% (saio/coupled), garbage%% (saga); or 0 */ \
  X(double, io_pct, 0.0)       /* GC share of all transfers, percent */   \
  X(double, garbage_pct, 0.0)  /* oracle garbage / used bytes, percent */ \
  X(uint64_t, app_io, 0)       /* cumulative application transfers */     \
  X(uint64_t, gc_io, 0)        /* cumulative GC transfers */              \
  X(uint64_t, actual_garbage_bytes, 0)  /* whole-database oracle */       \
  X(uint64_t, estimate_bytes, 0)  /* the policy's own estimator view */   \
  X(uint64_t, estimator_spread_bytes, 0)  /* max-min across estimators */ \
  X(uint64_t, db_used_bytes, 0)                                           \
  X(uint64_t, collection_gc_io, 0)  /* this collection's copy traffic */  \
  X(uint64_t, bytes_reclaimed, 0)   /* this collection's reclaim */

struct PolicyDecisionRecord {
  ODBGC_FIELD_TABLE(ODBGC_POLICY_DECISION_FIELDS)
};

// Bounded ring of the most recent decisions. Writes are two-phase: the
// simulation stages run context with SetContext, then the policy merges
// its half in via Append. The ring keeps the newest `capacity` records
// and counts what it sheds (util/bounded_ring.h). Snapshot/restored
// through checkpoints for byte-identical crash/resume exports.
class DecisionLedger {
 public:
  explicit DecisionLedger(size_t capacity) : ring_(capacity) {}

  // Stage the context half of the next record. Decision fields in `ctx`
  // are ignored; Append overwrites them.
  void SetContext(const PolicyDecisionRecord& ctx) { context_ = ctx; }

  // Complete and commit the staged record with the policy's decision.
  void Append(const char* policy, DecisionReason reason,
              double chosen_interval, uint64_t next_threshold, double target);

  size_t capacity() const { return ring_.capacity(); }
  size_t size() const { return ring_.size(); }
  uint64_t total() const { return ring_.total(); }
  uint64_t dropped() const { return ring_.dropped(); }

  // Records oldest-first.
  std::vector<PolicyDecisionRecord> Records() const { return ring_.Items(); }

  void SaveState(SnapshotWriter& w) const { Checkpoint(w, *this); }
  void RestoreState(SnapshotReader& r) { Checkpoint(r, *this); }

 private:
  template <class Io, class Self>
  static void Checkpoint(Io& io, Self& self) {
    Persist(io, SectionTag{"DLG0"}, self.ring_, SectionTag{"DLGE"});
  }

  BoundedRing<PolicyDecisionRecord> ring_;
  PolicyDecisionRecord context_;
};

}  // namespace odbgc::obs

#endif  // ODBGC_OBS_DECISION_LEDGER_H_
