#include "obs/decision_ledger.h"

#include "util/snapshot.h"

namespace odbgc::obs {

const char* DecisionReasonName(DecisionReason r) {
  switch (r) {
    case DecisionReason::kIntervalElapsed:
      return "interval_elapsed";
    case DecisionReason::kAllocInterval:
      return "alloc_interval";
    case DecisionReason::kPartitionGrowth:
      return "partition_growth";
    case DecisionReason::kBudgetSolve:
      return "budget_solve";
    case DecisionReason::kOverBudgetFloor:
      return "over_budget_floor";
    case DecisionReason::kScaleFloor:
      return "scale_floor";
    case DecisionReason::kScaleCeiling:
      return "scale_ceiling";
    case DecisionReason::kSlopeSolve:
      return "slope_solve";
    case DecisionReason::kDegenerateSlopeMin:
      return "degenerate_slope_min";
    case DecisionReason::kDegenerateSlopeMax:
      return "degenerate_slope_max";
    case DecisionReason::kDtMinClamp:
      return "dt_min_clamp";
    case DecisionReason::kDtMaxClamp:
      return "dt_max_clamp";
    case DecisionReason::kIdleReschedule:
      return "idle_reschedule";
    case DecisionReason::kBudgetGrant:
      return "budget_grant";
    case DecisionReason::kBudgetRevoke:
      return "budget_revoke";
    case DecisionReason::kGovernorBoost:
      return "governor_boost";
    case DecisionReason::kEmergencyGc:
      return "emergency_gc";
    case DecisionReason::kAdmissionDefer:
      return "admission_defer";
    case DecisionReason::kSafeModeEnter:
      return "safe_mode_enter";
    case DecisionReason::kSafeModeExit:
      return "safe_mode_exit";
    case DecisionReason::kBreakerOpen:
      return "breaker_open";
    case DecisionReason::kBreakerClose:
      return "breaker_close";
  }
  return "unknown";
}

DecisionLedger::DecisionLedger(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void DecisionLedger::Append(const char* policy, DecisionReason reason,
                            double chosen_interval, uint64_t next_threshold,
                            double target) {
  PolicyDecisionRecord rec = context_;
  rec.seq = total_;
  rec.policy = policy;
  rec.reason = reason;
  rec.chosen_interval = chosen_interval;
  rec.next_threshold = next_threshold;
  rec.target = target;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(rec));
  } else {
    ring_[head_] = std::move(rec);
    head_ = (head_ + 1) % capacity_;
  }
  ++total_;
}

std::vector<PolicyDecisionRecord> DecisionLedger::Records() const {
  std::vector<PolicyDecisionRecord> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

void DecisionLedger::SaveState(SnapshotWriter& w) const {
  w.Tag("DLG0");
  w.U64(total_);
  w.U64(ring_.size());
  // Oldest-first, so restore can refill a ring of any capacity and keep
  // the newest suffix.
  for (size_t i = 0; i < ring_.size(); ++i) {
    SaveField(w, ring_[(head_ + i) % ring_.size()]);
  }
  w.Tag("DLGE");
}

void DecisionLedger::RestoreState(SnapshotReader& r) {
  r.Tag("DLG0");
  total_ = r.U64();
  const uint64_t n = r.U64();
  ring_.clear();
  head_ = 0;
  for (uint64_t i = 0; i < n && r.ok(); ++i) {
    PolicyDecisionRecord rec;
    LoadField(r, rec);
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(rec));
    } else {
      ring_[head_] = std::move(rec);
      head_ = (head_ + 1) % capacity_;
    }
  }
  r.Tag("DLGE");
}

}  // namespace odbgc::obs
