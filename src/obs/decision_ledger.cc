#include "obs/decision_ledger.h"

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

void DecisionLedger::Append(const char* policy, DecisionReason reason,
                            double chosen_interval, uint64_t next_threshold,
                            double target) {
  PolicyDecisionRecord rec = context_;
  rec.seq = ring_.total();
  rec.policy = policy;
  rec.reason = reason;
  rec.chosen_interval = chosen_interval;
  rec.next_threshold = next_threshold;
  rec.target = target;
  ring_.Push(std::move(rec));
}

}  // namespace odbgc::obs
