#include "core/coupled.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/check.h"

namespace odbgc {

CoupledIoPolicy::CoupledIoPolicy(const Options& options,
                                 std::unique_ptr<GarbageEstimator> estimator)
    : options_(options),
      estimator_(std::move(estimator)),
      window_(options.history_size),
      next_app_io_threshold_(options.bootstrap_app_io),
      last_effective_frac_(options.io_frac) {
  ODBGC_CHECK_MSG(options.io_frac > 0.0 && options.io_frac < 1.0,
                  "io_frac must be in (0, 1)");
  ODBGC_CHECK(options.garbage_ref_frac > 0.0);
  ODBGC_CHECK(options.min_scale > 0.0 &&
              options.min_scale <= options.max_scale);
  ODBGC_CHECK(estimator_ != nullptr);
}

bool CoupledIoPolicy::ShouldCollect(const SimClock& clock) {
  return clock.app_io >= next_app_io_threshold_;
}

void CoupledIoPolicy::OnCollection(const CollectionOutcome& outcome,
                                   const SimClock& clock) {
  // Cost-effectiveness: how much garbage does the estimator believe is
  // out there, relative to the reference level that justifies the full
  // budget?
  double scale = 1.0;
  obs::DecisionReason reason = obs::DecisionReason::kBudgetSolve;
  if (clock.db_used_bytes > 0) {
    double reference = static_cast<double>(clock.db_used_bytes) *
                       options_.garbage_ref_frac;
    scale = estimator_->Estimate() / reference;
  }
  if (scale < options_.min_scale) {
    reason = obs::DecisionReason::kScaleFloor;
  } else if (scale > options_.max_scale) {
    reason = obs::DecisionReason::kScaleCeiling;
  }
  scale = std::clamp(scale, options_.min_scale, options_.max_scale);
  double f = options_.io_frac * scale;
  // Keep the effective fraction a valid fraction.
  f = std::min(f, 0.95);
  last_effective_frac_ = f;

  const SaioWindow::Step step =
      window_.Solve(clock.app_io, outcome.gc_io_ops, f);
  if (step.over_budget && reason == obs::DecisionReason::kBudgetSolve) {
    reason = obs::DecisionReason::kOverBudgetFloor;
  }
  next_app_io_threshold_ =
      clock.app_io + static_cast<uint64_t>(std::llround(step.delta_app_io));

  ODBGC_IF_TEL(tel_) { RecordDecision(scale, step.delta_app_io, reason); }
}

void CoupledIoPolicy::RecordDecision(double scale, double delta_app_io,
                                     obs::DecisionReason reason) {
  tel_->Instant("policy_decision",
                {{"policy", "coupled"},
                 {"effective_frac", last_effective_frac_},
                 {"scale", scale},
                 {"delta_app_io", delta_app_io},
                 {"next_threshold", next_app_io_threshold_}});
  tel_->metrics().GetGauge("policy.coupled.effective_frac")
      ->Set(last_effective_frac_);
  if (obs::DecisionLedger* ledger = tel_->ledger()) {
    ledger->Append("coupled", reason, delta_app_io, next_app_io_threshold_,
                   100.0 * last_effective_frac_);
  }
}

std::string CoupledIoPolicy::name() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "CoupledIO(frac=%.3f,ref=%.3f,%s)",
                options_.io_frac, options_.garbage_ref_frac,
                estimator_->name().c_str());
  return buf;
}

}  // namespace odbgc
