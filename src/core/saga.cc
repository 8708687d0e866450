#include "core/saga.h"

#include <cmath>
#include <cstdio>

#include "util/check.h"

namespace odbgc {

SagaPolicy::SagaPolicy(const Options& options,
                       std::unique_ptr<GarbageEstimator> estimator)
    : options_(options),
      estimator_(std::move(estimator)),
      next_overwrite_threshold_(options.bootstrap_overwrites) {
  ODBGC_CHECK_MSG(options.garbage_frac > 0.0 && options.garbage_frac < 1.0,
                  "SAGA_Frac must be in (0, 1)");
  ODBGC_CHECK(options.slope_weight >= 0.0 && options.slope_weight <= 1.0);
  ODBGC_CHECK(options.dt_min >= 1 && options.dt_min <= options.dt_max);
  ODBGC_CHECK(estimator_ != nullptr);
}

bool SagaPolicy::ShouldCollect(const SimClock& clock) {
  return clock.pointer_overwrites >= next_overwrite_threshold_;
}

void SagaPolicy::OnCollection(const CollectionOutcome& outcome,
                              const SimClock& clock) {
  const uint64_t t = clock.pointer_overwrites;
  total_collected_ += outcome.bytes_reclaimed;

  // TotGarb(t) = ActGarb(t) + TotColl(t); ActGarb comes from the
  // estimator (which the host updated before this call).
  const double act_garb = estimator_->Estimate();
  const double tot_garb = act_garb + static_cast<double>(total_collected_);

  // Smoothed finite-difference slope of TotGarb.
  if (has_prev_point_ && t > prev_time_) {
    double sample =
        (tot_garb - prev_tot_garb_) / static_cast<double>(t - prev_time_);
    if (!has_slope_) {
      slope_ = sample;
      has_slope_ = true;
    } else {
      slope_ = options_.slope_weight * slope_ +
               (1.0 - options_.slope_weight) * sample;
    }
  }
  prev_tot_garb_ = tot_garb;
  prev_time_ = t;
  has_prev_point_ = true;

  const double target_garb =
      static_cast<double>(clock.db_used_bytes) * options_.garbage_frac;
  const double garb_diff = act_garb - target_garb;
  const double curr_coll = static_cast<double>(outcome.bytes_reclaimed);
  const double numerator = curr_coll - garb_diff;

  double dt;
  obs::DecisionReason reason = obs::DecisionReason::kSlopeSolve;
  constexpr double kSlopeEpsilon = 1e-9;
  if (has_slope_ && slope_ > kSlopeEpsilon) {
    dt = numerator / slope_;
  } else {
    // Degenerate slope: no garbage is being created (or the estimate is
    // shrinking). If we are over budget, act as soon as possible;
    // otherwise there is no reason to collect for a long time. Both
    // fallbacks count as clamp utilizations (cf. Section 2.3's remark
    // that dt_min/dt_max are rarely needed in practice).
    if (numerator < 0.0) {
      dt = static_cast<double>(options_.dt_min);
      ++dt_min_clamps_;
      reason = obs::DecisionReason::kDegenerateSlopeMin;
    } else {
      dt = static_cast<double>(options_.dt_max);
      ++dt_max_clamps_;
      reason = obs::DecisionReason::kDegenerateSlopeMax;
    }
  }

  uint64_t dt_int;
  if (!(dt >= static_cast<double>(options_.dt_min))) {  // also catches NaN
    dt_int = options_.dt_min;
    ++dt_min_clamps_;
    if (reason == obs::DecisionReason::kSlopeSolve) {
      reason = obs::DecisionReason::kDtMinClamp;
    }
  } else if (dt >= static_cast<double>(options_.dt_max)) {
    dt_int = options_.dt_max;
    ++dt_max_clamps_;
    if (reason == obs::DecisionReason::kSlopeSolve) {
      reason = obs::DecisionReason::kDtMaxClamp;
    }
  } else {
    dt_int = static_cast<uint64_t>(std::llround(dt));
  }
  last_dt_ = dt_int;
  next_overwrite_threshold_ = t + dt_int;
  idle_stalled_ = false;  // load resumed; re-arm opportunism

  ODBGC_IF_TEL(tel_) { RecordDecision(dt_int, act_garb, target_garb, reason); }
}

void SagaPolicy::RecordDecision(uint64_t dt, double act_garb,
                                double target_garb,
                                obs::DecisionReason reason) {
  tel_->Instant("policy_decision",
                {{"policy", "saga"},
                 {"dt", dt},
                 {"slope", has_slope_ ? slope_ : 0.0},
                 {"act_garb", act_garb},
                 {"target_garb", target_garb},
                 {"next_threshold", next_overwrite_threshold_}});
  tel_->metrics().GetGauge("policy.saga.dt")->Set(static_cast<double>(dt));
  tel_->metrics().GetGauge("policy.saga.act_garb")->Set(act_garb);
  if (obs::DecisionLedger* ledger = tel_->ledger()) {
    ledger->Append("saga", reason, static_cast<double>(dt),
                   next_overwrite_threshold_, 100.0 * options_.garbage_frac);
  }
}

bool SagaPolicy::ShouldCollectWhenIdle(const SimClock& clock) {
  if (!options_.opportunism) return false;
  if (idle_stalled_) return false;
  double floor = static_cast<double>(clock.db_used_bytes) *
                 options_.idle_floor_frac;
  return estimator_->Estimate() > floor;
}

void SagaPolicy::OnIdleCollection(const CollectionOutcome& outcome,
                                  const SimClock& clock) {
  total_collected_ += outcome.bytes_reclaimed;
  // An idle collection that reclaims nothing means the remaining garbage
  // is out of the collector's immediate reach (e.g. cross-partition
  // floating garbage); stop burning idle cycles until load resumes.
  idle_stalled_ = outcome.bytes_reclaimed == 0;
  // Recompute the next scheduled collection against the reduced garbage
  // level; the slope history is untouched (no overwrite time passed).
  const double act_garb = estimator_->Estimate();
  const double target_garb =
      static_cast<double>(clock.db_used_bytes) * options_.garbage_frac;
  const double garb_diff = act_garb - target_garb;
  const double numerator =
      static_cast<double>(outcome.bytes_reclaimed) - garb_diff;
  if (has_slope_ && slope_ > 1e-9) {
    double dt = numerator / slope_;
    if (dt < static_cast<double>(options_.dt_min)) {
      dt = static_cast<double>(options_.dt_min);
    } else if (dt > static_cast<double>(options_.dt_max)) {
      dt = static_cast<double>(options_.dt_max);
    }
    last_dt_ = static_cast<uint64_t>(dt);
    next_overwrite_threshold_ = clock.pointer_overwrites + last_dt_;
    ODBGC_IF_TEL(tel_) {
      RecordDecision(last_dt_, act_garb, target_garb,
                     obs::DecisionReason::kIdleReschedule);
    }
  }
}

std::string SagaPolicy::name() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "SAGA(frac=%.3f,%s)",
                options_.garbage_frac, estimator_->name().c_str());
  return buf;
}

}  // namespace odbgc
