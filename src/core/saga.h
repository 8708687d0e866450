#ifndef ODBGC_CORE_SAGA_H_
#define ODBGC_CORE_SAGA_H_

#include <cstdint>
#include <memory>

#include "core/estimator.h"
#include "core/rate_policy.h"
#include "util/fields.h"

namespace odbgc {

// SagaPolicy::Options, one row per knob (util/fields.h).
#define ODBGC_SAGA_OPTIONS_FIELDS(X)                                     \
  X(double, garbage_frac, 0.10) /* SAGA_Frac */                          \
  X(double, slope_weight, 0.7) /* the paper's Weight */                  \
  X(uint64_t, dt_min, 2) /* overwrites */                                \
  X(uint64_t, dt_max, 1000) /* overwrites */                             \
  X(uint64_t, bootstrap_overwrites, 1000) /* first collection trigger */ \
  /* Quiescence extension (Section 5): when the host reports an idle     \
     workload, collect below the user's stated limit, down to            \
     idle_floor_frac of the database. Disabled by default (the base      \
     paper's behavior). */                                               \
  X(bool, opportunism, false)                                            \
  X(double, idle_floor_frac, 0.05)

// SAGA — the Semi-Automatic GArbage policy (Section 2.3).
//
// The user asks that unreachable data stay near a fraction SAGA_Frac of
// the database size. Time is measured in pointer overwrites (no garbage
// can appear without one). After each collection at time t, the policy
// schedules the next collection Delta_t overwrites later:
//
//   Delta_t = (CurrColl - GarbDiff(t)) / TotGarb'(t)
//
// where GarbDiff(t) = ActGarb(t) - DBSize(t) * SAGA_Frac, CurrColl is the
// garbage just reclaimed (assumed representative of the next collection),
// and TotGarb'(t) — the garbage creation rate — is estimated by an
// exponentially smoothed finite difference with weight Weight (0.7 in
// the paper). ActGarb comes from a pluggable GarbageEstimator (oracle,
// CGS/CB or FGS/HB). Delta_t is clamped to [dt_min, dt_max] because the
// quotient degenerates when the slope approaches zero or goes negative.
class SagaPolicy : public RatePolicy {
 public:
  struct Options {
    ODBGC_FIELD_TABLE(ODBGC_SAGA_OPTIONS_FIELDS)
  };

  SagaPolicy(const Options& options,
             std::unique_ptr<GarbageEstimator> estimator);

  bool ShouldCollect(const SimClock& clock) override;
  void OnCollection(const CollectionOutcome& outcome,
                    const SimClock& clock) override;
  std::string name() const override;

  // Quiescence extension: while idle, keep collecting until the garbage
  // estimate falls to idle_floor_frac of the database (or collections
  // stop yielding). Idle reclaims update TotColl — TotGarb is invariant
  // to collections — but do not perturb the slope history.
  bool ShouldCollectWhenIdle(const SimClock& clock) override;
  void OnIdleCollection(const CollectionOutcome& outcome,
                        const SimClock& clock) override;

  PolicyState State() const override {
    return {options_.garbage_frac, last_dt_, dt_min_clamps_, dt_max_clamps_};
  }

  GarbageEstimator& estimator() { return *estimator_; }
  const GarbageEstimator& estimator() const { return *estimator_; }
  const Options& options() const { return options_; }

  double slope() const { return slope_; }

  // Serializes the control state and the owned estimator's state.
  void SaveState(SnapshotWriter& w) const override { Checkpoint(w, *this); }
  void RestoreState(SnapshotReader& r) override { Checkpoint(r, *this); }

 private:
  // Out of line so OnCollection's hot path pays only a predicted-not-
  // taken branch, not the trace-argument stack frame.
  void RecordDecision(uint64_t dt, double act_garb, double target_garb,
                      obs::DecisionReason reason);

  template <class Io, class Self>
  static void Checkpoint(Io& io, Self& self) {
    Persist(io, self.total_collected_, self.slope_, self.has_slope_,
            self.prev_tot_garb_, self.prev_time_, self.has_prev_point_,
            self.next_overwrite_threshold_, self.last_dt_, self.dt_min_clamps_,
            self.dt_max_clamps_, self.idle_stalled_, *self.estimator_);
  }

  Options options_;
  std::unique_ptr<GarbageEstimator> estimator_;

  uint64_t total_collected_ = 0;  // TotColl
  double slope_ = 0.0;            // TotGarb'(t), smoothed
  bool has_slope_ = false;
  double prev_tot_garb_ = 0.0;
  uint64_t prev_time_ = 0;
  bool has_prev_point_ = false;

  uint64_t next_overwrite_threshold_;
  uint64_t last_dt_ = 0;
  uint64_t dt_min_clamps_ = 0;
  uint64_t dt_max_clamps_ = 0;
  bool idle_stalled_ = false;
};

}  // namespace odbgc

#endif  // ODBGC_CORE_SAGA_H_
