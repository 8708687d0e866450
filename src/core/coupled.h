#ifndef ODBGC_CORE_COUPLED_H_
#define ODBGC_CORE_COUPLED_H_

#include <cstdint>
#include <memory>

#include "core/estimator.h"
#include "core/rate_policy.h"
#include "core/saio.h"
#include "util/fields.h"

namespace odbgc {

// CoupledIoPolicy::Options, one row per knob (util/fields.h).
#define ODBGC_COUPLED_OPTIONS_FIELDS(X)                               \
  X(double, io_frac, 0.10) /* the I/O budget (SAIO_Frac) */           \
  X(double, garbage_ref_frac, 0.10) /* garbage level justifying it */ \
  X(double, min_scale, 0.25) /* never drop below 1/4 of the budget */ \
  X(double, max_scale, 1.5) /* may exceed the budget by up to 50% */  \
  X(size_t, history_size, 0) /* SAIO's c_hist */                      \
  X(uint64_t, bootstrap_app_io, 2000)

// The coupled policy sketched in the paper's Section 5: "the SAIO policy
// could use information provided by the SAGA heuristics to determine the
// cost-effectiveness of the I/O operations being performed, and adjust
// itself accordingly."
//
// CoupledIoPolicy is SAIO with a garbage-aware throttle. The user states
// an I/O budget (io_frac) and a reference garbage level
// (garbage_ref_frac) at which spending the full budget is justified.
// After each collection the policy scales its effective I/O fraction by
// how much garbage the estimator believes exists:
//
//   effective_frac = io_frac * clamp(ActGarbEst / (DBSize * ref_frac),
//                                    min_scale, max_scale)
//
// so collections back off when there is little to reclaim (e.g. GenDB,
// read-mostly phases) and may modestly exceed the budget when garbage
// piles up. With min_scale = max_scale = 1 it degenerates to plain SAIO.
class CoupledIoPolicy : public RatePolicy {
 public:
  struct Options {
    ODBGC_FIELD_TABLE(ODBGC_COUPLED_OPTIONS_FIELDS)
  };

  CoupledIoPolicy(const Options& options,
                  std::unique_ptr<GarbageEstimator> estimator);

  bool ShouldCollect(const SimClock& clock) override;
  void OnCollection(const CollectionOutcome& outcome,
                    const SimClock& clock) override;
  std::string name() const override;

  // Budget coordination: retargets the base I/O budget the garbage
  // scale multiplies (the scale clamps are unchanged).
  void SetIoBudget(double io_frac) override {
    if (io_frac > 0.0 && io_frac < 1.0) options_.io_frac = io_frac;
  }

  GarbageEstimator& estimator() { return *estimator_; }
  const Options& options() const { return options_; }
  double last_effective_frac() const { return last_effective_frac_; }
  uint64_t next_app_io_threshold() const { return next_app_io_threshold_; }

  // Serializes the control state and the owned estimator's state.
  void SaveState(SnapshotWriter& w) const override { Checkpoint(w, *this); }
  void RestoreState(SnapshotReader& r) override { Checkpoint(r, *this); }

 private:
  // Out of line so OnCollection's hot path pays only a predicted-not-
  // taken branch, not the trace-argument stack frame.
  void RecordDecision(double scale, double delta_app_io,
                      obs::DecisionReason reason);

  template <class Io, class Self>
  static void Checkpoint(Io& io, Self& self) {
    Persist(io, self.window_, self.next_app_io_threshold_,
            self.last_effective_frac_, *self.estimator_);
  }

  Options options_;
  std::unique_ptr<GarbageEstimator> estimator_;

  SaioWindow window_;
  uint64_t next_app_io_threshold_;
  double last_effective_frac_;
};

}  // namespace odbgc

#endif  // ODBGC_CORE_COUPLED_H_
