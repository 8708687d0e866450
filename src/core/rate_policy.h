#ifndef ODBGC_CORE_RATE_POLICY_H_
#define ODBGC_CORE_RATE_POLICY_H_

#include <cstdint>
#include <string>

#include "core/clock.h"
#include "obs/telemetry.h"
#include "util/snapshot.h"

namespace odbgc {

// What a policy aims at and last scheduled, for the host's collection log
// and run report. Fields a policy does not have read zero.
struct PolicyState {
  double garbage_target_frac = 0.0;  // SAGA_Frac
  uint64_t last_interval = 0;        // the interval armed last
  uint64_t dt_min_clamps = 0;        // intervals raised to the minimum
  uint64_t dt_max_clamps = 0;        // intervals cut to the maximum
};

// A collection-rate policy decides *when* the next garbage collection
// should run (the policy area this paper introduces). The host system
// calls ShouldCollect() as its counters advance and OnCollection() after
// each collection completes.
class RatePolicy {
 public:
  virtual ~RatePolicy() = default;

  // True if a collection should be started now.
  virtual bool ShouldCollect(const SimClock& clock) = 0;

  // Reports a finished collection so the policy can schedule the next.
  virtual void OnCollection(const CollectionOutcome& outcome,
                            const SimClock& clock) = 0;

  // --- Opportunistic quiescence extension (paper Section 5) ---
  //
  // When the host observes a quiescent workload it may offer the policy
  // free collections beyond its user-stated limits. The default policy
  // declines (the base paper's behavior).

  // True if an opportunistic collection is worthwhile right now.
  virtual bool ShouldCollectWhenIdle(const SimClock& clock) {
    (void)clock;
    return false;
  }

  // Reports a collection run during quiescence. Deliberately separate
  // from OnCollection: idle collections must not perturb the policy's
  // active-workload scheduling assumptions.
  virtual void OnIdleCollection(const CollectionOutcome& outcome,
                                const SimClock& clock) {
    (void)outcome;
    (void)clock;
  }

  virtual std::string name() const = 0;

  // --- Multi-tenant budget coordination (sim/multi_tenant.h) ---
  //
  // Retargets the policy's GC I/O budget to `io_frac` of total I/O. A
  // global coordinator calls this between collections to rebalance one
  // fleet-wide budget across per-shard policies; policies without an
  // I/O-fraction knob (fixed rate, SAGA, the allocation baselines)
  // ignore it. Takes effect at the next OnCollection solve — the armed
  // threshold is not retroactively moved, so a budget change never
  // reorders an already-scheduled collection.
  virtual void SetIoBudget(double io_frac) { (void)io_frac; }

  // Zeros by default: a policy without these fields, or a wrapper that
  // does not forward this, reports none.
  virtual PolicyState State() const { return PolicyState{}; }

  // Checkpoint hooks (sim/checkpoint.h). Implementations serialize their
  // mutable scheduling state — thresholds, histories, smoothed slopes —
  // but not constructor parameters (those travel with SimConfig). The
  // default is for stateless policies.
  virtual void SaveState(SnapshotWriter& /*w*/) const {}
  virtual void RestoreState(SnapshotReader& /*r*/) {}

  // Attaches per-run telemetry (not owned; may be null). Policies record a
  // `policy_decision` instant from OnCollection — the cold path only;
  // ShouldCollect stays untouched.
  void AttachTelemetry(obs::Telemetry* telemetry) { tel_ = telemetry; }

 protected:
  obs::Telemetry* tel_ = nullptr;
};

}  // namespace odbgc

#endif  // ODBGC_CORE_RATE_POLICY_H_
