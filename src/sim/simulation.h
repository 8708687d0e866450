#ifndef ODBGC_SIM_SIMULATION_H_
#define ODBGC_SIM_SIMULATION_H_

#include <memory>
#include <string>
#include <vector>

#include "core/rate_policy.h"
#include "gc/collector.h"
#include "gc/partition_selector.h"
#include "obs/progress.h"
#include "obs/telemetry.h"
#include "sim/config.h"
#include "sim/metrics.h"
#include "storage/object_store.h"
#include "storage/scrubber.h"
#include "trace/trace.h"
#include "util/fields.h"

namespace odbgc {

// Builds the rate policy described by `config`. If the policy is SAGA,
// `estimator_hook` receives a non-owning pointer to its estimator (the
// simulation feeds it overwrite and collection events); otherwise it is
// set to nullptr.
std::unique_ptr<RatePolicy> MakePolicy(const SimConfig& config,
                                       GarbageEstimator** estimator_hook);

// Wires a trace through the object store, the collector, a partition
// selector and a collection-rate policy, gathering the measurements the
// paper reports. One Simulation processes one trace.
class Simulation {
 public:
  // Constructs with explicit components (the estimator, if any, must be
  // the one owned by the policy).
  Simulation(const SimConfig& config, std::unique_ptr<RatePolicy> policy,
             std::unique_ptr<PartitionSelector> selector,
             GarbageEstimator* estimator);

  // Convenience: builds policy + selector from the config.
  explicit Simulation(const SimConfig& config);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Processes the whole trace and returns the measurements.
  SimResult Run(const Trace& trace);

  // Processes the trace starting from the first event not yet applied
  // (event index events_applied(); 0 on a fresh simulation, the resume
  // point on one restored from a checkpoint). When `checkpoint_path` is
  // non-empty and `checkpoint_every` > 0, writes a checkpoint after
  // every `checkpoint_every` applied events; a failed write raises
  // SimCheckpointWriteError. Honors config().deadline_ms (raises
  // SimDeadlineExceeded) and the fault plan's crash_at_event (raises
  // SimCrashInjected). Run(trace) is RunFrom(trace, "", 0).
  SimResult RunFrom(const Trace& trace, const std::string& checkpoint_path,
                    uint64_t checkpoint_every);

  // Incremental interface (used by tests and custom drivers).
  void Apply(const TraceEvent& event);
  SimResult Finish();

  // Checkpoint hooks (sim/checkpoint.h wraps these in a checksummed,
  // atomically written file). The snapshot covers everything RunFrom
  // needs to continue deterministically: clock, accumulated results,
  // phase/window accounting, the store (partitions, objects, buffer
  // pool, fault injector, disk model), the collector, the policy with
  // its owned estimator, the partition selector, any passive estimators
  // registered at save time, and — when telemetry is on — the telemetry
  // state (logical ticks, every metric, the decision ledger and the
  // time-series frames), so a crash/resume run exports byte-identical
  // metric/decision/time-series streams. The structured trace recorder
  // is the one exception: traces remain per-process, so byte-identical
  // resume of a *trace export* is only guaranteed for capture-off runs.
  // RestoreState requires a simulation freshly built from the same
  // config (same component types and passive-estimator count).
  void SaveState(SnapshotWriter& w) const;
  void RestoreState(SnapshotReader& r);

  const SimConfig& config() const { return config_; }
  // Number of trace events applied so far == the trace index RunFrom
  // resumes at.
  uint64_t events_applied() const { return clock_.events; }

  // Registers a passive estimator: it receives exactly the overwrite and
  // collection feeds the policy's estimator would, but is never consulted
  // by the policy. Used by ablations to measure what a different
  // estimator *would have* estimated under identical behavior. Not owned;
  // must outlive the simulation.
  void AddPassiveEstimator(GarbageEstimator* estimator);

  // The run's telemetry context; null unless config.telemetry.any() (or
  // when telemetry is compiled out). Valid for the simulation's lifetime,
  // so callers may export its trace after Finish(). The counters that
  // mirror run totals (page transfers, buffer hits and misses, faults,
  // collections, repairs) are current as of the last time-series frame,
  // checkpoint or Finish(), and absent before the first; see
  // PublishRunTotals.
  obs::Telemetry* telemetry() { return tel_.get(); }

  // Attaches a live progress reporter (not owned; may be null). Fed a
  // sample every few thousand events; never touches simulation state.
  void set_progress(obs::ProgressReporter* reporter) {
    progress_ = reporter;
  }

  ObjectStore& store() { return *store_; }
  const ObjectStore& store() const { return *store_; }
  RatePolicy& policy() { return *policy_; }
  uint64_t collections() const { return result_.collections; }
  // Live counters (the multi-tenant coordinator reads per-shard io/garbage
  // shares between events without waiting for Finish()).
  const SimClock& clock() const { return clock_; }

  // Overload governor view (sim/governor.h); kNormal when the governor
  // is disabled. The multi-tenant engine reads it from its serial
  // sections to drive admission backpressure and the per-shard circuit
  // breaker.
  PressureLevel pressure_level() const {
    return governor_ != nullptr ? governor_->level()
                                : PressureLevel::kNormal;
  }

 private:
  void UpdateClock();
  void SampleGarbage();
  // Actual garbage as a percentage of the store's used bytes (0 when the
  // store is empty).
  double GarbagePct() const {
    const uint64_t used = store_->used_bytes();
    if (used == 0) return 0.0;
    return 100.0 * static_cast<double>(store_->actual_garbage_bytes()) /
           static_cast<double>(used);
  }
  // Applies the config's FaultPlan to the collector (commit protocol,
  // scheduled crash).
  void ConfigureCollector();
  // Runs the heap verifier; aborts with `when` in the message on any
  // violation.
  void RunVerifier(const char* when);
  // The one collection path of the scheduled, idle and governor callers:
  // select, collect, recover an injected crash, verify, feed the
  // estimators, update the clock and the reclaimed totals. Returns true
  // when a collection completed. Otherwise *report has partition
  // kInvalidPartition if nothing was selectable, or aborted_corrupt with
  // the detection left pending for the caller to quarantine.
  bool CollectOne(PartitionSelector& selector, CollectionReport* report);
  void MaybeCollect();
  // Self-healing at an event boundary: drains the buffer pool's
  // corruption detections into quarantines, runs a scrub quantum when
  // one is due, and repairs quarantined partitions (at scrub ticks when
  // the scrubber is on, immediately otherwise). Apply calls it only when
  // one of those can happen.
  void SelfHealTick();
  // Quarantines the partition of every pending corruption detection.
  void DrainCorruption();
  // Heals, rewrites, rebuilds and releases every quarantined partition.
  void RepairQuarantined();
  void RunIdlePeriod(uint32_t max_collections);
  // Overload governor, evaluated every governor.check_interval_events
  // applied events: observes utilization / I/O saturation, runs the
  // yellow rate boost and red emergency collections, and commits
  // safe-mode transitions. One integer compare when the governor is off.
  void GovernorTick();
  // One governor-forced collection (boost or emergency). Returns false
  // when nothing was collectable (no partitions, all quarantined, or the
  // collection backed out). Accounted outside the policy's schedule.
  bool GovernorCollect(obs::DecisionReason reason);
  // The safe-mode fallback policy, built on first use and then kept.
  RatePolicy& SafePolicy();
  void EnterSafeMode();
  void ExitSafeMode();
  // The policy currently steering collections: the configured one, or
  // the conservative fixed-rate fallback while safe mode holds.
  RatePolicy* ActivePolicy() {
    return governor_ != nullptr && governor_->safe_mode() ? safe_policy_.get()
                                                          : policy_.get();
  }
  // Stages ledger context and appends a governor-originated record.
  void LedgerGovernorRecord(obs::DecisionReason reason,
                            const CollectionReport& report, double target);
  void OpenWindowIfReady();
  void ClosePhaseSegment();
  void OpenPhaseSegment(Phase phase);
  // Creates the telemetry context when the config enables it and attaches
  // it to the store's buffer pool, the collector and the policy.
  void InitTelemetry();
  // Copies the run totals the registry mirrors (IoStats, the pool's hits
  // and misses, the collector's counts, SimResult rows) into their
  // counters, registering them on first use. Each total is counted once,
  // by its owner; this runs right before every read of the registry: a
  // time-series frame, Finish's snapshot and a checkpoint's telemetry
  // blob. Const because the copy only catches up with the run's state.
  void PublishRunTotals() const;
  // Creates the pressure governor and its emergency selector when
  // config.governor.enabled.
  void InitGovernor();
  // Cold paths behind ODBGC_IF_TEL: stage the run-context half of the
  // next ledger record (the policy appends its decision half from
  // OnCollection/OnIdleCollection) and take one time-series frame.
  void StageDecisionContext(obs::DecisionLedger& ledger,
                            const CollectionReport& report, bool idle);
  void TakeTimeSeriesSample(obs::TimeSeriesSampler& sampler);
  obs::ProgressSample MakeProgressSample() const;

  // The checkpointed members, in checkpoint order (util/fields.h
  // Persist). result_ leaves out the telemetry outputs, which Finish
  // rebuilds from the telemetry blob. SaveState and RestoreState add the
  // passive estimators, the governor and that blob by hand, because a
  // restore checks them against this run's configuration.
  template <class Io, class Self>
  static void Checkpoint(Io& io, Self& self) {
    Persist(io, SectionTag{"SIM0"}, self.clock_, SectionTag{"RSLT"},
            self.result_, self.current_phase_, self.phase_open_,
            self.phase_accum_, self.phase_base_clock_,
            self.phase_base_collections_, self.phase_base_reclaimed_,
            self.window_app_io_base_, self.window_gc_io_base_,
            self.window_reclaimed_base_, self.whole_run_garbage_pct_,
            self.last_estimate_valid_, self.last_estimate_error_pp_,
            *self.store_, self.collector_, self.scrubber_, *self.policy_,
            *self.selector_);
  }

  SimConfig config_;
  std::unique_ptr<ObjectStore> store_;
  std::unique_ptr<RatePolicy> policy_;
  std::unique_ptr<PartitionSelector> selector_;

  // Telemetry (null unless enabled) and cached instrument handles.
  std::unique_ptr<obs::Telemetry> tel_;
  obs::Gauge* tel_garbage_pct_ = nullptr;
  obs::Gauge* tel_est_garbage_pct_ = nullptr;
  obs::Histogram* tel_est_err_ = nullptr;
  // Per-completed-collection shape: gc I/O, bytes reclaimed, bytes live.
  obs::Histogram* tel_collection_io_ = nullptr;
  obs::Histogram* tel_collection_reclaimed_ = nullptr;
  obs::Histogram* tel_collection_live_ = nullptr;
  // Stall attribution: app-visible I/O stalls bucketed by cause
  // (docs/OBSERVABILITY.md). The fault-retry cause lives in BufferPool.
  obs::Histogram* tel_stall_gc_copy_ = nullptr;
  obs::Histogram* tel_stall_scrub_ = nullptr;
  obs::Histogram* tel_stall_repair_ = nullptr;
  bool tel_phase_span_open_ = false;

  // Live progress (not owned; null unless --progress).
  obs::ProgressReporter* progress_ = nullptr;
  uint64_t progress_total_events_ = 0;
  bool last_estimate_valid_ = false;
  double last_estimate_error_pp_ = 0.0;

  // Per-phase accounting (between consecutive kPhaseMark events).
  bool phase_open_ = false;
  PhaseStats phase_accum_;
  SimClock phase_base_clock_;
  uint64_t phase_base_collections_ = 0;
  uint64_t phase_base_reclaimed_ = 0;
  GarbageEstimator* estimator_;  // owned by policy_ (SAGA) or null
  std::vector<GarbageEstimator*> passive_estimators_;  // not owned
  Collector collector_;
  Scrubber scrubber_;

  // Overload protection (null / false unless config.governor.enabled).
  // The emergency selector is the highest-garbage oracle regardless of
  // the configured selection policy (at red the goal is bytes back per
  // collection, not estimator fidelity).
  std::unique_ptr<PressureGovernor> governor_;
  std::unique_ptr<RatePolicy> safe_policy_;
  std::unique_ptr<PartitionSelector> emergency_selector_;

  SimClock clock_;
  SimResult result_;
  Phase current_phase_ = Phase::kNone;

  // Post-preamble window baselines.
  uint64_t window_app_io_base_ = 0;
  uint64_t window_gc_io_base_ = 0;
  uint64_t window_reclaimed_base_ = 0;
  // Whole-run garbage sampling, used as the fallback when a run ends
  // before the preamble completes.
  RunningStats whole_run_garbage_pct_;
};

// One-call helper: run `trace` under `config`. The trace is only read;
// a cached/shared trace may be replayed by many simulations at once.
SimResult RunSimulation(const SimConfig& config, const Trace& trace);
SimResult RunSimulation(const SimConfig& config,
                        const std::shared_ptr<const Trace>& trace);

}  // namespace odbgc

#endif  // ODBGC_SIM_SIMULATION_H_
