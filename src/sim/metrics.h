#ifndef ODBGC_SIM_METRICS_H_
#define ODBGC_SIM_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/clock.h"
#include "obs/decision_ledger.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "storage/types.h"
#include "trace/event.h"
#include "util/fields.h"
#include "util/stats.h"

namespace odbgc {

template <>
struct EnumTraits<Phase> {
  static constexpr Phase kLast = Phase::kReorg2;
  static std::string Name(Phase p) { return PhaseName(p); }
};

// Result records. Each one is a field table (util/fields.h) in report
// order: the run report and the checkpoint both walk these rows.

// One row of the per-collection time series (the raw material of the
// paper's Figures 6 and 7).
#define ODBGC_COLLECTION_RECORD_FIELDS(X)                                 \
  X(uint64_t, index, 0)           /* 1-based collection number */         \
  X(Phase, phase, Phase::kNone)                                           \
  X(uint64_t, overwrite_time, 0)  /* pointer-overwrite clock */           \
  X(uint64_t, app_io, 0)          /* cumulative application I/O */        \
  X(uint64_t, gc_io_delta, 0)     /* this collection's I/O cost */        \
  X(PartitionId, partition, kInvalidPartition)                            \
  X(uint64_t, bytes_reclaimed, 0)  /* collection yield */                 \
  X(uint64_t, bytes_live, 0)                                              \
  X(uint64_t, db_used_bytes, 0)                                           \
  X(double, actual_garbage_pct, 0.0)  /* ground truth, after collection */ \
  X(double, estimated_garbage_pct, 0.0)  /* estimator view (SAGA only) */ \
  X(double, target_garbage_pct, 0.0)     /* requested (SAGA only) */      \
  X(uint64_t, next_dt, 0)           /* scheduled interval (SAGA only) */

struct CollectionRecord {
  ODBGC_FIELD_TABLE(ODBGC_COLLECTION_RECORD_FIELDS)
};

// One partition quarantine episode (self-healing): a corruption
// detection took the partition out of service, and repair (if any)
// returned it.
#define ODBGC_QUARANTINE_EVENT_FIELDS(X)                                  \
  X(uint64_t, detected_event, 0)  /* clock.events when quarantined */     \
  X(PartitionId, partition, kInvalidPartition)                            \
  X(CorruptionKind, kind, CorruptionKind::kChecksum)  /* first detection */ \
  X(uint64_t, repaired_event, 0)  /* clock.events at release; 0 = never */

struct QuarantineEvent {
  ODBGC_FIELD_TABLE(ODBGC_QUARANTINE_EVENT_FIELDS)
};

#define ODBGC_PHASE_TRANSITION_FIELDS(X)                                  \
  X(Phase, phase, Phase::kNone)                                           \
  X(uint64_t, at_collection, 0)  /* collections completed at phase start */ \
  X(uint64_t, at_event, 0)                                                \
  X(uint64_t, at_overwrite, 0)

struct PhaseTransition {
  ODBGC_FIELD_TABLE(ODBGC_PHASE_TRANSITION_FIELDS)
};

// Per-application-phase breakdown of one run (whole run, no preamble
// exclusion — phases are about the application's behavior over time).
#define ODBGC_PHASE_STATS_FIELDS(X)                                       \
  X(Phase, phase, Phase::kNone)                                           \
  X(uint64_t, events, 0)                                                  \
  X(uint64_t, app_io, 0)                                                  \
  X(uint64_t, gc_io, 0)                                                   \
  X(uint64_t, pointer_overwrites, 0)                                      \
  X(uint64_t, collections, 0)                                             \
  X(uint64_t, bytes_reclaimed, 0)                                         \
  X(RunningStats, garbage_pct, {})  /* sampled at each event of the phase */

struct PhaseStats {
  ODBGC_FIELD_TABLE(ODBGC_PHASE_STATS_FIELDS)
};

// Everything one simulation run produces. `section` places a row in the
// report (SimResult::Section); the four optional objects are written
// only when one of their turns_on rows is nonzero.
//
// The measurement window (Section 3.2: means exclude the cold-start
// preamble): if the run finishes before the preamble's collection count
// is ever reached, the window falls back to the whole run and
// window_opened stays false to flag it.
#define ODBGC_SIM_RESULT_FIELDS(X)                                          \
  X(SimClock, clock, {}, .key = nullptr)  /* final counters */              \
  X(uint64_t, collections, 0, .section = kBeforeWindow)                     \
  /* Quiescence extension: collections run during kIdleMark periods        \
     (beyond the user-stated limits) and their I/O cost. */                 \
  X(uint64_t, idle_collections, 0, .section = kBeforeWindow)                \
  X(uint64_t, idle_gc_io, 0, .section = kBeforeWindow)                      \
  X(bool, window_opened, false, .section = kBeforeWindow)                   \
  X(uint64_t, window_reclaimed_bytes, 0, .key = nullptr)                    \
  X(uint64_t, measured_app_io, 0)                                           \
  X(uint64_t, measured_gc_io, 0)                                            \
  X(double, achieved_gc_io_pct, 0.0)  /* 100 * gc / (gc + app), window */   \
  X(RunningStats, garbage_pct, {})    /* sampled at every window event */   \
  /* Whole-run totals. */                                                   \
  X(uint64_t, total_reclaimed_bytes, 0)                                     \
  X(uint64_t, total_reclaimed_objects, 0)                                   \
  X(uint64_t, final_db_used_bytes, 0)                                       \
  X(uint64_t, final_actual_garbage_bytes, 0)                                \
  X(size_t, final_partition_count, 0)                                       \
  X(uint64_t, buffer_hits, 0)                                               \
  X(uint64_t, buffer_misses, 0)                                             \
  /* SAGA diagnostics. */                                                   \
  X(uint64_t, dt_min_clamps, 0)                                             \
  X(uint64_t, dt_max_clamps, 0)                                             \
  /* Fault injection / crash recovery (zero unless a FaultPlan is set). */  \
  X(uint64_t, crashes, 0, .section = kFaults, .turns_on = true)             \
  X(uint64_t, recoveries, 0, .section = kFaults, .turns_on = true)          \
  X(uint64_t, recovery_rollbacks, 0, .section = kFaults)                    \
  X(uint64_t, recovery_rollforwards, 0, .section = kFaults)                 \
  X(uint64_t, recovery_redo_updates, 0, .section = kFaults)                 \
  X(uint64_t, verifier_runs, 0, .section = kFaults, .turns_on = true)       \
  X(uint64_t, io_retries, 0, .section = kFaults, .turns_on = true)          \
  X(uint64_t, io_read_failures, 0, .section = kFaults, .turns_on = true)    \
  X(uint64_t, io_write_failures, 0, .section = kFaults, .turns_on = true)   \
  X(uint64_t, torn_writes, 0, .section = kFaults, .turns_on = true)         \
  X(uint64_t, torn_repairs, 0, .section = kFaults)                          \
  /* Self-healing (zero unless the fault plan injects silent corruption    \
     or the scrubber is enabled). */                                        \
  X(uint64_t, checksum_failures, 0, /* corrupt pages caught on read */      \
    .section = kSelfHealing, .turns_on = true)                              \
  X(uint64_t, bitflips_injected, 0, .section = kSelfHealing,                \
    .turns_on = true)                                                       \
  X(uint64_t, decays_armed, 0, .section = kSelfHealing, .turns_on = true)   \
  X(uint64_t, device_faults, 0, /* reads/writes hitting dead media */       \
    .section = kSelfHealing, .turns_on = true)                              \
  X(uint64_t, pages_scrubbed, 0, .section = kSelfHealing, .turns_on = true) \
  X(uint64_t, scrub_detections, 0, /* detections made by the scrubber */    \
    .section = kSelfHealing)                                                \
  X(uint64_t, partitions_quarantined, 0, .section = kSelfHealing,           \
    .turns_on = true)                                                       \
  X(uint64_t, partitions_repaired, 0, .section = kSelfHealing)              \
  X(uint64_t, repair_pages_rewritten, 0, .section = kSelfHealing)           \
  X(uint64_t, collections_aborted_corrupt, 0, .section = kSelfHealing,      \
    .turns_on = true)                                                       \
  X(std::vector<QuarantineEvent>, quarantine_log, {},                       \
    .section = kSelfHealing)                                                \
  /* Overload governor (zero unless SimConfig::governor.enabled and the    \
     run actually came under pressure). Governor-forced collections are    \
     accounted here, not in `collections`: like idle collections they are  \
     outside the policy's schedule. */                                      \
  X(uint64_t, governor_yellow_entries, 0, .section = kOverload,             \
    .turns_on = true)                                                       \
  X(uint64_t, governor_red_entries, 0, .section = kOverload,                \
    .turns_on = true)                                                       \
  X(uint64_t, governor_boost_collections, 0, .section = kOverload,          \
    .turns_on = true)                                                       \
  X(uint64_t, governor_emergency_collections, 0, .section = kOverload,      \
    .turns_on = true)                                                       \
  X(uint64_t, governor_gc_io, 0, /* forced collections' copy traffic */     \
    .section = kOverload)                                                   \
  X(uint64_t, safe_mode_entries, 0, .section = kOverload, .turns_on = true) \
  X(uint64_t, safe_mode_exits, 0, .section = kOverload, .turns_on = true)   \
  /* Max observed utilization in 100ths of a %; reported divided by 100. */ \
  X(uint64_t, peak_utilization_pct_x100, 0, .section = kOverload,           \
    .key = nullptr, .turns_on = true)                                       \
  /* Simulated elapsed disk time (0 unless enable_disk_timing). */          \
  X(double, disk_app_ms, 0.0, .section = kDisk, .key = "app_ms",            \
    .turns_on = true)                                                       \
  X(double, disk_gc_ms, 0.0, .section = kDisk, .key = "gc_ms",              \
    .turns_on = true)                                                       \
  X(uint64_t, disk_sequential_transfers, 0, .section = kDisk,               \
    .key = "sequential_transfers")                                          \
  X(uint64_t, disk_random_transfers, 0, .section = kDisk,                   \
    .key = "random_transfers")                                              \
  /* One entry per kPhaseMark in trace order (phases may repeat). */        \
  X(std::vector<PhaseStats>, phase_stats, {}, .section = kPhases,           \
    .key = "phases")                                                        \
  X(std::vector<CollectionRecord>, log, {}, .section = kLog,                \
    .key = "collection_log")                                                \
  X(std::vector<PhaseTransition>, phases, {}, .key = nullptr)

struct SimResult {
  // Where a row sits in the report (see SimResultToJson).
  enum Section : uint8_t {
    kMain = 0,       // top level, after the measurement_window object
    kBeforeWindow,   // top level, before it
    kFaults,         // the optional objects, in report order
    kSelfHealing,
    kOverload,
    kDisk,
    kPhases,         // after the optional objects
    kLog,            // only in reports that include the collection log
  };

  ODBGC_FIELD_TABLE(ODBGC_SIM_RESULT_FIELDS)

  // Telemetry outputs. They are not table rows: Finish rebuilds them
  // from the telemetry state, which checkpoints carry as a separate blob.
  //
  // Telemetry snapshot (empty unless SimConfig::telemetry.enabled).
  obs::TelemetrySnapshot telemetry;

  // Policy decision ledger (empty unless telemetry.record_decisions) and
  // periodic time-series frames (empty unless
  // telemetry.sample_interval_events > 0), oldest-first. The *_dropped
  // counters report how many older entries each bounded ring shed.
  std::vector<obs::PolicyDecisionRecord> decisions;
  uint64_t decisions_dropped = 0;
  std::vector<obs::TimeSeriesFrame> timeseries;
  uint64_t timeseries_dropped = 0;
};

// Derived per-collection series (Figure 7b's graphs).
std::vector<double> CollectionRateSeries(const SimResult& result);
std::vector<double> CollectionYieldSeries(const SimResult& result);

}  // namespace odbgc

#endif  // ODBGC_SIM_METRICS_H_
