#ifndef ODBGC_SIM_CONFIG_H_
#define ODBGC_SIM_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "core/coupled.h"
#include "core/estimator.h"
#include "core/saga.h"
#include "gc/partition_selector.h"
#include "obs/telemetry.h"
#include "sim/governor.h"
#include "storage/object_store.h"

namespace odbgc {

enum class PolicyKind {
  kFixedRate,
  kConnectivityHeuristic,
  kSaio,
  kSaga,
  // Section 5 extension: SAIO throttled by SAGA's garbage estimate.
  kCoupled,
  // YNY94-style allocation-clock baselines (Section 1's related work).
  kAllocationRate,
  kAllocationTriggered,
};

// Complete description of one simulation configuration. Mirrors the
// paper's experimental setup: 96 KB partitions, 8 KB pages, a buffer the
// size of one partition, UpdatedPointer selection, and a 10-collection
// preamble excluded from all means (Section 3).
//
// Every row here and in the nested tables is a behavior knob that the
// checkpoint config fingerprint hashes in row order (sim/checkpoint.h);
// members a resumed run may change are declared after the tables.
#define ODBGC_SIM_CONFIG_FIELDS(X)                                         \
  X(StoreConfig, store, {})                                                \
  /* Cold-start exclusion (Section 3.2): the measurement window opens      \
     after `preamble_collections` collections — except that for SAGA       \
     runs still ramping toward a high garbage target, it stays closed      \
     until the target is approached or `preamble_max_collections` is       \
     reached ("preamble lengths range from 10 to 30 collections,           \
     depending on the simulation parameters"). */                          \
  X(uint32_t, preamble_collections, 10)                                    \
  X(uint32_t, preamble_max_collections, 30)                                \
  X(bool, record_collection_log, true)                                     \
  X(PolicyKind, policy, PolicyKind::kSaga)                                 \
  X(uint64_t, fixed_rate_overwrites, 200) /* FixedRate */                  \
  /* AllocationRate baseline: collect every N allocated bytes. */          \
  X(uint64_t, allocation_rate_bytes, 96 * 1024)                            \
  /* ConnectivityHeuristic (Section 2.1's failed static derivation). */    \
  X(double, heuristic_connectivity, 4.0)                                   \
  X(double, heuristic_object_bytes, 133.0)                                 \
  /* SAIO. */                                                              \
  X(double, saio_frac, 0.10)                                               \
  X(size_t, saio_history, 0) /* c_hist; kInfiniteHistory = inf */          \
  X(uint64_t, saio_bootstrap_app_io, 2000)                                 \
  /* Quiescence extension for SAIO (kIdleMark events in the trace). */     \
  X(bool, saio_opportunism, false)                                         \
  X(uint64_t, saio_min_idle_yield, 4096)                                   \
  /* SAGA (saga.opportunism enables its quiescence extension). */          \
  X(SagaPolicy::Options, saga, {})                                         \
  X(EstimatorKind, estimator, EstimatorKind::kFgsHb)                       \
  X(double, fgs_history_factor, 0.8)                                       \
  /* Coupled policy (Section 5 extension); uses `estimator` /              \
     `fgs_history_factor` for its garbage estimate. */                     \
  X(CoupledIoPolicy::Options, coupled, {})                                 \
  /* Partition selection. */                                               \
  X(SelectorKind, selector, SelectorKind::kUpdatedPointer)                 \
  /* Heap invariant verification (storage/verifier.h). The verifier runs   \
     after every crash recovery by default (a recovery that corrupts the   \
     heap should abort the run, not skew its measurements) and can be      \
     turned on after every collection for debugging; a violation aborts    \
     via ODBGC_CHECK. `verify_reachability` additionally compares the      \
     ground-truth garbage markers against a full reachability scan; it     \
     is off by default because kGarbageMark annotations trail the          \
     mutation that created the garbage by one trace event, so the          \
     comparison is only exact at quiescent points (end of run, bare        \
     fixtures), not at arbitrary mid-run collections. */                   \
  X(bool, verify_after_collection, false)                                  \
  X(bool, verify_after_recovery, true)                                     \
  X(bool, verify_reachability, false)                                      \
  /* Self-healing (storage/scrubber.h + quarantine/repair). The scrubber   \
     runs one quantum every `scrub_interval_events` applied trace events   \
     (0 disables it), reading up to `scrub_pages_per_quantum` pages        \
     through the media so latent damage (bit-flips, decayed pages) is      \
     detected before a demand read consumes it. Detections quarantine      \
     the damaged partition; with `auto_repair` the simulation heals the    \
     media, rewrites the partition's pages from the authoritative object   \
     state, rebuilds all derived state, and releases the quarantine (at    \
     scrub ticks when the scrubber is on — so the quarantine window is     \
     observable — or immediately otherwise). `verify_after_repair` runs    \
     the partition verifier on each repaired partition; a violation        \
     aborts the run. Zero-fault runs never enter any of these paths. */    \
  X(uint32_t, scrub_interval_events, 0)                                    \
  X(uint32_t, scrub_pages_per_quantum, 8)                                  \
  X(bool, auto_repair, true)                                               \
  X(bool, verify_after_repair, true)                                       \
  /* Overload protection (sim/governor.h): watermark-driven pressure       \
     governor with rate boost, emergency collection and safe-mode policy   \
     fallback. Default-disabled; knob-free runs are byte-identical to      \
     pre-governor builds. Works with StoreConfig::max_db_bytes for the     \
     capacity watermarks (uncapped runs keep only the safe-mode fence). */ \
  X(GovernorConfig, governor, {})

struct SimConfig {
  ODBGC_FIELD_TABLE(ODBGC_SIM_CONFIG_FIELDS)

  // Not fingerprinted: a resumed run may change these.
  //
  // Partition-selector seed; a resumed run restores the live RNG state
  // from its checkpoint instead.
  uint64_t selector_seed = 1;

  // Per-run wall-clock budget in milliseconds (0 disables). Checked every
  // 4096 events inside Simulation::RunFrom; an exceeded budget raises
  // SimDeadlineExceeded (sim/errors.h), which sweep harnesses classify
  // as transient. A resumed run may get a fresh budget.
  double deadline_ms = 0.0;

  // In-run telemetry (src/obs/): metrics registry and structured trace.
  // Default-disabled; an enabled run stays semantically identical (the
  // telemetry never feeds back into simulation decisions). A resumed run
  // restores a checkpoint's telemetry state only if it enables telemetry.
  obs::TelemetryOptions telemetry;
};

}  // namespace odbgc

#endif  // ODBGC_SIM_CONFIG_H_
