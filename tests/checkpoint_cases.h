#ifndef ODBGC_TESTS_CHECKPOINT_CASES_H_
#define ODBGC_TESTS_CHECKPOINT_CASES_H_

// Test helper: one list of simulation configs that together put every
// checkpointed component kind into a checkpoint — every rate policy,
// every garbage estimator (under SAGA), every partition selector, the
// disk model, the overload governor in safe mode, the commit protocol
// under transient and torn faults, silent corruption with the scrubber,
// and telemetry with the decision ledger and the time-series sampler.
//
// Each case runs on the OO7 Tiny trace at seed kCheckpointCaseSeed.
// checkpoint_test resumes every case from a mid-trace crash;
// golden_output_test pins the bytes of every case's mid-trace
// checkpoint payload (tests/golden/checkpoint_digests.txt).

#include <cstdint>
#include <vector>

#include "sim/config.h"
#include "sim/metrics.h"

namespace odbgc {

inline constexpr uint64_t kCheckpointCaseSeed = 11;

struct CheckpointCase {
  const char* name;
  SimConfig config;
  // The state the case exists to checkpoint, checked on the run's
  // result at mid-trace; null when collecting is enough.
  bool (*reached)(const SimResult& at_checkpoint) = nullptr;
};

// Small partitions and early first collections, so that every policy
// collects on both sides of the trace's midpoint.
inline SimConfig TinyCheckpointConfig(PolicyKind policy) {
  SimConfig cfg;
  cfg.store.partition_bytes = 8 * 1024;
  cfg.store.page_bytes = 1024;
  cfg.store.buffer_pages = 8;
  cfg.preamble_collections = 3;
  cfg.policy = policy;
  cfg.saga.bootstrap_overwrites = 50;
  cfg.saga.dt_max = 100;
  cfg.saio_frac = 0.3;
  cfg.saio_bootstrap_app_io = 50;
  cfg.coupled.io_frac = 0.3;
  cfg.coupled.bootstrap_app_io = 50;
  return cfg;
}

inline std::vector<CheckpointCase> CheckpointCases() {
  std::vector<CheckpointCase> cases;
  auto add = [&cases](const char* name, PolicyKind policy, auto&& tweak,
                      bool (*reached)(const SimResult&) = nullptr) {
    SimConfig cfg = TinyCheckpointConfig(policy);
    tweak(cfg);
    cases.push_back(CheckpointCase{name, cfg, reached});
  };
  auto none = [](SimConfig&) {};

  // Every policy; the selectors ride along.
  add("fixed_lru", PolicyKind::kFixedRate, [](SimConfig& c) {
    c.fixed_rate_overwrites = 50;
    c.selector = SelectorKind::kLeastRecentlyCollected;
  });
  add("heuristic", PolicyKind::kConnectivityHeuristic, none);
  add("saio_hist_roundrobin", PolicyKind::kSaio, [](SimConfig& c) {
    c.saio_history = 5;
    c.selector = SelectorKind::kRoundRobin;
  });
  add("coupled_disk_timing", PolicyKind::kCoupled,
      [](SimConfig& c) { c.store.enable_disk_timing = true; });
  add("alloc_rate_oracle_selector", PolicyKind::kAllocationRate,
      [](SimConfig& c) {
        c.allocation_rate_bytes = 16 * 1024;
        c.selector = SelectorKind::kMostGarbageOracle;
      });
  add("alloc_triggered_density", PolicyKind::kAllocationTriggered,
      [](SimConfig& c) { c.selector = SelectorKind::kOverwriteDensity; });

  // Every estimator under SAGA.
  add("saga_fgshb", PolicyKind::kSaga, none);
  add("saga_fgscb", PolicyKind::kSaga,
      [](SimConfig& c) { c.estimator = EstimatorKind::kFgsCb; });
  add("saga_cgshb", PolicyKind::kSaga,
      [](SimConfig& c) { c.estimator = EstimatorKind::kCgsHb; });
  add("saga_cgscb_random", PolicyKind::kSaga, [](SimConfig& c) {
    c.estimator = EstimatorKind::kCgsCb;
    c.selector = SelectorKind::kRandom;
  });
  add("saga_oracle", PolicyKind::kSaga,
      [](SimConfig& c) { c.estimator = EstimatorKind::kOracle; });

  // The governor, the fault paths and telemetry.
  add(
      "saga_governor_safe_mode", PolicyKind::kSaga,
      [](SimConfig& c) {
        c.estimator = EstimatorKind::kCgsCb;
        c.governor.enabled = true;
        c.governor.safe_mode_divergence_frac = 0.01;
      },
      [](const SimResult& r) { return r.safe_mode_entries > 0; });
  add(
      "saio_commit_transient_torn", PolicyKind::kSaio,
      [](SimConfig& c) {
        c.store.fault.commit_protocol = true;
        c.store.fault.read_fault_prob = 0.02;
        c.store.fault.write_fault_prob = 0.01;
        c.store.fault.torn_write_prob = 0.02;
      },
      [](const SimResult& r) {
        return r.io_retries > 0 && r.torn_writes > 0;
      });
  add(
      "saga_bitflip_scrub", PolicyKind::kSaga,
      [](SimConfig& c) {
        c.store.fault.bitflip_prob = 0.05;
        c.scrub_interval_events = 16;
      },
      [](const SimResult& r) { return r.scrub_detections > 0; });
  add(
      "saga_telemetry_streams", PolicyKind::kSaga,
      [](SimConfig& c) {
        c.telemetry.enabled = true;
        c.telemetry.record_decisions = true;
        c.telemetry.sample_interval_events = 256;
      },
      [](const SimResult& r) {
        return !r.decisions.empty() && !r.timeseries.empty();
      });
  return cases;
}

}  // namespace odbgc

#endif  // ODBGC_TESTS_CHECKPOINT_CASES_H_
