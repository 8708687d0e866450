#ifndef ODBGC_SIM_RUNNER_H_
#define ODBGC_SIM_RUNNER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "oo7/params.h"
#include "sim/config.h"
#include "sim/metrics.h"
#include "trace/trace.h"
#include "util/stats.h"

namespace odbgc {

// Aggregate of several runs differing only in their random seed —
// the paper's "mean of 10 runs" with min/max error bars.
struct AggregateResult {
  std::vector<SimResult> runs;
  // Per-run achieved GC-I/O percentage (post-preamble).
  MinMeanMax achieved_io_pct;
  // Per-run mean garbage percentage (event-sampled, post-preamble).
  MinMeanMax mean_garbage_pct;
  MinMeanMax collections;
  MinMeanMax total_io;
};

// Summarizes per-run results (in the given order) into the aggregate.
AggregateResult AggregateRuns(std::vector<SimResult> runs);

// Derives every per-run RNG stream in `config` from the run's seed, in
// one place so the serial, cached, and thread-pooled paths stay
// byte-identical:
//   * selector_seed decorrelates from the trace generator (seed*7919+17);
//   * if the config enables I/O faults, FaultPlan::seed is mixed with the
//     run seed (SplitMix64 finalizer) so each run of a sweep draws an
//     independent fault stream while staying reproducible.
void ApplyRunSeeds(SimConfig* config, uint64_t seed);

// Generates the full four-phase OO7 application trace for (params, seed).
// Returned immutable and shared so sweeps can replay one generation many
// times with zero copies (see sim/parallel.h's TraceCache).
std::shared_ptr<const Trace> GenerateOo7Trace(const Oo7Params& params,
                                              uint64_t seed);

// Generates the trace for (params, seed) and runs it under `config`.
SimResult RunOo7Once(const SimConfig& config, const Oo7Params& params,
                     uint64_t seed);

// Runs `num_runs` seeds (base_seed, base_seed+1, ...) and aggregates.
// With threads != 1 the runs fan out across a thread pool (one trace
// generation per seed); results are byte-identical to the serial path
// for any thread count. threads <= 0 means one thread per hardware core.
AggregateResult RunOo7Many(const SimConfig& config, const Oo7Params& params,
                           uint64_t base_seed, int num_runs,
                           int threads = 1);

}  // namespace odbgc

#endif  // ODBGC_SIM_RUNNER_H_
