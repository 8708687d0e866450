#ifndef ODBGC_SIM_PARALLEL_H_
#define ODBGC_SIM_PARALLEL_H_

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "oo7/params.h"
#include "sim/config.h"
#include "sim/errors.h"
#include "sim/runner.h"
#include "trace/trace.h"
#include "util/thread_pool.h"

namespace odbgc {

// The parallel experiment engine. Every figure/ablation harness sweeps a
// grid of simulation configurations over a handful of trace seeds; the
// runs are independent, and most grid points replay the *same* OO7
// application trace. The pieces here exploit both facts:
//
//   ThreadPool   - fixed-size worker pool (util/thread_pool.h, shared
//                  with the sharded fleet engine) with an indexed
//                  ParallelFor whose results land in submission order.
//   TraceCache   - immutable, shared traces keyed by (Oo7Params, seed):
//                  each trace is generated exactly once and handed out
//                  as shared_ptr<const Trace> with zero copies.
//   SweepRunner  - grid-of-(SimConfig x seed) driver over both, a
//                  drop-in replacement for serial RunOo7Once/RunOo7Many.
//
// Determinism guarantee: per-run RNGs are derived from the run's seed
// and runs never share mutable state, so a sweep's results — and any
// table printed from them in submission order — are byte-for-byte
// identical for every thread count, including 1.

// Thread-safe cache of generated OO7 application traces. The first
// requester of a (params, seed) key generates the trace; concurrent
// requesters of the same key block until it is ready. Entries are
// immutable, shared and kept for the cache's lifetime — callers must not
// mutate the returned trace.
class TraceCache {
 public:
  TraceCache() = default;
  TraceCache(const TraceCache&) = delete;
  TraceCache& operator=(const TraceCache&) = delete;

  // The full four-phase application for (params, seed), generated at
  // most once: a hit returns the shared entry.
  std::shared_ptr<const Trace> GetOo7(const Oo7Params& params,
                                      uint64_t seed);

  uint64_t hits() const;
  uint64_t misses() const;

  // Test hook: replaces the trace generator (GenerateOo7Trace). Lets
  // tests exercise the failed-generation retry path (a generator that
  // throws leaves no poisoned slot behind) without a real generation
  // failure. Not thread-safe against concurrent GetOo7 calls; install
  // before fanning work out.
  using Generator = std::function<std::shared_ptr<const Trace>(
      const Oo7Params&, uint64_t)>;
  void set_generator_for_test(Generator generator);

 private:
  // Params are plain counts, so member-wise equality is exactly
  // trace-identity.
  using Key = std::pair<Oo7Params, uint64_t>;
  struct Slot {
    std::shared_ptr<const Trace> trace;
    bool ready = false;
    bool failed = false;
  };

  mutable std::mutex mu_;
  std::condition_variable slot_ready_;
  std::map<Key, std::shared_ptr<Slot>> slots_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  Generator generator_;  // test override; null = GenerateOo7Trace
};

// Failure-isolation knobs for SweepRunner::RunWithStatus.
struct SweepOptions {
  // Attempts per run (>= 1). Only *transient* failures (SimError with
  // transient() == true, e.g. a missed deadline) are retried;
  // deterministic failures would fail identically again.
  int max_attempts = 1;
  // Sleep before the first retry; doubles per subsequent retry.
  double retry_backoff_ms = 0.0;
  // Per-run wall-clock watchdog: overrides SimConfig::deadline_ms for
  // every run when > 0 (0 keeps each config's own setting).
  double run_deadline_ms = 0.0;
  // Resumable sweeps: when checkpoint_prefix is non-empty and
  // checkpoint_every > 0, run i checkpoints to
  // "<prefix>.run<i>.ckpt" every checkpoint_every events, and an
  // interrupted sweep rerun with the same prefix resumes each run from
  // its last checkpoint instead of starting over (results stay
  // byte-identical to an uninterrupted sweep).
  std::string checkpoint_prefix;
  uint64_t checkpoint_every = 0;
};

// What happened to one sweep run.
struct RunStatus {
  bool failed = false;
  SimErrorKind error_kind = SimErrorKind::kGeneric;
  std::string message;   // empty unless failed
  int attempts = 1;      // attempts consumed (including the success)
  bool ok() const { return !failed; }
};

struct RunOutcome {
  SimResult result;  // meaningful only when status.ok()
  RunStatus status;
  // The failing attempt's exception (null when ok); lets callers that
  // want fail-fast semantics rethrow the original.
  std::exception_ptr exception;
};

// One grid point of a sweep: a simulation configuration applied to the
// OO7 application generated from (params, seed). Semantics mirror
// RunOo7Once exactly: the selector seed is derived from the trace seed
// (seed * 7919 + 17), decorrelated from the generator.
struct SweepPoint {
  SimConfig config;
  Oo7Params params;
  uint64_t seed = 1;
};

// Fans a grid of sweep points out across a thread pool, generating each
// distinct (params, seed) trace once. Results come back in submission
// order and are byte-identical to running RunOo7Once serially over the
// same points, for any thread count.
class SweepRunner {
 public:
  // threads <= 0 selects one thread per hardware core. Construction
  // validates the knob and throws SimInvalidConfig for unusable values
  // (absurdly large counts), so a bad flag fails before any threads
  // spawn; RunWithStatus likewise rejects unusable SweepOptions with
  // SimInvalidConfig before any run starts.
  explicit SweepRunner(int threads = 0);

  int threads() const { return pool_.size(); }
  ThreadPool& pool() { return pool_; }
  TraceCache& cache() { return cache_; }

  // Runs every point; results[i] corresponds to points[i]. Fail-fast:
  // if any run threw, the exception from the lowest-index failed run is
  // rethrown after the whole batch has drained (no retries). Kept for
  // harnesses where a failure should abort the figure.
  std::vector<SimResult> Run(const std::vector<SweepPoint>& points);

  // Failure-isolating variant: every run completes (or exhausts its
  // attempts) regardless of other runs' failures, and outcomes[i]
  // reports per-run status instead of throwing. Successful runs are
  // byte-identical to the same points under Run(), for any thread
  // count.
  std::vector<RunOutcome> RunWithStatus(const std::vector<SweepPoint>& points,
                                        const SweepOptions& options = {});

  // Cached-trace equivalent of RunOo7Once (identical result).
  SimResult RunOne(const SimConfig& config, const Oo7Params& params,
                   uint64_t seed);

  // Parallel equivalent of RunOo7Many (identical result): seeds
  // base_seed .. base_seed + num_runs - 1, aggregated in seed order.
  AggregateResult RunMany(const SimConfig& config, const Oo7Params& params,
                          uint64_t base_seed, int num_runs);

  // Live "done/total runs" lines on `out` (stderr by convention) as
  // workers finish; null disables.
  void set_progress_stream(std::FILE* out) { progress_out_ = out; }

 private:
  ThreadPool pool_;
  TraceCache cache_;
  std::FILE* progress_out_ = nullptr;
};

}  // namespace odbgc

#endif  // ODBGC_SIM_PARALLEL_H_
