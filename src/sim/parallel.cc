#include "sim/parallel.h"

#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/progress.h"
#include "oo7/generator.h"
#include "sim/checkpoint.h"
#include "sim/simulation.h"
#include "util/check.h"

namespace odbgc {

void TraceCache::set_generator_for_test(Generator generator) {
  std::lock_guard<std::mutex> lock(mu_);
  generator_ = std::move(generator);
}

std::shared_ptr<const Trace> TraceCache::GetOo7(const Oo7Params& params,
                                                uint64_t seed) {
  const Key key{params, seed};
  std::shared_ptr<Slot> slot;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = slots_.find(key);
    if (it != slots_.end()) {
      ++hits_;
      slot = it->second;
      slot_ready_.wait(lock, [&slot] { return slot->ready; });
      if (slot->failed) {
        throw std::runtime_error("TraceCache: generation failed for key");
      }
      return slot->trace;
    }
    ++misses_;
    slot = std::make_shared<Slot>();
    slots_.emplace(key, slot);
  }
  // Generate outside the lock so distinct keys generate concurrently.
  Generator generator;
  {
    std::lock_guard<std::mutex> lock(mu_);
    generator = generator_;
  }
  std::shared_ptr<const Trace> trace;
  try {
    trace = generator ? generator(params, seed)
                      : GenerateOo7Trace(params, seed);
    if (trace == nullptr) {
      throw std::runtime_error("TraceCache: generator returned null");
    }
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      slot->ready = true;
      slot->failed = true;
      slots_.erase(key);  // a later request may retry
    }
    slot_ready_.notify_all();
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    slot->trace = trace;
    slot->ready = true;
  }
  slot_ready_.notify_all();
  return trace;
}

uint64_t TraceCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t TraceCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

namespace {
// Backstop against a mistyped thread knob (e.g. a seed pasted into
// --threads) spawning thousands of OS threads before anything runs.
constexpr int kMaxSweepThreads = 1024;

int ValidatedThreadCount(int threads) {
  if (threads > kMaxSweepThreads) {
    throw SimInvalidConfig("thread count " + std::to_string(threads) +
                           " exceeds the supported maximum " +
                           std::to_string(kMaxSweepThreads));
  }
  return threads;  // <= 0 still means "one per hardware core"
}
}  // namespace

SweepRunner::SweepRunner(int threads)
    : pool_(ValidatedThreadCount(threads)) {}

std::vector<SimResult> SweepRunner::Run(const std::vector<SweepPoint>& points) {
  // Fail-fast wrapper: figure harnesses treat any run failure as fatal.
  std::vector<RunOutcome> outcomes = RunWithStatus(points, SweepOptions{});
  std::vector<SimResult> results(points.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].exception) std::rethrow_exception(outcomes[i].exception);
    results[i] = std::move(outcomes[i].result);
  }
  return results;
}

std::vector<RunOutcome> SweepRunner::RunWithStatus(
    const std::vector<SweepPoint>& points, const SweepOptions& options) {
  // Reject unusable options up front with a typed error instead of an
  // abort: a sweep harness can report the bad knob and exit cleanly, and
  // nothing has run yet, so there is no partial result to lose.
  if (options.max_attempts < 1) {
    throw SimInvalidConfig("max_attempts must be >= 1, got " +
                           std::to_string(options.max_attempts));
  }
  if (options.retry_backoff_ms < 0.0) {
    throw SimInvalidConfig("retry_backoff_ms must be >= 0");
  }
  if (options.run_deadline_ms < 0.0) {
    throw SimInvalidConfig("run_deadline_ms must be >= 0");
  }
  if (options.checkpoint_every > 0 && options.checkpoint_prefix.empty()) {
    throw SimInvalidConfig(
        "checkpoint_every is set but checkpoint_prefix is empty");
  }
  std::vector<RunOutcome> outcomes(points.size());
  std::unique_ptr<obs::SweepProgress> progress;
  if (progress_out_ != nullptr && !points.empty()) {
    progress = std::make_unique<obs::SweepProgress>(progress_out_,
                                                    points.size());
  }
  pool_.ParallelFor(points.size(),
                    [this, &points, &outcomes, &options, &progress](size_t i) {
    const SweepPoint& p = points[i];
    RunOutcome& out = outcomes[i];
    for (int attempt = 1; attempt <= options.max_attempts; ++attempt) {
      out.status.attempts = attempt;
      bool transient = false;
      try {
        std::shared_ptr<const Trace> trace = cache_.GetOo7(p.params, p.seed);
        SimConfig cfg = p.config;
        ApplyRunSeeds(&cfg, p.seed);  // as RunOo7Once
        if (options.run_deadline_ms > 0.0) {
          cfg.deadline_ms = options.run_deadline_ms;
        }
        const bool checkpointing = !options.checkpoint_prefix.empty() &&
                                   options.checkpoint_every > 0;
        if (checkpointing) {
          const std::string ckpt = options.checkpoint_prefix + ".run" +
                                   std::to_string(i) + ".ckpt";
          ResumeResult resumed = ResumeFromCheckpoint(cfg, ckpt);
          std::unique_ptr<Simulation> sim =
              resumed.ok() ? std::move(resumed.sim)
                           : std::make_unique<Simulation>(cfg);
          out.result = sim->RunFrom(*trace, ckpt, options.checkpoint_every);
        } else {
          out.result = RunSimulation(cfg, *trace);
        }
        out.status.failed = false;
        out.status.message.clear();
        out.exception = nullptr;
        break;
      } catch (const SimError& e) {
        out.status.failed = true;
        out.status.error_kind = e.kind();
        out.status.message = e.what();
        out.exception = std::current_exception();
        transient = e.transient();
      } catch (const std::exception& e) {
        out.status.failed = true;
        out.status.error_kind = SimErrorKind::kGeneric;
        out.status.message = e.what();
        out.exception = std::current_exception();
      } catch (...) {
        out.status.failed = true;
        out.status.error_kind = SimErrorKind::kGeneric;
        out.status.message = "unknown exception";
        out.exception = std::current_exception();
      }
      if (!transient || attempt == options.max_attempts) break;
      if (options.retry_backoff_ms > 0.0) {
        const double factor = static_cast<double>(1u << (attempt - 1));
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            options.retry_backoff_ms * factor));
      }
    }
    if (progress != nullptr) progress->OnRunDone();
  });
  return outcomes;
}

SimResult SweepRunner::RunOne(const SimConfig& config, const Oo7Params& params,
                              uint64_t seed) {
  std::shared_ptr<const Trace> trace = cache_.GetOo7(params, seed);
  SimConfig cfg = config;
  ApplyRunSeeds(&cfg, seed);
  return RunSimulation(cfg, *trace);
}

AggregateResult SweepRunner::RunMany(const SimConfig& config,
                                     const Oo7Params& params,
                                     uint64_t base_seed, int num_runs) {
  ODBGC_CHECK(num_runs >= 0);
  std::vector<SweepPoint> points;
  points.reserve(static_cast<size_t>(num_runs));
  for (int i = 0; i < num_runs; ++i) {
    points.push_back(SweepPoint{config, params, base_seed + i});
  }
  return AggregateRuns(Run(points));
}

}  // namespace odbgc
