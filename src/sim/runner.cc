#include "sim/runner.h"

#include <utility>

#include "oo7/generator.h"
#include "sim/parallel.h"
#include "sim/simulation.h"

namespace odbgc {

AggregateResult AggregateRuns(std::vector<SimResult> runs) {
  AggregateResult agg;
  std::vector<double> io_pct;
  std::vector<double> garb_pct;
  std::vector<double> colls;
  std::vector<double> total_io;
  for (SimResult& r : runs) {
    io_pct.push_back(r.achieved_gc_io_pct);
    garb_pct.push_back(r.garbage_pct.mean());
    colls.push_back(static_cast<double>(r.collections));
    total_io.push_back(static_cast<double>(r.clock.total_io()));
    agg.runs.push_back(std::move(r));
  }
  agg.achieved_io_pct = Summarize(io_pct);
  agg.mean_garbage_pct = Summarize(garb_pct);
  agg.collections = Summarize(colls);
  agg.total_io = Summarize(total_io);
  return agg;
}

std::shared_ptr<const Trace> GenerateOo7Trace(const Oo7Params& params,
                                              uint64_t seed) {
  Oo7Generator generator(params, seed);
  auto trace = std::make_shared<Trace>(generator.GenerateFullApplication());
  return trace;
}

void ApplyRunSeeds(SimConfig* config, uint64_t seed) {
  config->selector_seed = seed * 7919 + 17;  // decorrelate from the generator
  if (config->store.fault.io_faults_enabled()) {
    // SplitMix64 finalizer over (plan seed, run seed): well-mixed, cheap,
    // and independent of the selector stream.
    uint64_t z = config->store.fault.seed +
                 0x9e3779b97f4a7c15ull * (seed + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    config->store.fault.seed = z ^ (z >> 31);
  }
}

SimResult RunOo7Once(const SimConfig& config, const Oo7Params& params,
                     uint64_t seed) {
  std::shared_ptr<const Trace> trace = GenerateOo7Trace(params, seed);
  SimConfig cfg = config;
  ApplyRunSeeds(&cfg, seed);
  return RunSimulation(cfg, *trace);
}

AggregateResult RunOo7Many(const SimConfig& config, const Oo7Params& params,
                           uint64_t base_seed, int num_runs, int threads) {
  if (threads == 1) {
    std::vector<SimResult> runs;
    runs.reserve(static_cast<size_t>(num_runs > 0 ? num_runs : 0));
    for (int i = 0; i < num_runs; ++i) {
      runs.push_back(RunOo7Once(config, params, base_seed + i));
    }
    return AggregateRuns(std::move(runs));
  }
  SweepRunner runner(threads);
  return runner.RunMany(config, params, base_seed, num_runs);
}

}  // namespace odbgc
