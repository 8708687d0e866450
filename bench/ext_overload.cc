// Overload-governor scenario family: bounded-capacity operation under an
// allocation burst (robustness extension; no direct paper figure — the
// paper's Section 5 asks what happens when its steady-state assumptions
// break, and "the database hits its space ceiling" is the sharpest way
// they break).
//
// Three runs of the same uniform-churn trace under a deliberately lazy
// fixed-rate policy (garbage accumulates much faster than the policy
// collects):
//   * uncapped baseline — measures the committed partition footprint the
//     lazy policy needs when space is free;
//   * capped, governor OFF — the same run under a ceiling at --cap-frac
//     of that footprint MUST exit SpaceExhausted (the harness fails
//     otherwise: the scenario would not be probing anything);
//   * capped, governor ON — the same ceiling with the pressure governor
//     enabled MUST run the trace to completion: watermark boosts and
//     emergency collections hold utilization under the ceiling, and the
//     app-visible GC stall p99 is reported so the graceful-degradation
//     claim is quantified, not asserted.
//
// A fourth section runs a governed multi-tenant fleet (capped shard
// stores, admission backpressure, per-shard circuit breaker) and checks
// the fleet checksum is byte-identical at --threads=1 and
// --check-threads apply lanes.
//
// Emits BENCH_overload_run.json.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "sim/errors.h"
#include "sim/multi_tenant.h"
#include "sim/simulation.h"
#include "util/file.h"
#include "util/json.h"
#include "util/table_printer.h"
#include "workloads/streaming.h"
#include "workloads/synthetic.h"

namespace {

using odbgc::bench::BenchArgs;

struct Args {
  uint64_t seed = 1;
  // The churn trace's live set is bounded while its uncapped footprint
  // grows with cycles, so cap_frac's bite depends on cycles; the pair
  // below lands the governed run in the regime where both the yellow
  // boost and the red emergency path fire.
  int cycles = 6000;
  // Ceiling as a fraction of the uncapped footprint. The default is
  // tight enough that yellow-watermark boosts alone cannot hold the
  // line, so the red-watermark emergency path is exercised too.
  double cap_frac = 0.25;
  int fleet_clients = 24;
  int check_threads = 2;  // fleet determinism lane count (0 = skip)
  std::string json_out = "BENCH_overload_run.json";

  static constexpr const char* kUsage =
      "supported: --seed=N --cycles=N --cap-frac=F --fleet-clients=N "
      "--check-threads=N (0 skips the fleet determinism re-run) "
      "--json-out=PATH";

  static Args Parse(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strncmp(a, "--seed=", 7) == 0) {
        args.seed = static_cast<uint64_t>(
            BenchArgs::ParseIntOrDie("--seed", a + 7, 0, INT64_MAX));
      } else if (std::strncmp(a, "--cycles=", 9) == 0) {
        args.cycles = static_cast<int>(
            BenchArgs::ParseIntOrDie("--cycles", a + 9, 100, 10000000));
      } else if (std::strncmp(a, "--cap-frac=", 11) == 0) {
        args.cap_frac = std::atof(a + 11);
        if (args.cap_frac <= 0.0 || args.cap_frac > 1.0) {
          std::fprintf(stderr, "--cap-frac must be in (0, 1]\n");
          std::exit(2);
        }
      } else if (std::strncmp(a, "--fleet-clients=", 16) == 0) {
        args.fleet_clients = static_cast<int>(
            BenchArgs::ParseIntOrDie("--fleet-clients", a + 16, 1, 100000));
      } else if (std::strncmp(a, "--check-threads=", 16) == 0) {
        args.check_threads = static_cast<int>(
            BenchArgs::ParseIntOrDie("--check-threads", a + 16, 0, 1024));
      } else if (std::strncmp(a, "--json-out=", 11) == 0) {
        args.json_out = a + 11;
      } else {
        std::fprintf(stderr, "unknown argument '%s' (%s)\n", a, kUsage);
        std::exit(2);
      }
    }
    return args;
  }
};

// A policy lazy enough that garbage piles up: one collection per 20000
// pointer overwrites on a trace that produces garbage every cycle.
odbgc::SimConfig BurstConfig(uint64_t max_db_bytes, bool governor) {
  odbgc::SimConfig cfg;
  cfg.store.partition_bytes = 32 * 1024;
  cfg.store.page_bytes = 4 * 1024;
  cfg.store.buffer_pages = 8;
  cfg.store.max_db_bytes = max_db_bytes;
  cfg.policy = odbgc::PolicyKind::kFixedRate;
  cfg.fixed_rate_overwrites = 20000;
  cfg.preamble_collections = 2;
  cfg.record_collection_log = false;
  cfg.governor.enabled = governor;
  cfg.telemetry.enabled = true;  // stall.gc_copy_io for the p99 claim
  return cfg;
}

struct RunOutcome {
  bool exhausted = false;
  uint64_t exhausted_used = 0;
  odbgc::SimResult result;
  double stall_p99 = 0.0;
};

RunOutcome RunScenario(const odbgc::Trace& trace, uint64_t max_db_bytes,
                       bool governor) {
  RunOutcome out;
  odbgc::Simulation sim(BurstConfig(max_db_bytes, governor));
  try {
    out.result = sim.Run(trace);
  } catch (const odbgc::SpaceExhaustedError& e) {
    out.exhausted = true;
    out.exhausted_used = e.used_bytes();
    out.result = sim.Finish();
  }
  if (odbgc::obs::Telemetry* tel = sim.telemetry()) {
    out.stall_p99 =
        tel->metrics().GetHistogram("stall.gc_copy_io")->Percentile(99.0);
  }
  return out;
}

odbgc::MultiTenantReport RunFleet(const Args& args, uint64_t shard_cap,
                                  int threads) {
  odbgc::MultiTenantOptions opt;
  opt.num_shards = 4;
  opt.threads = threads;
  opt.epoch_events = 2048;
  opt.catalog_per_shard = 3;
  opt.share_prob = 0.05;
  opt.seed = args.seed;
  opt.coordinator_period = 4;
  opt.global_io_frac = 0.10;
  opt.backpressure = true;
  opt.admission_defer_limit = 4;
  opt.breaker = true;
  opt.shard_config = BurstConfig(shard_cap, /*governor=*/true);
  opt.shard_config.telemetry.enabled = false;  // keep the fleet cell lean
  // Disable the yellow-watermark boost so shards actually reach red:
  // the cell exists to exercise admission backpressure and the breaker,
  // which both key off red-watermark pressure.
  opt.shard_config.governor.boost_interval_overwrites = 1ull << 40;
  odbgc::MultiTenantEngine engine(opt);
  for (int c = 0; c < args.fleet_clients; ++c) {
    odbgc::MuxClientOptions m;
    m.base_chunk = 32;
    m.chunk_jitter = 8;
    m.think_time = 2;
    m.seed = args.seed * 100003 + static_cast<uint64_t>(c);
    odbgc::StreamingChurnOptions o;
    o.seed = args.seed * 7919 + static_cast<uint64_t>(c);
    o.cycles = 400;
    engine.AddClient(std::make_unique<odbgc::StreamingChurnSource>(o), m);
  }
  return engine.Run();
}

}  // namespace

int main(int argc, char** argv) {
  Args args = Args::Parse(argc, argv);
  odbgc::bench::PrintHeader(
      "Overload governor: bounded capacity, emergency GC, backpressure",
      "Section 5 discussion (assumption breakage); robustness extension, "
      "no direct paper figure");

  odbgc::UniformChurnOptions churn;
  churn.seed = args.seed;
  churn.cycles = args.cycles;
  odbgc::Trace trace = odbgc::MakeUniformChurn(churn);

  // 1. Uncapped baseline: how much space does the lazy policy need?
  RunOutcome baseline = RunScenario(trace, 0, /*governor=*/false);
  const uint64_t footprint =
      static_cast<uint64_t>(baseline.result.final_partition_count) * 32 *
      1024;
  const uint64_t cap = static_cast<uint64_t>(
      static_cast<double>(footprint) * args.cap_frac);
  std::printf("uncapped footprint: %llu partitions (%llu bytes); "
              "ceiling for the capped runs: %llu bytes (%.0f%%)\n",
              static_cast<unsigned long long>(
                  baseline.result.final_partition_count),
              static_cast<unsigned long long>(footprint),
              static_cast<unsigned long long>(cap), 100.0 * args.cap_frac);

  // 2. Capped, ungoverned: must die at the ceiling.
  RunOutcome ungoverned = RunScenario(trace, cap, /*governor=*/false);
  if (!ungoverned.exhausted) {
    std::cerr << "FATAL: capped ungoverned run did not exhaust capacity — "
                 "the scenario is not probing the ceiling; lower "
                 "--cap-frac\n";
    return 1;
  }

  // 3. Capped, governed: must survive to trace completion.
  RunOutcome governed = RunScenario(trace, cap, /*governor=*/true);
  if (governed.exhausted) {
    std::cerr << "FATAL: governor failed to hold the run under its "
                 "capacity ceiling\n";
    return 1;
  }
  const odbgc::SimResult& g = governed.result;
  if (g.governor_boost_collections + g.governor_emergency_collections ==
      0) {
    std::cerr << "FATAL: governed run never intervened — ceiling too "
                 "loose to exercise the governor\n";
    return 1;
  }

  odbgc::TablePrinter t({"scenario", "events", "collections", "forced",
                         "emergency", "safe_mode", "peak_util_pct",
                         "stall_p99", "outcome"});
  auto row = [&t](const char* name, const RunOutcome& r) {
    const odbgc::SimResult& s = r.result;
    t.AddRow({name, std::to_string(s.clock.events),
              std::to_string(s.collections),
              std::to_string(s.governor_boost_collections),
              std::to_string(s.governor_emergency_collections),
              std::to_string(s.safe_mode_entries),
              odbgc::TablePrinter::Fmt(
                  static_cast<double>(s.peak_utilization_pct_x100) / 100.0,
                  1),
              odbgc::TablePrinter::Fmt(r.stall_p99, 1),
              r.exhausted ? "SPACE EXHAUSTED" : "completed"});
  };
  row("uncapped", baseline);
  row("capped_ungoverned", ungoverned);
  row("capped_governed", governed);
  t.Print(std::cout);

  // 4. Governed fleet determinism: backpressure + breaker active, fleet
  // checksum byte-identical across apply-lane counts.
  const uint64_t shard_cap = 6 * 32 * 1024;  // 6 partitions per shard
  odbgc::MultiTenantReport fleet = RunFleet(args, shard_cap, 1);
  if (args.check_threads > 0) {
    odbgc::MultiTenantReport fleet2 =
        RunFleet(args, shard_cap, args.check_threads);
    if (fleet.FleetChecksum() != fleet2.FleetChecksum()) {
      std::cerr << "FATAL: governed fleet checksum diverged across thread "
                   "counts: "
                << fleet.FleetChecksum() << " (threads=1) != "
                << fleet2.FleetChecksum()
                << " (threads=" << args.check_threads << ")\n";
      return 1;
    }
    std::printf("\nfleet determinism: governed %d-client fleet "
                "byte-identical at --threads=1 and --threads=%d "
                "(checksum %llu)\n",
                args.fleet_clients, args.check_threads,
                static_cast<unsigned long long>(fleet.FleetChecksum()));
  }
  std::printf("fleet overload: %llu admission deferrals, %llu breaker "
              "opens, %llu breaker closes\n",
              static_cast<unsigned long long>(fleet.admission_deferrals),
              static_cast<unsigned long long>(fleet.breaker_opens),
              static_cast<unsigned long long>(fleet.breaker_closes));

  odbgc::JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.Value("overload");
  w.Key("seed");
  w.Value(args.seed);
  w.Key("cap_bytes");
  w.Value(cap);
  w.Key("sections");
  w.BeginArray();
  auto section = [&w](const char* name, const RunOutcome& r) {
    const odbgc::SimResult& s = r.result;
    w.BeginObject();
    w.Key("name");
    w.Value(name);
    w.Key("ops");
    w.Value(s.clock.events);
    w.Key("collections");
    w.Value(s.collections);
    w.Key("governor_boost_collections");
    w.Value(s.governor_boost_collections);
    w.Key("governor_emergency_collections");
    w.Value(s.governor_emergency_collections);
    w.Key("governor_gc_io");
    w.Value(s.governor_gc_io);
    w.Key("safe_mode_entries");
    w.Value(s.safe_mode_entries);
    w.Key("peak_utilization_pct");
    w.Value(static_cast<double>(s.peak_utilization_pct_x100) / 100.0);
    w.Key("stall_gc_copy_p99");
    w.Value(r.stall_p99);
    w.Key("exhausted");
    w.Value(r.exhausted);
    w.EndObject();
  };
  section("uncapped", baseline);
  section("capped_ungoverned", ungoverned);
  section("capped_governed", governed);
  w.BeginObject();
  w.Key("name");
  w.Value("governed_fleet");
  w.Key("ops");
  w.Value(fleet.events);
  w.Key("checksum");
  w.Value(fleet.FleetChecksum());
  w.Key("admission_deferrals");
  w.Value(fleet.admission_deferrals);
  w.Key("breaker_opens");
  w.Value(fleet.breaker_opens);
  w.Key("breaker_closes");
  w.Value(fleet.breaker_closes);
  w.EndObject();
  w.EndArray();
  w.EndObject();

  if (!odbgc::WriteWholeFile(args.json_out, w.TakeString() + "\n")) {
    std::fprintf(stderr, "error: cannot write '%s'\n", args.json_out.c_str());
    return 1;
  }
  std::cout << "wrote " << args.json_out << "\n";
  return 0;
}
