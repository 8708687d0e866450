// Multi-tenant scale-out sweep: 10 -> 10,000 streaming clients through
// the ClientMux into a sharded MultiTenantEngine (per-shard stores and
// SAIO policies, cross-shard remembered-set exchange, global GC I/O
// budget coordinator).
//
// What each cell reports:
//   * measured wall time and events/sec of the whole engine at 1 apply
//     thread and at --threads, and their ratio (wall clock;
//     host-dependent, gated loosely by tools/bench_diff.py)
//   * fleet checksum (FleetChecksum) — must be byte-identical at every
//     --threads value; the harness aborts when a cell's two runs
//     diverge, and re-runs the smallest cell at 1 and --check-threads
//     threads as well
//   * p99 app-visible GC stall from the merged per-shard histograms
//   * resident accounting (engine ApproxMemoryBytes + proc RSS): the
//     streaming composition keeps it O(clients), independent of the
//     fleet's total event volume.
//
// Small cells mix in OO7 replay tenants drawn from a shared TraceCache,
// whose hits and misses are reported.
//
// Emits BENCH_multi_tenant_run.json; the committed BENCH_multi_tenant.json
// baseline pairs the measured 1-thread run ("before") with the measured
// --threads run ("after") for CI trend-gating.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "sim/multi_tenant.h"
#include "sim/parallel.h"
#include "util/file.h"
#include "util/json.h"
#include "util/table_printer.h"
#include "workloads/streaming.h"

namespace {

using Clock = std::chrono::steady_clock;
using odbgc::bench::BenchArgs;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             Clock::now() - start)
      .count();
}

// Linux-only resident-set sample (kB); 0 where /proc is unavailable.
uint64_t ReadProcStatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0) {
      return std::strtoull(line.c_str() + n, nullptr, 10);
    }
  }
  return 0;
}

struct Args {
  size_t clients = 0;  // 0 = full sweep {10, 100, 1000, 10000}
  int threads = 1;
  uint32_t shards = 8;
  uint64_t seed = 1;
  int check_threads = 2;     // smallest cell re-run lane count (0 = skip)
  std::string json_out = "BENCH_multi_tenant_run.json";

  static constexpr const char* kUsage =
      "supported: --clients=N (0=sweep) --threads=N --shards=N --seed=N "
      "--check-threads=N (0 skips the determinism re-run) "
      "--json-out=PATH";

  static Args Parse(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strncmp(a, "--clients=", 10) == 0) {
        args.clients = static_cast<size_t>(
            BenchArgs::ParseIntOrDie("--clients", a + 10, 0, 1000000));
      } else if (std::strncmp(a, "--threads=", 10) == 0) {
        args.threads = static_cast<int>(
            BenchArgs::ParseIntOrDie("--threads", a + 10, 1, 1024));
      } else if (std::strncmp(a, "--shards=", 9) == 0) {
        args.shards = static_cast<uint32_t>(
            BenchArgs::ParseIntOrDie("--shards", a + 9, 1, 256));
      } else if (std::strncmp(a, "--seed=", 7) == 0) {
        args.seed = static_cast<uint64_t>(
            BenchArgs::ParseIntOrDie("--seed", a + 7, 0, INT64_MAX));
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

struct Cell {
  size_t clients;
  uint64_t cycles;  // churn cycles per streaming client
};

struct CellResult {
  Cell cell;
  odbgc::MultiTenantReport report;
  double ms = 0.0;     // at --threads
  double ms_t1 = 0.0;  // the same cell at 1 apply thread
  uint64_t approx_memory_bytes = 0;
  uint64_t rss_peak_kb = 0;
  double ops_per_sec() const {
    return ms > 0 ? 1000.0 * static_cast<double>(report.events) / ms : 0.0;
  }
  double speedup() const { return ms > 0 ? ms_t1 / ms : 0.0; }
};

odbgc::SimConfig ShardConfig() {
  odbgc::SimConfig cfg;
  // Scaled-down stores so thousands of tenants collect often enough to
  // exercise the policies inside a CI time budget.
  cfg.store.partition_bytes = 32 * 1024;
  cfg.store.page_bytes = 4 * 1024;
  cfg.store.buffer_pages = 8;
  cfg.policy = odbgc::PolicyKind::kSaio;
  cfg.saio_frac = 0.10;
  cfg.saio_bootstrap_app_io = 500;
  cfg.preamble_collections = 4;
  cfg.record_collection_log = false;
  cfg.telemetry.enabled = true;  // per-shard stall histograms
  return cfg;
}

// Builds and runs one cell. Small cells (<= 100 tenants) make every
// fifth client an OO7 replay tenant sharing cached traces (6 distinct
// seeds) so the TraceCache is on the path; large cells are pure
// streaming generators, the O(clients)-memory regime.
CellResult RunCell(const Cell& cell, const Args& args, int threads,
                   odbgc::TraceCache& cache) {
  odbgc::MultiTenantOptions opt;
  opt.num_shards = args.shards;
  opt.threads = threads;
  opt.epoch_events = 4096;
  opt.catalog_per_shard = 4;
  opt.share_prob = 0.05;
  opt.seed = args.seed;
  opt.coordinator_period = 8;
  opt.global_io_frac = 0.10;
  opt.shard_config = ShardConfig();
  odbgc::MultiTenantEngine engine(opt);

  const odbgc::Oo7Params oo7 = odbgc::Oo7Params::Tiny();
  for (size_t c = 0; c < cell.clients; ++c) {
    odbgc::MuxClientOptions m;
    m.base_chunk = 32;
    m.chunk_jitter = 16;
    m.think_time = 4;
    m.seed = args.seed * 100003 + c;
    if (cell.clients <= 100 && c % 5 == 4) {
      engine.AddClient(cache.GetOo7(oo7, 1 + c % 6), m);
    } else {
      odbgc::StreamingChurnOptions o;
      o.seed = args.seed * 7919 + c;
      o.cycles = cell.cycles;
      engine.AddClient(
          std::make_unique<odbgc::StreamingChurnSource>(o), m);
    }
  }

  CellResult out;
  out.cell = cell;
  const Clock::time_point t0 = Clock::now();
  out.report = engine.Run();
  out.ms = ElapsedMs(t0);
  out.approx_memory_bytes = engine.ApproxMemoryBytes();
  out.rss_peak_kb = ReadProcStatusKb("VmHWM:");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = Args::Parse(argc, argv);
  odbgc::bench::PrintHeader(
      "Multi-tenant sharded scale-out (streaming mux + budget coordinator)",
      "Section 6 discussion: many applications sharing one store; "
      "extension, no direct paper figure");

  std::vector<Cell> cells;
  if (args.clients > 0) {
    // Single cell: scale per-client work to keep totals comparable.
    const uint64_t cycles =
        args.clients <= 10 ? 3000 : args.clients <= 100 ? 1000
        : args.clients <= 1000 ? 150 : 20;
    cells.push_back({args.clients, cycles});
  } else {
    cells = {{10, 3000}, {100, 1000}, {1000, 150}, {10000, 20}};
  }

  odbgc::TraceCache cache;

  // Determinism witness: the smallest cell must produce the same fleet
  // checksum at 1 apply lane and at --check-threads lanes.
  if (args.check_threads > 0) {
    CellResult serial = RunCell(cells.front(), args, 1, cache);
    CellResult pooled = RunCell(cells.front(), args, args.check_threads,
                                cache);
    if (serial.report.FleetChecksum() != pooled.report.FleetChecksum()) {
      std::cerr << "FATAL: fleet checksum diverged across thread counts: "
                << serial.report.FleetChecksum() << " (threads=1) != "
                << pooled.report.FleetChecksum()
                << " (threads=" << args.check_threads << ")\n";
      return 1;
    }
    std::printf("determinism check: %zu-client cell byte-identical at "
                "--threads=1 and --threads=%d\n\n",
                cells.front().clients, args.check_threads);
  }

  // Each cell runs at 1 apply thread, then at --threads; both runs must
  // agree on the fleet checksum.
  std::vector<CellResult> results;
  for (const Cell& cell : cells) {
    const CellResult serial = RunCell(cell, args, 1, cache);
    CellResult r = args.threads == 1
                       ? serial
                       : RunCell(cell, args, args.threads, cache);
    if (r.report.FleetChecksum() != serial.report.FleetChecksum()) {
      std::cerr << "FATAL: " << cell.clients
                << "-client fleet checksum diverged across thread counts: "
                << serial.report.FleetChecksum() << " (threads=1) != "
                << r.report.FleetChecksum() << " (threads=" << args.threads
                << ")\n";
      return 1;
    }
    r.ms_t1 = serial.ms;
    results.push_back(std::move(r));
  }

  odbgc::TablePrinter t({"clients", "events", "ms_t1", "ms",
                         "events_per_sec", "speedup", "xshard", "stall_p99",
                         "approx_mem_mb", "checksum"});
  for (const CellResult& r : results) {
    t.AddRow({std::to_string(r.cell.clients),
              std::to_string(r.report.events),
              odbgc::TablePrinter::Fmt(r.ms_t1, 1),
              odbgc::TablePrinter::Fmt(r.ms, 1),
              odbgc::TablePrinter::Fmt(r.ops_per_sec(), 0),
              odbgc::TablePrinter::Fmt(r.speedup(), 2),
              std::to_string(r.report.xshard_writes),
              odbgc::TablePrinter::Fmt(r.report.stall_gc_copy.p99, 1),
              odbgc::TablePrinter::Fmt(
                  static_cast<double>(r.approx_memory_bytes) / (1 << 20),
                  1),
              std::to_string(r.report.FleetChecksum())});
  }
  t.Print(std::cout);
  std::printf("trace cache: %llu hits, %llu misses\n",
              static_cast<unsigned long long>(cache.hits()),
              static_cast<unsigned long long>(cache.misses()));

  odbgc::JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.Value("multi_tenant");
  w.Key("shards");
  w.Value(static_cast<uint64_t>(args.shards));
  w.Key("threads");
  w.Value(static_cast<int64_t>(args.threads));
  w.Key("seed");
  w.Value(args.seed);
  w.Key("trace_cache");
  w.BeginObject();
  w.Key("hits");
  w.Value(cache.hits());
  w.Key("misses");
  w.Value(cache.misses());
  w.EndObject();
  w.Key("sections");
  w.BeginArray();
  for (const CellResult& r : results) {
    const odbgc::MultiTenantReport& rep = r.report;
    w.BeginObject();
    w.Key("name");
    w.Value("mt_" + std::to_string(r.cell.clients) + "_clients");
    w.Key("clients");
    w.Value(static_cast<uint64_t>(r.cell.clients));
    w.Key("ops");
    w.Value(rep.events);
    w.Key("ms");
    w.Value(r.ms);
    w.Key("ops_per_sec");
    w.Value(r.ops_per_sec());
    w.Key("ms_t1");
    w.Value(r.ms_t1);
    w.Key("speedup");
    w.Value(r.speedup());
    w.Key("checksum");
    w.Value(rep.FleetChecksum());
    w.Key("epochs");
    w.Value(rep.epochs);
    w.Key("xshard_writes");
    w.Value(rep.xshard_writes);
    w.Key("pins_granted");
    w.Value(rep.pins_granted);
    w.Key("pins_revoked");
    w.Value(rep.pins_revoked);
    w.Key("pins_reconciled");
    w.Value(rep.pins_reconciled);
    w.Key("budget_grants");
    w.Value(rep.budget_grants);
    w.Key("budget_revokes");
    w.Value(rep.budget_revokes);
    w.Key("contention_delay_units");
    w.Value(rep.contention_delay_units);
    w.Key("stall_gc_copy_p99");
    w.Value(rep.stall_gc_copy.p99);
    w.Key("stall_gc_copy_count");
    w.Value(rep.stall_gc_copy.count);
    w.Key("approx_memory_bytes");
    w.Value(r.approx_memory_bytes);
    w.Key("rss_peak_kb");
    w.Value(r.rss_peak_kb);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  if (!odbgc::WriteWholeFile(args.json_out, w.TakeString() + "\n")) {
    std::fprintf(stderr, "error: cannot write '%s'\n", args.json_out.c_str());
    return 1;
  }
  std::cout << "wrote " << args.json_out << "\n";
  return 0;
}
