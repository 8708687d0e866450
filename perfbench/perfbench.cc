// perfbench — the end-to-end benchmark harness of odbgc (README.md).
//
//   perfbench --workload=oo7_saga|oo7_gc_heavy|fleet --seed=N --seconds=S
//             --trace=0|1 [--size=full|tiny] [--expect-digest=HEX]
//
// One process runs one workload through the public odbgc API. Inputs
// come from --seed; the program sees only the generated trace or the
// generated client streams. A run sets up several times (setup_s is the
// median), runs one untimed warm-up unit whose final store is checked
// with VerifyHeap, then runs timed units until --seconds have passed.
// Every unit's output digest must equal the reference: --expect-digest
// when given, else the warm-up's.
//
// --trace=0 reports the end-to-end metrics. --trace=1 alternates traced
// units (layer probes from probes.h around the calls into each layer)
// with untraced ones and reports the per-layer metrics, including the
// probes' own overhead.
//
// The last line of stdout is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// preceded by one line of run details (host fingerprint, unit time
// distribution, digests). Exit code 0 only when the run was correct.

#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/build_info.h"
#include "oo7/generator.h"
#include "oo7/params.h"
#include "probes.h"
#include "sim/multi_tenant.h"
#include "sim/simulation.h"
#include "storage/verifier.h"
#include "util/json.h"
#include "workloads/streaming.h"

namespace perfbench {
namespace {

using odbgc::MultiTenantEngine;
using odbgc::MultiTenantReport;
using odbgc::SimConfig;
using odbgc::SimResult;
using odbgc::Simulation;
using odbgc::Trace;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (smoke_test.py checks it).
constexpr MetricDef kEndToEnd[] = {
    {"events_per_s", "events/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"oo7.generate_ms", "ms"},
    {"trace.events", "count"},
    {"trace.mb", "MB"},
    {"sim.replay_ms", "ms"},
    {"sim.phase.gendb_ms", "ms"},
    {"sim.phase.reorg1_ms", "ms"},
    {"sim.phase.traverse_ms", "ms"},
    {"sim.phase.reorg2_ms", "ms"},
    {"sim.apply_self_ms", "ms"},
    {"gc.collections", "count"},
    {"gc.collect_ms", "ms"},
    {"gc.collect_us_p50", "us"},
    {"gc.collect_us_p99", "us"},
    {"gc.select_ms", "ms"},
    {"gc.io_per_collection", "io"},
    {"gc.reclaimed_kb_per_gc_io", "KB/io"},
    {"core.should_collect_calls", "count"},
    {"core.policy_ms", "ms"},
    {"core.estimator_overwrite_calls", "count"},
    {"core.estimator_ms", "ms"},
    {"storage.app_io", "io"},
    {"storage.gc_io", "io"},
    {"storage.buffer_hit_rate", "fraction"},
    {"storage.partitions", "count"},
    {"storage.db_mb", "MB"},
    {"fleet.run_ms", "ms"},
    {"fleet.epochs", "count"},
    {"fleet.events_per_epoch", "events"},
    {"fleet.drain_route_ms", "ms"},
    {"fleet.apply_barrier_ms", "ms"},
    {"fleet.source_next_ms", "ms"},
    {"fleet.apply_speedup_t4_vs_t1", "x"},
    {"fleet.shard_imbalance", "ratio"},
    {"fleet.xshard_writes", "count"},
    {"fleet.mux_kb", "KB"},
    {"tracing.overhead_frac", "fraction"},
    {"failed_frac", "fraction"},
};

// Setup is repeated this many times per run and reported as the median.
constexpr int kSetupRepeats = 9;
// The fleet's apply lanes: the ext_multi_tenant acceptance cell.
constexpr int kFleetThreads = 4;

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench "
               "--workload=oo7_saga|oo7_gc_heavy|fleet --seed=N "
               "--seconds=S --trace=0|1 [--size=full|tiny] "
               "[--expect-digest=HEX]\n",
               why.c_str());
  std::exit(2);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string expect_digest;  // empty: no recorded value to check

  static Args Parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const size_t eq = arg.find('=');
      if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
        Usage("malformed argument '" + arg + "'");
      }
      const std::string key = arg.substr(2, eq - 2);
      const std::string value = arg.substr(eq + 1);
      char* end = nullptr;
      if (key == "workload") {
        a.workload = value;
      } else if (key == "seed") {
        a.seed = std::strtoull(value.c_str(), &end, 10);
        if (value.empty() || *end != '\0') Usage("bad --seed");
      } else if (key == "seconds") {
        a.seconds = std::strtod(value.c_str(), &end);
        if (value.empty() || *end != '\0' || !(a.seconds > 0.0) ||
            a.seconds > 120.0) {
          Usage("--seconds must be in (0, 120]");
        }
      } else if (key == "trace") {
        if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
        a.trace = value == "1";
      } else if (key == "size") {
        if (value != "full" && value != "tiny") Usage("bad --size");
        a.tiny = value == "tiny";
      } else if (key == "expect-digest") {
        a.expect_digest = value;
      } else {
        Usage("unknown flag --" + key);
      }
    }
    if (a.workload != "oo7_saga" && a.workload != "oo7_gc_heavy" &&
        a.workload != "fleet") {
      Usage("unknown workload '" + a.workload + "'");
    }
    return a;
  }
};

// ---------------------------------------------------------------------
// Statistics and host facts.

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Index of the median element of a non-empty `v` (the upper one of two).
size_t MedianIndex(const std::vector<double>& v) {
  std::vector<size_t> order(v.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&v](size_t a, size_t b) { return v[a] < v[b]; });
  return order[order.size() / 2];
}

// The unit time that events_per_s is computed from: the mean of the
// fastest tenth of the units. On a host whose per-core speed drops for
// seconds at a time, the median of a run depends on how much of it fell
// in a slow spell; the fastest tenth repeats across runs.
double FastDecileMs(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = std::max<size_t>(1, v.size() / 10);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += v[i];
  return sum / static_cast<double>(n);
}

uint64_t PeakRssKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Pins the calling thread to one CPU while in scope, then restores its
// mask. The single-threaded replay units rotate over the CPUs the
// process may use: on a shared host each vCPU's speed varies on its own
// over minutes, and a replay left alone stays on one vCPU for a whole
// run. The fleet is not pinned: it spreads over every CPU anyway, and
// pinning its drain thread would stop the scheduler moving it off a CPU
// a worker holds.
class PinnedToCpu {
 public:
  explicit PinnedToCpu(uint64_t unit) {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    const int count = CPU_COUNT(&saved_);
    if (count <= 1) return;
    int skip = static_cast<int>(unit % static_cast<uint64_t>(count));
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_) || skip-- > 0) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
      return;
    }
  }
  ~PinnedToCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinnedToCpu(const PinnedToCpu&) = delete;
  PinnedToCpu& operator=(const PinnedToCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// ---------------------------------------------------------------------
// What a run accumulates.

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t reference = 0;  // the digest every unit must reproduce
  bool have_reference = false;
  std::string verify = "not run";
  // VmHWM after one setup, the warm-up and the first timed unit. Later
  // setups regenerate the input and add allocator fragmentation that
  // the program itself does not cause.
  uint64_t peak_rss_kb = 0;
  std::vector<double> setup_s;
  std::vector<double> unit_ms;    // untraced timed units
  std::vector<double> traced_ms;  // traced units
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;

  void Fail(const std::string& why) {
    ++failed;
    if (notes.size() < 8) notes.push_back(why);
  }
  // Counts one checked execution; false when its digest differs.
  bool Check(uint64_t digest, const char* what) {
    ++attempted;
    if (!have_reference) {
      reference = digest;
      have_reference = true;
    } else if (digest != reference) {
      Fail(std::string(what) + " digest " + Hex(digest) + " != " +
           Hex(reference));
      return false;
    }
    return true;
  }
};

// Runs `unit` until `seconds` have passed; a throw counts as a failed
// unit. The first `setup` ran before the warm-up; the other
// kSetupRepeats - 1 run between units, one each time another
// 1/kSetupRepeats of the time has passed, so that the setup samples,
// like the units, spread over the host's fast and slow spells.
template <typename Unit, typename Setup>
void RunFor(double seconds, Outcome* out, Unit unit, Setup setup) {
  const int64_t start = NowNs();
  const int64_t span = static_cast<int64_t>(seconds * 1e9);
  int setups = 1;
  do {
    try {
      unit();
    } catch (const std::exception& e) {
      ++out->attempted;
      out->Fail(std::string("unit threw: ") + e.what());
    }
    if (out->peak_rss_kb == 0) out->peak_rss_kb = PeakRssKb();
    if (setups < kSetupRepeats &&
        NowNs() - start >= setups * (span / kSetupRepeats)) {
      setup();
      ++setups;
    }
  } while (NowNs() - start < span);
  for (; setups < kSetupRepeats; ++setups) setup();
}

// Store-level counters, summed over one replay or over a fleet's shards.
// They are exact and identical in every unit.
void StorageLayers(const std::vector<const SimResult*>& results,
                   std::map<std::string, double>* m) {
  double app_io = 0, gc_io = 0, hits = 0, misses = 0, parts = 0, db = 0,
         collections = 0, reclaimed = 0;
  for (const SimResult* r : results) {
    app_io += static_cast<double>(r->clock.app_io);
    gc_io += static_cast<double>(r->clock.gc_io);
    hits += static_cast<double>(r->buffer_hits);
    misses += static_cast<double>(r->buffer_misses);
    parts += static_cast<double>(r->final_partition_count);
    db += static_cast<double>(r->final_db_used_bytes);
    collections += static_cast<double>(r->collections);
    reclaimed += static_cast<double>(r->total_reclaimed_bytes);
  }
  (*m)["storage.app_io"] = app_io;
  (*m)["storage.gc_io"] = gc_io;
  (*m)["storage.buffer_hit_rate"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  (*m)["storage.partitions"] = parts;
  (*m)["storage.db_mb"] = db / 1e6;
  (*m)["gc.collections"] = collections;
  (*m)["gc.io_per_collection"] = collections > 0 ? gc_io / collections : 0.0;
  (*m)["gc.reclaimed_kb_per_gc_io"] =
      gc_io > 0 ? reclaimed / 1024.0 / gc_io : 0.0;
}

// ---------------------------------------------------------------------
// OO7 replays.

SimConfig Oo7Config(bool gc_heavy, uint64_t seed) {
  // odbgc_run's defaults: the paper's 96 KB partitions of 8 KB pages,
  // a one-partition buffer, a 10-collection preamble.
  SimConfig cfg;
  cfg.store.partition_bytes = 96 * 1024;
  cfg.store.page_bytes = 8 * 1024;
  cfg.store.buffer_pages = 12;
  cfg.preamble_collections = 10;
  if (gc_heavy) {
    cfg.policy = odbgc::PolicyKind::kFixedRate;
    cfg.fixed_rate_overwrites = 25;
  } else {
    cfg.policy = odbgc::PolicyKind::kSaga;
    cfg.saga.garbage_frac = 0.10;
    cfg.estimator = odbgc::EstimatorKind::kFgsHb;
    cfg.fgs_history_factor = 0.8;
  }
  cfg.selector = odbgc::SelectorKind::kUpdatedPointer;
  cfg.selector_seed = seed * 7919 + 17;
  return cfg;
}

// Everything the digest covers is independent of the policy's concrete
// type: Simulation reads the SAGA-only fields (CollectionRecord's
// target/next_dt, dt clamps) through a dynamic_cast that a wrapped
// policy fails, so they are left out.
uint64_t ReplayDigest(const SimResult& r) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(r.clock.app_io);
  mix(r.clock.gc_io);
  mix(r.clock.pointer_overwrites);
  mix(r.clock.events);
  mix(r.clock.collections);
  mix(r.clock.db_used_bytes);
  mix(r.clock.bytes_allocated);
  mix(r.clock.partitions);
  mix(r.collections);
  mix(r.total_reclaimed_bytes);
  mix(r.total_reclaimed_objects);
  mix(r.final_db_used_bytes);
  mix(r.final_actual_garbage_bytes);
  mix(r.final_partition_count);
  mix(r.buffer_hits);
  mix(r.buffer_misses);
  return h;
}

struct TracedReplay {
  SimResult result;
  double wall_ms = 0.0;
  double phase_ms[4] = {0, 0, 0, 0};  // GenDB, Reorg1, Traverse, Reorg2
  ReplayProbe probe;
};

// One replay with every layer wrapped, applied one event at a time so
// the phase marks can be timestamped.
void RunTracedReplay(const SimConfig& cfg, const Trace& trace,
                     TracedReplay* out) {
  ReplayProbe& probe = out->probe;
  odbgc::GarbageEstimator* estimator = nullptr;
  std::unique_ptr<odbgc::RatePolicy> policy =
      odbgc::MakePolicy(cfg, &estimator);
  std::unique_ptr<TimedEstimator> timed_estimator;
  if (estimator != nullptr) {
    timed_estimator = std::make_unique<TimedEstimator>(estimator, &probe);
  }
  Simulation sim(cfg, std::make_unique<TimedPolicy>(std::move(policy), &probe),
                 std::make_unique<TimedSelector>(
                     odbgc::MakeSelector(cfg.selector, cfg.selector_seed),
                     &probe),
                 timed_estimator.get());
  int phase = -1;
  const int64_t start = NowNs();
  int64_t phase_start = start;
  for (const odbgc::TraceEvent& e : trace.events()) {
    if (e.kind == odbgc::EventKind::kPhaseMark) {
      const int64_t now = NowNs();
      if (phase >= 0) out->phase_ms[phase] += (now - phase_start) / 1e6;
      const int next = static_cast<int>(e.a) - 1;
      phase = next >= 0 && next < 4 ? next : -1;
      phase_start = now;
    }
    sim.Apply(e);
  }
  const int64_t applied = NowNs();
  if (phase >= 0) out->phase_ms[phase] += (applied - phase_start) / 1e6;
  out->result = sim.Finish();
  out->wall_ms = (NowNs() - start) / 1e6;
}

void ReplayLayers(const TracedReplay& tr, std::map<std::string, double>* m) {
  const ReplayProbe& p = tr.probe;
  std::vector<double> collect_us;
  double collect_ms = 0.0;
  for (int64_t ns : p.collect_ns) {
    collect_us.push_back(ns / 1e3);
    collect_ms += ns / 1e6;
  }
  const double policy_ms =
      p.should_collect.TotalMs() + p.policy_on_collection.Ms();
  const double overwrite_ms = p.estimator_overwrite.TotalMs();
  (*m)["sim.replay_ms"] = tr.wall_ms;
  (*m)["sim.phase.gendb_ms"] = tr.phase_ms[0];
  (*m)["sim.phase.reorg1_ms"] = tr.phase_ms[1];
  (*m)["sim.phase.traverse_ms"] = tr.phase_ms[2];
  (*m)["sim.phase.reorg2_ms"] = tr.phase_ms[3];
  // The estimator's collection feed runs inside the collection span, so
  // only its overwrite feed is subtracted separately.
  (*m)["sim.apply_self_ms"] =
      tr.wall_ms - policy_ms - overwrite_ms - p.select.Ms() - collect_ms;
  (*m)["gc.collect_ms"] = collect_ms;
  (*m)["gc.collect_us_p50"] = Quantile(collect_us, 0.50);
  (*m)["gc.collect_us_p99"] = Quantile(collect_us, 0.99);
  (*m)["gc.select_ms"] = p.select.Ms();
  (*m)["core.should_collect_calls"] =
      static_cast<double>(p.should_collect.calls);
  (*m)["core.policy_ms"] = policy_ms;
  (*m)["core.estimator_overwrite_calls"] =
      static_cast<double>(p.estimator_overwrite.calls);
  (*m)["core.estimator_ms"] = overwrite_ms + p.estimator_on_collection.Ms();
}

void RunOo7(const Args& args, bool gc_heavy, Outcome* out) {
  const odbgc::Oo7Params params =
      args.tiny ? odbgc::Oo7Params::Tiny() : odbgc::Oo7Params::Small();
  const SimConfig cfg = Oo7Config(gc_heavy, args.seed);

  // Setup: generate the trace and construct the first simulation. A
  // repeat replaces the trace with its regenerated twin, so one trace
  // is resident at a time.
  std::unique_ptr<Trace> trace;
  std::vector<double> generate_ms;
  auto setup = [&] {
    trace.reset();
    const int64_t t0 = NowNs();
    trace = std::make_unique<Trace>(
        odbgc::Oo7Generator(params, args.seed).GenerateFullApplication());
    const int64_t t1 = NowNs();
    auto sim = std::make_unique<Simulation>(cfg);
    const int64_t t2 = NowNs();
    generate_ms.push_back((t1 - t0) / 1e6);
    out->setup_s.push_back((t2 - t0) / 1e9);
  };
  setup();
  const double events = static_cast<double>(trace->size());

  // Warm-up: untimed, verified, and the source of the store counters.
  SimResult warm;
  {
    Simulation sim(cfg);
    warm = sim.Run(*trace);
    const bool same = out->Check(ReplayDigest(warm), "warm-up");
    const odbgc::VerifierReport vr = odbgc::VerifyHeap(sim.store());
    out->verify = vr.Summary();
    if (!vr.ok() && same) out->Fail("VerifyHeap: " + vr.Summary());
  }

  auto untraced_unit = [&] {
    Simulation sim(cfg);
    SimResult r;
    double ms = 0.0;
    {
      PinnedToCpu pin(out->attempted);
      const int64_t t0 = NowNs();
      r = sim.Run(*trace);
      ms = (NowNs() - t0) / 1e6;
    }
    out->Check(ReplayDigest(r), "replay");
    out->unit_ms.push_back(ms);
  };

  if (!args.trace) {
    RunFor(args.seconds, out, untraced_unit, setup);
    out->metrics["events_per_s"] = events / (FastDecileMs(out->unit_ms) / 1e3);
    return;
  }

  std::vector<std::map<std::string, double>> layers;
  bool traced_next = true;
  RunFor(args.seconds, out, [&] {
    if (!traced_next) {
      traced_next = true;
      untraced_unit();
      return;
    }
    traced_next = false;
    TracedReplay tr;
    {
      PinnedToCpu pin(out->attempted);
      RunTracedReplay(cfg, *trace, &tr);
    }
    out->Check(ReplayDigest(tr.result), "traced replay");
    if (tr.probe.unpaired_spans > 0) {
      out->notes.push_back("a Select was not followed by a collection");
    }
    out->traced_ms.push_back(tr.wall_ms);
    layers.emplace_back();
    ReplayLayers(tr, &layers.back());
  }, setup);
  // Per-unit timings come from the traced unit of median wall time, so
  // the phase and layer times add up to its sim.replay_ms.
  if (!layers.empty()) out->metrics = layers[MedianIndex(out->traced_ms)];
  StorageLayers({&warm}, &out->metrics);
  out->metrics["oo7.generate_ms"] = Median(generate_ms);
  out->metrics["trace.events"] = events;
  out->metrics["trace.mb"] = events * sizeof(odbgc::TraceEvent) / 1e6;
  if (!out->traced_ms.empty() && !out->unit_ms.empty()) {
    out->metrics["tracing.overhead_frac"] =
        1.0 - FastDecileMs(out->unit_ms) / FastDecileMs(out->traced_ms);
  }
}

// ---------------------------------------------------------------------
// The sharded fleet.

struct FleetShape {
  uint32_t clients;
  uint64_t cycles;  // churn cycles per client
  uint32_t shards;
  uint32_t epoch_events;
};

// The ext_multi_tenant --clients=1000 cell (streaming churn clients
// only), with in-program telemetry off.
std::unique_ptr<MultiTenantEngine> BuildFleet(const FleetShape& shape,
                                              uint64_t seed, int threads,
                                              FleetProbe* probe) {
  odbgc::MultiTenantOptions opt;
  opt.num_shards = shape.shards;
  opt.threads = threads;
  opt.epoch_events = shape.epoch_events;
  opt.catalog_per_shard = 4;
  opt.share_prob = 0.05;
  opt.seed = seed;
  opt.coordinator_period = 8;
  opt.global_io_frac = 0.10;
  SimConfig& cfg = opt.shard_config;
  cfg.store.partition_bytes = 32 * 1024;
  cfg.store.page_bytes = 4 * 1024;
  cfg.store.buffer_pages = 8;
  cfg.policy = odbgc::PolicyKind::kSaio;
  cfg.saio_frac = 0.10;
  cfg.saio_bootstrap_app_io = 500;
  cfg.preamble_collections = 4;
  cfg.record_collection_log = false;
  auto engine = std::make_unique<MultiTenantEngine>(opt);
  if (probe != nullptr) {
    probe->mux = &engine->mux();
    probe->epoch_events = shape.epoch_events;
  }
  for (uint32_t c = 0; c < shape.clients; ++c) {
    odbgc::MuxClientOptions m;
    m.base_chunk = 32;
    m.chunk_jitter = 16;
    m.think_time = 4;
    m.seed = seed * 100003 + c;
    odbgc::StreamingChurnOptions o;
    o.seed = seed * 7919 + c;
    o.cycles = shape.cycles;
    std::unique_ptr<odbgc::EventSource> source =
        std::make_unique<odbgc::StreamingChurnSource>(o);
    if (probe != nullptr) {
      source = std::make_unique<TimedSource>(std::move(source), probe);
    }
    engine->AddClient(std::move(source), m);
  }
  return engine;
}

struct TracedFleetRun {
  MultiTenantReport report;
  double run_ms = 0.0;
  FleetProbe probe;
};

void RunTracedFleet(const FleetShape& shape, uint64_t seed, int threads,
                    TracedFleetRun* out) {
  auto engine = BuildFleet(shape, seed, threads, &out->probe);
  out->probe.Start();
  out->report = engine->Run();
  out->probe.Finish();
  out->run_ms = (NowNs() - out->probe.run_start) / 1e6;
  out->probe.mux = nullptr;  // dies with the engine
}

void RunFleet(const Args& args, Outcome* out) {
  const FleetShape shape = args.tiny ? FleetShape{12, 40, 4, 512}
                                     : FleetShape{1000, 150, 8, 4096};
  // Setup: generate the client streams and construct the engine.
  auto setup = [&] {
    const int64_t t0 = NowNs();
    auto engine = BuildFleet(shape, args.seed, kFleetThreads, nullptr);
    out->setup_s.push_back((NowNs() - t0) / 1e9);
  };
  setup();

  // Warm-up at one apply thread: the timed units at four must match it.
  MultiTenantReport warm;
  {
    auto engine = BuildFleet(shape, args.seed, 1, nullptr);
    warm = engine->Run();
    const bool same = out->Check(warm.FleetChecksum(), "1-thread warm-up");
    out->verify = "clean";
    for (size_t s = 0; s < engine->num_shards(); ++s) {
      const odbgc::VerifierReport vr =
          odbgc::VerifyHeap(engine->shard(s).store());
      if (!vr.ok()) {
        out->verify = "shard " + std::to_string(s) + ": " + vr.Summary();
        if (same) out->Fail("VerifyHeap " + out->verify);
        break;
      }
    }
  }
  const double events = static_cast<double>(warm.events);

  auto untraced_unit = [&] {
    auto engine = BuildFleet(shape, args.seed, kFleetThreads, nullptr);
    const int64_t t0 = NowNs();
    const MultiTenantReport r = engine->Run();
    const double ms = (NowNs() - t0) / 1e6;
    out->Check(r.FleetChecksum(), "fleet");
    out->unit_ms.push_back(ms);
  };

  if (!args.trace) {
    RunFor(args.seconds, out, untraced_unit, setup);
    out->metrics["events_per_s"] = events / (FastDecileMs(out->unit_ms) / 1e3);
    return;
  }

  // Rotation: traced at four threads, traced at one, untraced at four.
  std::vector<TracedFleetRun> traced4;
  std::vector<double> apply1_ms;
  int step = 0;
  RunFor(args.seconds, out, [&] {
    const int kind = step++ % 3;
    if (kind == 2) {
      untraced_unit();
      return;
    }
    TracedFleetRun run;
    RunTracedFleet(shape, args.seed, kind == 0 ? kFleetThreads : 1, &run);
    out->Check(run.report.FleetChecksum(),
               kind == 0 ? "traced fleet" : "traced 1-thread fleet");
    if (run.probe.epochs_seen != run.report.epochs) {
      out->notes.push_back("probe saw " +
                           std::to_string(run.probe.epochs_seen) +
                           " epochs, the engine ran " +
                           std::to_string(run.report.epochs));
    }
    if (kind == 0) {
      out->traced_ms.push_back(run.run_ms);
      traced4.push_back(std::move(run));
    } else {
      apply1_ms.push_back(run.probe.apply_ns / 1e6);
    }
  }, setup);

  std::map<std::string, double>& m = out->metrics;
  std::vector<const SimResult*> shards;
  for (const SimResult& s : warm.shards) shards.push_back(&s);
  StorageLayers(shards, &m);
  m["fleet.epochs"] = static_cast<double>(warm.epochs);
  m["fleet.events_per_epoch"] =
      warm.epochs > 0 ? events / static_cast<double>(warm.epochs) : 0.0;
  m["fleet.xshard_writes"] = static_cast<double>(warm.xshard_writes);
  double max_events = 0.0;
  for (const SimResult& s : warm.shards) {
    max_events = std::max(max_events, static_cast<double>(s.clock.events));
  }
  m["fleet.shard_imbalance"] =
      events > 0 ? max_events * static_cast<double>(warm.shards.size()) /
                       events
                 : 0.0;
  if (!traced4.empty()) {
    // The split comes from the traced run of median wall time, so drain
    // and apply add up to its fleet.run_ms.
    const TracedFleetRun& mid = traced4[MedianIndex(out->traced_ms)];
    std::vector<double> apply4_ms;
    for (const TracedFleetRun& run : traced4) {
      apply4_ms.push_back(run.probe.apply_ns / 1e6);
    }
    m["fleet.run_ms"] = mid.run_ms;
    m["fleet.drain_route_ms"] = mid.probe.drain_ns / 1e6;
    m["fleet.apply_barrier_ms"] = mid.probe.apply_ns / 1e6;
    m["fleet.source_next_ms"] = mid.probe.next.TotalMs();
    m["fleet.mux_kb"] = mid.probe.mux_bytes_max / 1024.0;
    if (!apply1_ms.empty()) {
      m["fleet.apply_speedup_t4_vs_t1"] =
          Median(apply1_ms) / Median(apply4_ms);
    }
  }
  if (!out->traced_ms.empty() && !out->unit_ms.empty()) {
    m["tracing.overhead_frac"] =
        1.0 - FastDecileMs(out->unit_ms) / FastDecileMs(out->traced_ms);
  }
}

// ---------------------------------------------------------------------
// Output.

void WriteDistribution(odbgc::JsonWriter& w, const char* key,
                       const std::vector<double>& v) {
  w.Key(key);
  w.BeginObject();
  w.Key("count");
  w.Value(static_cast<uint64_t>(v.size()));
  w.Key("min");
  w.Value(Quantile(v, 0.0));
  w.Key("q1");
  w.Value(Quantile(v, 0.25));
  w.Key("median");
  w.Value(Quantile(v, 0.5));
  w.Key("q3");
  w.Value(Quantile(v, 0.75));
  w.Key("max");
  w.Value(Quantile(v, 1.0));
  w.Key("fast_decile_mean");
  w.Value(FastDecileMs(v));
  w.EndObject();
}

std::string DetailLine(const Args& args, const Outcome& out) {
  const odbgc::obs::BuildInfo& build = odbgc::obs::GetBuildInfo();
  odbgc::JsonWriter w;
  w.BeginObject();
  w.Key("perfbench");
  w.Value(args.workload);
  w.Key("seed");
  w.Value(args.seed);
  w.Key("trace");
  w.Value(args.trace);
  w.Key("size");
  w.Value(args.tiny ? "tiny" : "full");
  w.Key("host");
  w.BeginObject();
  w.Key("nproc");
  w.Value(static_cast<uint64_t>(std::thread::hardware_concurrency()));
  w.Key("cpu_model");
  w.Value(CpuModel());
  w.Key("build_type");
  w.Value(build.build_type);
  w.Key("git_sha");
  w.Value(build.git_sha);
  w.Key("telemetry_compiled");
  w.Value(build.telemetry);
  w.EndObject();
  WriteDistribution(w, "unit_ms", out.unit_ms);
  if (args.trace) WriteDistribution(w, "traced_unit_ms", out.traced_ms);
  WriteDistribution(w, "setup_s", out.setup_s);
  w.Key("digest");
  w.Value(Hex(out.reference));
  w.Key("expected_digest");
  w.Value(args.expect_digest);
  w.Key("verify");
  w.Value(out.verify);
  w.Key("notes");
  w.BeginArray();
  for (const std::string& n : out.notes) w.Value(n);
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

std::string ResultLine(bool correct, const Outcome& out,
                       const MetricDef* defs, size_t n) {
  odbgc::JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Value(correct);
  w.Key("attempted");
  w.Value(out.attempted);
  w.Key("failed");
  w.Value(out.failed);
  w.Key("metrics");
  w.BeginObject();
  for (size_t i = 0; i < n; ++i) {
    const auto it = out.metrics.find(defs[i].name);
    w.Key(defs[i].name);
    w.BeginObject();
    w.Key("value");
    // A layer a workload does not exercise reads 0.
    w.Value(it != out.metrics.end() ? it->second : 0.0);
    w.Key("unit");
    w.Value(defs[i].unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

int Main(int argc, char** argv) {
  const Args args = Args::Parse(argc, argv);
  Outcome out;
  if (!args.expect_digest.empty()) {
    char* end = nullptr;
    out.reference = std::strtoull(args.expect_digest.c_str(), &end, 16);
    if (*end != '\0') Usage("--expect-digest must be hexadecimal");
    out.have_reference = true;
  }
  try {
    if (args.workload == "fleet") {
      RunFleet(args, &out);
    } else {
      RunOo7(args, args.workload == "oo7_gc_heavy", &out);
    }
  } catch (const std::exception& e) {
    ++out.attempted;
    out.Fail(std::string("workload threw: ") + e.what());
  }
  if (out.attempted == 0) {
    ++out.attempted;
    out.Fail("no unit ran");
  }
  if (args.trace) {
    out.metrics["failed_frac"] = static_cast<double>(out.failed) /
                                 static_cast<double>(out.attempted);
  } else {
    out.metrics["setup_s"] = Median(out.setup_s);
    if (out.peak_rss_kb == 0) out.peak_rss_kb = PeakRssKb();
    out.metrics["peak_rss_mb"] =
        static_cast<double>(out.peak_rss_kb) * 1024.0 / 1e6;
  }
  const bool correct = out.failed == 0;
  std::printf("%s\n", DetailLine(args, out).c_str());
  const std::string result =
      args.trace ? ResultLine(correct, out, kPerLayer, std::size(kPerLayer))
                 : ResultLine(correct, out, kEndToEnd, std::size(kEndToEnd));
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
