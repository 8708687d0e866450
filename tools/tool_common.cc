#include "tools/tool_common.h"

#include <cstdio>
#include <limits>

#include "core/alloc_triggered.h"
#include "core/saio.h"
#include "oo7/generator.h"
#include "workloads/synthetic.h"

namespace odbgc::tools {

namespace {

// Reads count flag `name`, defaulting to *value. A value outside
// [min, max] fails with *error naming the flag, before it is narrowed
// to T: the generators CHECK their counts, a negative one would wrap to
// a huge unsigned request, and a zero would build a degenerate trace.
// `min` is 0 only where 0 means "none".
template <typename T>
bool ReadCount(const Flags& flags, const char* name, int64_t min,
               int64_t max, T* value, std::string* error) {
  const int64_t v = flags.GetInt(name, static_cast<int64_t>(*value));
  if (v < min || v > max) {
    *error = std::string("--") + name + " must be in [" +
             std::to_string(min) + ", " + std::to_string(max) + "]";
    return false;
  }
  *value = static_cast<T>(v);
  return true;
}

constexpr int64_t kMaxInt = std::numeric_limits<int>::max();
constexpr int64_t kMaxUint32 = std::numeric_limits<uint32_t>::max();

}  // namespace

bool BuildOo7Params(const Flags& flags, Oo7Params* params,
                    std::string* error) {
  std::string preset = flags.GetString("oo7", "smallprime");
  if (preset == "smallprime") {
    *params = Oo7Params::SmallPrime();
  } else if (preset == "small") {
    *params = Oo7Params::Small();
  } else if (preset == "tiny") {
    *params = Oo7Params::Tiny();
  } else {
    *error = "unknown --oo7 preset '" + preset + "'";
    return false;
  }
  // --connectivity takes the harnesses' range. A module of Small is a
  // 1.26M-event (25 MB) trace, so 64 modules already make 1.6 GB.
  return ReadCount(flags, "connectivity", 1, 64,
                   &params->num_conn_per_atomic, error) &&
         ReadCount(flags, "modules", 1, 64, &params->num_modules, error);
}

bool BuildWorkloadTrace(const Flags& flags, Trace* trace,
                        std::string* error) {
  std::string workload = flags.GetString("workload", "oo7");
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  if (workload == "oo7") {
    Oo7Params params;
    if (!BuildOo7Params(flags, &params, error)) return false;
    Oo7Generator gen(params, seed);
    // The idle mark's collection bound; 0 inserts no idle period.
    uint32_t idle = 0;
    if (!ReadCount(flags, "idle-after-reorg1", 0, kMaxUint32, &idle, error)) {
      return false;
    }
    std::string app = flags.GetString("app", "yny");
    if (app == "yny") {
      // The paper's four-phase Yong/Naughton/Yu application.
      *trace = gen.GenerateFullApplication(idle);
    } else if (app == "structural") {
      // Rounds of whole-composite churn interleaved with traversals.
      int rounds = 6;
      int per_round = 10;
      if (!ReadCount(flags, "rounds", 1, kMaxInt, &rounds, error) ||
          !ReadCount(flags, "per-round", 1, kMaxInt, &per_round, error)) {
        return false;
      }
      trace->Append(PhaseMarkEvent(Phase::kGenDb));
      gen.GenDb(trace);
      for (int r = 0; r < rounds; ++r) {
        trace->Append(PhaseMarkEvent(Phase::kReorg1));
        gen.StructuralDelete(trace, per_round);
        gen.StructuralInsert(trace, per_round);
        if (idle != 0 && r == 0) trace->Append(IdleMarkEvent(idle));
        trace->Append(PhaseMarkEvent(Phase::kTraverse));
        gen.TraverseT6(trace);
      }
    } else if (app == "t2") {
      // Build, then an update-heavy traversal (OO7 T2b/T2c style).
      int updates = 1;
      if (!ReadCount(flags, "updates-per-part", 1, kMaxInt, &updates,
                     error)) {
        return false;
      }
      trace->Append(PhaseMarkEvent(Phase::kGenDb));
      gen.GenDb(trace);
      trace->Append(PhaseMarkEvent(Phase::kTraverse));
      gen.TraverseT2(trace, updates);
    } else {
      *error = "unknown --app '" + app + "' (yny|structural|t2)";
      return false;
    }
    return true;
  }
  if (workload == "uniform-churn") {
    UniformChurnOptions o;
    o.seed = seed;
    if (!ReadCount(flags, "cycles", 1, kMaxInt, &o.cycles, error) ||
        !ReadCount(flags, "lists", 1, kMaxInt, &o.list_count, error) ||
        !ReadCount(flags, "length", 1, kMaxInt, &o.target_length, error)) {
      return false;
    }
    *trace = MakeUniformChurn(o);
    return true;
  }
  if (workload == "bursty-deletes") {
    BurstyDeleteOptions o;
    o.seed = seed;
    // Bursts may follow one another without quiet cycles.
    if (!ReadCount(flags, "quiet-cycles", 0, kMaxInt,
                   &o.quiet_cycles_per_burst, error) ||
        !ReadCount(flags, "bursts", 1, kMaxInt, &o.bursts, error) ||
        !ReadCount(flags, "lists", 1, kMaxInt, &o.lists_per_burst, error) ||
        !ReadCount(flags, "length", 1, kMaxInt, &o.list_length, error)) {
      return false;
    }
    *trace = MakeBurstyDeletes(o);
    return true;
  }
  if (workload == "growing-db") {
    GrowingDatabaseOptions o;
    o.seed = seed;
    if (!ReadCount(flags, "cycles", 1, kMaxInt, &o.cycles, error) ||
        !ReadCount(flags, "retain-every", 1, kMaxInt, &o.retain_every,
                   error)) {
      return false;
    }
    *trace = MakeGrowingDatabase(o);
    return true;
  }
  if (workload == "message-queue") {
    MessageQueueOptions o;
    o.seed = seed;
    if (!ReadCount(flags, "cycles", 1, kMaxInt, &o.cycles, error) ||
        !ReadCount(flags, "batch", 1, kMaxInt, &o.batch, error)) {
      return false;
    }
    *trace = MakeMessageQueue(o);
    return true;
  }
  *error = "unknown --workload '" + workload + "'";
  return false;
}

bool BuildSimConfig(const Flags& flags, SimConfig* config,
                    std::string* error) {
  // Numeric and boolean flags default to the field they set.
  StoreConfig& store = config->store;
  store.partition_bytes = 1024 * static_cast<uint32_t>(flags.GetInt(
      "partition-kb", store.partition_bytes / 1024));
  store.page_bytes = 1024 * static_cast<uint32_t>(
      flags.GetInt("page-kb", store.page_bytes / 1024));
  store.buffer_pages =
      static_cast<uint32_t>(flags.GetInt("buffer-pages", store.buffer_pages));
  config->preamble_collections = static_cast<uint32_t>(
      flags.GetInt("preamble", config->preamble_collections));
  store.enable_disk_timing =
      flags.GetBool("disk-timing", store.enable_disk_timing);

  std::string policy = flags.GetString("policy", "saga");
  if (policy == "fixed") {
    config->policy = PolicyKind::kFixedRate;
    config->fixed_rate_overwrites = static_cast<uint64_t>(flags.GetInt(
        "rate", static_cast<int64_t>(config->fixed_rate_overwrites)));
  } else if (policy == "heuristic") {
    config->policy = PolicyKind::kConnectivityHeuristic;
  } else if (policy == "alloc-rate") {
    config->policy = PolicyKind::kAllocationRate;
    config->allocation_rate_bytes = static_cast<uint64_t>(flags.GetInt(
        "alloc-bytes", static_cast<int64_t>(config->allocation_rate_bytes)));
  } else if (policy == "alloc-triggered") {
    config->policy = PolicyKind::kAllocationTriggered;
  } else if (policy == "saio") {
    config->policy = PolicyKind::kSaio;
    config->saio_frac = flags.GetDouble("saio-frac", config->saio_frac);
    config->saio_history =
        flags.GetString("hist", "") == "inf"
            ? SaioPolicy::kInfiniteHistory
            : static_cast<size_t>(flags.GetInt(
                  "hist", static_cast<int64_t>(config->saio_history)));
    config->saio_opportunism =
        flags.GetBool("opportunism", config->saio_opportunism);
  } else if (policy == "saga") {
    config->policy = PolicyKind::kSaga;
    config->saga.garbage_frac =
        flags.GetDouble("saga-frac", config->saga.garbage_frac);
    config->saga.opportunism =
        flags.GetBool("opportunism", config->saga.opportunism);
  } else if (policy == "coupled") {
    config->policy = PolicyKind::kCoupled;
    config->coupled.io_frac =
        flags.GetDouble("saio-frac", config->coupled.io_frac);
    config->coupled.garbage_ref_frac =
        flags.GetDouble("ref-frac", config->coupled.garbage_ref_frac);
  } else {
    *error = "unknown --policy '" + policy + "'";
    return false;
  }

  std::string estimator = flags.GetString("estimator", "fgshb");
  if (estimator == "oracle") {
    config->estimator = EstimatorKind::kOracle;
  } else if (estimator == "cgscb") {
    config->estimator = EstimatorKind::kCgsCb;
  } else if (estimator == "cgshb") {
    config->estimator = EstimatorKind::kCgsHb;
  } else if (estimator == "fgscb") {
    config->estimator = EstimatorKind::kFgsCb;
  } else if (estimator == "fgshb") {
    config->estimator = EstimatorKind::kFgsHb;
  } else {
    *error = "unknown --estimator '" + estimator + "'";
    return false;
  }
  config->fgs_history_factor =
      flags.GetDouble("history-factor", config->fgs_history_factor);

  std::string selector = flags.GetString("selector", "updated");
  if (selector == "updated") {
    config->selector = SelectorKind::kUpdatedPointer;
  } else if (selector == "random") {
    config->selector = SelectorKind::kRandom;
  } else if (selector == "roundrobin") {
    config->selector = SelectorKind::kRoundRobin;
  } else if (selector == "oracle") {
    config->selector = SelectorKind::kMostGarbageOracle;
  } else if (selector == "lru") {
    config->selector = SelectorKind::kLeastRecentlyCollected;
  } else if (selector == "density") {
    config->selector = SelectorKind::kOverwriteDensity;
  } else {
    *error = "unknown --selector '" + selector + "'";
    return false;
  }
  config->selector_seed = static_cast<uint64_t>(flags.GetInt("seed", 1)) *
                              7919 + 17;

  // Fault injection & self-healing. All defaults are "off": a run that
  // passes none of these stays byte-identical to a faultless build.
  FaultPlan& fault = store.fault;
  fault.read_fault_prob =
      flags.GetDouble("read-fault-prob", fault.read_fault_prob);
  fault.write_fault_prob =
      flags.GetDouble("write-fault-prob", fault.write_fault_prob);
  fault.torn_write_prob = flags.GetDouble("torn-prob", fault.torn_write_prob);
  fault.bitflip_prob = flags.GetDouble("bitflip-prob", fault.bitflip_prob);
  fault.decay_prob = flags.GetDouble("decay-prob", fault.decay_prob);
  fault.decay_latency = static_cast<uint32_t>(
      flags.GetInt("decay-latency", fault.decay_latency));
  fault.dead_page_prob =
      flags.GetDouble("dead-page-prob", fault.dead_page_prob);
  fault.dead_partition_prob =
      flags.GetDouble("dead-partition-prob", fault.dead_partition_prob);
  fault.seed = static_cast<uint64_t>(
      flags.GetInt("fault-seed", static_cast<int64_t>(fault.seed)));
  fault.commit_protocol =
      flags.GetBool("commit-protocol", fault.commit_protocol);
  config->scrub_interval_events = static_cast<uint32_t>(
      flags.GetInt("scrub-interval", config->scrub_interval_events));
  config->scrub_pages_per_quantum = static_cast<uint32_t>(
      flags.GetInt("scrub-pages", config->scrub_pages_per_quantum));
  config->auto_repair = !flags.GetBool("no-auto-repair", !config->auto_repair);
  config->verify_after_repair =
      !flags.GetBool("no-verify-after-repair", !config->verify_after_repair);

  // Capacity & overload governor. All defaults are "off": uncapped,
  // ungoverned runs stay byte-identical to pre-governor builds.
  constexpr uint64_t kMiB = 1024 * 1024;
  store.max_db_bytes = kMiB * static_cast<uint64_t>(flags.GetInt(
      "max-db-mb", static_cast<int64_t>(store.max_db_bytes / kMiB)));
  GovernorConfig& gov = config->governor;
  gov.enabled = flags.GetBool("governor", gov.enabled);
  gov.yellow_frac = flags.GetDouble("governor-yellow", gov.yellow_frac);
  gov.red_frac = flags.GetDouble("governor-red", gov.red_frac);
  gov.hysteresis_frac =
      flags.GetDouble("governor-hysteresis", gov.hysteresis_frac);
  gov.check_interval_events = static_cast<uint32_t>(
      flags.GetInt("governor-check-interval", gov.check_interval_events));
  gov.boost_interval_overwrites = static_cast<uint64_t>(flags.GetInt(
      "governor-boost-interval",
      static_cast<int64_t>(gov.boost_interval_overwrites)));
  gov.emergency_max_collections = static_cast<uint32_t>(flags.GetInt(
      "governor-emergency-max", gov.emergency_max_collections));
  gov.safe_mode_divergence_frac = flags.GetDouble(
      "safe-mode-divergence", gov.safe_mode_divergence_frac);
  gov.safe_mode_flip_frac =
      flags.GetDouble("safe-mode-flip", gov.safe_mode_flip_frac);
  gov.safe_mode_fixed_interval = static_cast<uint64_t>(flags.GetInt(
      "safe-mode-rate", static_cast<int64_t>(gov.safe_mode_fixed_interval)));

  // The ranges the library's constructors CHECK, reported here as flag
  // errors (exit 2) instead of aborts. Each rule holds unless its flag
  // applies to this run and its value is out of range.
  auto open_unit = [](double v) { return v > 0.0 && v < 1.0; };
  const PolicyKind kind = config->policy;
  const struct {
    bool ok;
    const char* message;
  } rules[] = {
      {store.page_bytes > 0, "--page-kb must be positive"},
      {store.page_bytes == 0 ||
           (store.partition_bytes > 0 &&
            store.partition_bytes % store.page_bytes == 0),
       "--partition-kb must be a positive multiple of --page-kb"},
      {store.buffer_pages > 0, "--buffer-pages must be positive"},
      {kind != PolicyKind::kFixedRate || config->fixed_rate_overwrites > 0,
       "--rate must be positive"},
      {kind != PolicyKind::kAllocationRate ||
           config->allocation_rate_bytes > 0,
       "--alloc-bytes must be positive"},
      {kind != PolicyKind::kSaio || open_unit(config->saio_frac),
       "--saio-frac must be in (0, 1)"},
      {kind != PolicyKind::kSaga || open_unit(config->saga.garbage_frac),
       "--saga-frac must be in (0, 1)"},
      {kind != PolicyKind::kCoupled || open_unit(config->coupled.io_frac),
       "--saio-frac must be in (0, 1)"},
      {kind != PolicyKind::kCoupled || config->coupled.garbage_ref_frac > 0.0,
       "--ref-frac must be positive"},
      {config->fgs_history_factor >= 0.0 && config->fgs_history_factor <= 1.0,
       "--history-factor must be in [0, 1]"},
      {!gov.enabled || (gov.yellow_frac > 0.0 &&
                        gov.yellow_frac <= gov.red_frac && gov.red_frac <= 1.0),
       "--governor-yellow/--governor-red must satisfy 0 < yellow <= red <= 1"},
      {!gov.enabled || gov.hysteresis_frac >= 0.0,
       "--governor-hysteresis must be non-negative"},
      {!gov.enabled || gov.check_interval_events > 0,
       "--governor-check-interval must be positive"},
      {!gov.enabled || gov.safe_mode_fixed_interval > 0,
       "--safe-mode-rate must be positive"},
  };
  for (const auto& rule : rules) {
    if (!rule.ok) {
      *error = rule.message;
      return false;
    }
  }
  return true;
}

void PrintCommonUsage() {
  std::fprintf(stderr, R"(Workload flags:
  --workload=oo7|uniform-churn|bursty-deletes|growing-db|message-queue
  --seed=N
  oo7:     --oo7=smallprime|small|tiny --connectivity=3|6|9 --modules=N
           --app=yny|structural|t2  (default yny, the paper's application)
           --idle-after-reorg1=MAXCOLLS   (insert a quiescent window)
           structural: --rounds=N --per-round=N;  t2: --updates-per-part=N
  others:  --cycles --lists --length --bursts --quiet-cycles
           --retain-every --batch

Simulation flags:
  --policy=fixed|heuristic|alloc-rate|alloc-triggered|saio|saga|coupled
  --rate=N (fixed)  --saio-frac=F  --hist=N|inf  --saga-frac=F
  --ref-frac=F (coupled)  --opportunism
  --estimator=oracle|cgscb|cgshb|fgscb|fgshb  --history-factor=H
  --selector=updated|random|roundrobin|oracle|lru|density
  --partition-kb=96 --page-kb=8 --buffer-pages=12 --preamble=10
  --disk-timing   (report simulated elapsed disk time)

Fault injection & self-healing:
  --read-fault-prob=F --write-fault-prob=F   (transient, retried)
  --torn-prob=F                              (torn write, repaired on read)
  --bitflip-prob=F --decay-prob=F --decay-latency=N   (silent corruption,
                   caught by checksum on read or by the scrubber)
  --dead-page-prob=F --dead-partition-prob=F (permanent device faults)
  --fault-seed=N --commit-protocol
  --scrub-interval=EVENTS --scrub-pages=N    (background media scrub)
  --no-auto-repair --no-verify-after-repair

Capacity & overload governor:
  --max-db-mb=N       (capacity ceiling; exhausting it exits 6)
  --governor          (enable the pressure governor)
  --governor-yellow=F --governor-red=F --governor-hysteresis=F
  --governor-check-interval=EVENTS --governor-boost-interval=OVERWRITES
  --governor-emergency-max=N
  --safe-mode-divergence=F --safe-mode-flip=F --safe-mode-rate=OVERWRITES
)");
}

bool CheckNoUnusedFlags(const Flags& flags, std::string* error) {
  if (!flags.MalformedKeys().empty()) {
    *error = "malformed value(s):";
    for (const std::string& k : flags.MalformedKeys()) {
      *error += " --" + k + "=" + flags.GetString(k, "");
    }
    return false;
  }
  std::vector<std::string> unused = flags.UnusedKeys();
  if (unused.empty()) return true;
  *error = "unknown flag(s):";
  for (const std::string& k : unused) *error += " --" + k;
  return false;
}

}  // namespace odbgc::tools
