#include "tools/tool_common.h"

#include <cstdio>

#include "core/alloc_triggered.h"
#include "core/saio.h"
#include "oo7/generator.h"
#include "workloads/synthetic.h"

namespace odbgc::tools {

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
  params->num_conn_per_atomic = static_cast<uint32_t>(
      flags.GetInt("connectivity", params->num_conn_per_atomic));
  params->num_modules =
      static_cast<uint32_t>(flags.GetInt("modules", params->num_modules));
  return true;
}

bool BuildWorkloadTrace(const Flags& flags, Trace* trace,
                        std::string* error) {
  std::string workload = flags.GetString("workload", "oo7");
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  if (workload == "oo7") {
    Oo7Params params;
    if (!BuildOo7Params(flags, &params, error)) return false;
    Oo7Generator gen(params, seed);
    int64_t idle = flags.GetInt("idle-after-reorg1", 0);
    std::string app = flags.GetString("app", "yny");
    if (app == "yny") {
      // The paper's four-phase Yong/Naughton/Yu application.
      trace->Append(PhaseMarkEvent(Phase::kGenDb));
      gen.GenDb(trace);
      trace->Append(PhaseMarkEvent(Phase::kReorg1));
      gen.Reorg1(trace);
      if (idle != 0) trace->Append(IdleMarkEvent(static_cast<uint32_t>(idle)));
      trace->Append(PhaseMarkEvent(Phase::kTraverse));
      gen.Traverse(trace);
      trace->Append(PhaseMarkEvent(Phase::kReorg2));
      gen.Reorg2(trace);
    } else if (app == "structural") {
      // Rounds of whole-composite churn interleaved with traversals.
      int64_t rounds = flags.GetInt("rounds", 6);
      int64_t per_round = flags.GetInt("per-round", 10);
      trace->Append(PhaseMarkEvent(Phase::kGenDb));
      gen.GenDb(trace);
      for (int64_t r = 0; r < rounds; ++r) {
        trace->Append(PhaseMarkEvent(Phase::kReorg1));
        gen.StructuralDelete(trace, static_cast<int>(per_round));
        gen.StructuralInsert(trace, static_cast<int>(per_round));
        if (idle != 0 && r == 0) {
          trace->Append(IdleMarkEvent(static_cast<uint32_t>(idle)));
        }
        trace->Append(PhaseMarkEvent(Phase::kTraverse));
        gen.TraverseT6(trace);
      }
    } else if (app == "t2") {
      // Build, then an update-heavy traversal (OO7 T2b/T2c style).
      int64_t updates = flags.GetInt("updates-per-part", 1);
      trace->Append(PhaseMarkEvent(Phase::kGenDb));
      gen.GenDb(trace);
      trace->Append(PhaseMarkEvent(Phase::kTraverse));
      gen.TraverseT2(trace, static_cast<int>(updates));
    } else {
      *error = "unknown --app '" + app + "' (yny|structural|t2)";
      return false;
    }
    return true;
  }
  if (workload == "uniform-churn") {
    UniformChurnOptions o;
    o.seed = seed;
    o.cycles = static_cast<int>(flags.GetInt("cycles", o.cycles));
    o.list_count = static_cast<int>(flags.GetInt("lists", o.list_count));
    o.target_length =
        static_cast<int>(flags.GetInt("length", o.target_length));
    *trace = MakeUniformChurn(o);
    return true;
  }
  if (workload == "bursty-deletes") {
    BurstyDeleteOptions o;
    o.seed = seed;
    o.bursts = static_cast<int>(flags.GetInt("bursts", o.bursts));
    o.quiet_cycles_per_burst = static_cast<int>(
        flags.GetInt("quiet-cycles", o.quiet_cycles_per_burst));
    o.lists_per_burst =
        static_cast<int>(flags.GetInt("lists", o.lists_per_burst));
    o.list_length = static_cast<int>(flags.GetInt("length", o.list_length));
    *trace = MakeBurstyDeletes(o);
    return true;
  }
  if (workload == "growing-db") {
    GrowingDatabaseOptions o;
    o.seed = seed;
    o.cycles = static_cast<int>(flags.GetInt("cycles", o.cycles));
    o.retain_every =
        static_cast<int>(flags.GetInt("retain-every", o.retain_every));
    *trace = MakeGrowingDatabase(o);
    return true;
  }
  if (workload == "message-queue") {
    MessageQueueOptions o;
    o.seed = seed;
    o.cycles = static_cast<int>(flags.GetInt("cycles", o.cycles));
    o.batch = static_cast<int>(flags.GetInt("batch", o.batch));
    *trace = MakeMessageQueue(o);
    return true;
  }
  *error = "unknown --workload '" + workload + "'";
  return false;
}

bool BuildSimConfig(const Flags& flags, SimConfig* config,
                    std::string* error) {
  config->store.partition_bytes =
      static_cast<uint32_t>(flags.GetInt("partition-kb", 96)) * 1024;
  config->store.page_bytes =
      static_cast<uint32_t>(flags.GetInt("page-kb", 8)) * 1024;
  config->store.buffer_pages =
      static_cast<uint32_t>(flags.GetInt("buffer-pages", 12));
  config->preamble_collections =
      static_cast<uint32_t>(flags.GetInt("preamble", 10));
  config->store.enable_disk_timing = flags.GetBool("disk-timing", false);

  std::string policy = flags.GetString("policy", "saga");
  if (policy == "fixed") {
    config->policy = PolicyKind::kFixedRate;
    config->fixed_rate_overwrites =
        static_cast<uint64_t>(flags.GetInt("rate", 200));
  } else if (policy == "heuristic") {
    config->policy = PolicyKind::kConnectivityHeuristic;
  } else if (policy == "alloc-rate") {
    config->policy = PolicyKind::kAllocationRate;
    config->allocation_rate_bytes =
        static_cast<uint64_t>(flags.GetInt("alloc-bytes", 96 * 1024));
  } else if (policy == "alloc-triggered") {
    config->policy = PolicyKind::kAllocationTriggered;
  } else if (policy == "saio") {
    config->policy = PolicyKind::kSaio;
    config->saio_frac = flags.GetDouble("saio-frac", 0.10);
    config->saio_history =
        flags.GetString("hist", "0") == "inf"
            ? SaioPolicy::kInfiniteHistory
            : static_cast<size_t>(flags.GetInt("hist", 0));
    config->saio_opportunism = flags.GetBool("opportunism", false);
  } else if (policy == "saga") {
    config->policy = PolicyKind::kSaga;
    config->saga.garbage_frac = flags.GetDouble("saga-frac", 0.10);
    config->saga.opportunism = flags.GetBool("opportunism", false);
  } else if (policy == "coupled") {
    config->policy = PolicyKind::kCoupled;
    config->coupled.io_frac = flags.GetDouble("saio-frac", 0.10);
    config->coupled.garbage_ref_frac = flags.GetDouble("ref-frac", 0.10);
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
  config->fgs_history_factor = flags.GetDouble("history-factor", 0.8);

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
  FaultPlan& fault = config->store.fault;
  fault.read_fault_prob = flags.GetDouble("read-fault-prob", 0.0);
  fault.write_fault_prob = flags.GetDouble("write-fault-prob", 0.0);
  fault.torn_write_prob = flags.GetDouble("torn-prob", 0.0);
  fault.bitflip_prob = flags.GetDouble("bitflip-prob", 0.0);
  fault.decay_prob = flags.GetDouble("decay-prob", 0.0);
  fault.decay_latency = static_cast<uint32_t>(
      flags.GetInt("decay-latency", fault.decay_latency));
  fault.dead_page_prob = flags.GetDouble("dead-page-prob", 0.0);
  fault.dead_partition_prob = flags.GetDouble("dead-partition-prob", 0.0);
  fault.seed = static_cast<uint64_t>(
      flags.GetInt("fault-seed", static_cast<int64_t>(fault.seed)));
  fault.commit_protocol = flags.GetBool("commit-protocol", false);
  config->scrub_interval_events =
      static_cast<uint32_t>(flags.GetInt("scrub-interval", 0));
  config->scrub_pages_per_quantum = static_cast<uint32_t>(
      flags.GetInt("scrub-pages", config->scrub_pages_per_quantum));
  config->auto_repair = !flags.GetBool("no-auto-repair", false);
  config->verify_after_repair =
      !flags.GetBool("no-verify-after-repair", false);

  // Capacity & overload governor. All defaults are "off": uncapped,
  // ungoverned runs stay byte-identical to pre-governor builds.
  config->store.max_db_bytes =
      static_cast<uint64_t>(flags.GetInt("max-db-mb", 0)) * 1024 * 1024;
  GovernorConfig& gov = config->governor;
  gov.enabled = flags.GetBool("governor", false);
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
  if (gov.enabled &&
      (gov.yellow_frac <= 0.0 || gov.yellow_frac > gov.red_frac ||
       gov.red_frac > 1.0)) {
    *error = "--governor-yellow/--governor-red must satisfy "
             "0 < yellow <= red <= 1";
    return false;
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
