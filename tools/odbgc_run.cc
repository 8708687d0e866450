// odbgc_run — run a garbage-collection simulation and report.
//
//   odbgc_run --workload=oo7 --policy=saga --saga-frac=0.1
//   odbgc_run --trace=app.trace --policy=saio --saio-frac=0.05
//             --log-csv=collections.csv
//
// Durability / sweeps:
//   odbgc_run --workload=oo7 --checkpoint=run.ckpt --checkpoint-every=5000
//   odbgc_run --workload=oo7 --checkpoint=run.ckpt --resume --json=out.json
//   odbgc_run --runs=8 --base-seed=1 --threads=4 --sweep-json=sweep.json
//
// Exit codes (tools/tool_common.h; tables in README.md and
// docs/RECOVERY.md):
//   0  success
//   2  configuration / usage error (bad flags, unknown values)
//   3  I/O or checkpoint error (unreadable trace, unwritable report,
//      corrupt checkpoint, failed checkpoint write)
//   4  simulation failure (deadline exceeded, failed sweep runs,
//      --verify violations)
//   5  injected crash reached (--crash-at-event fired; resume with
//      --resume to continue from the last checkpoint)

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "obs/build_info.h"
#include "obs/perfetto_export.h"
#include "obs/progress.h"
#include "oo7/params.h"
#include "sim/checkpoint.h"
#include "sim/errors.h"
#include "sim/parallel.h"
#include "sim/report.h"
#include "sim/simulation.h"
#include "storage/verifier.h"
#include "tools/tool_common.h"
#include "trace/trace.h"
#include "util/file.h"
#include "util/flags.h"

namespace {

// Exit codes (see the header comment; defined once in tool_common.h so
// tests and other tools reference the same values).
using odbgc::tools::kExitOk;
using odbgc::tools::kExitUsage;
using odbgc::tools::kExitIo;
using odbgc::tools::kExitSimFailure;
using odbgc::tools::kExitCrashInjected;
using odbgc::tools::kExitSpaceExhausted;

bool DumpCollectionLogCsv(const odbgc::SimResult& result,
                          const std::string& path) {
  std::string csv =
      "collection,phase,overwrite_time,app_io,gc_io_delta,"
      "partition,bytes_reclaimed,bytes_live,db_used_bytes,"
      "actual_garbage_pct,estimated_garbage_pct,"
      "target_garbage_pct,next_dt\n";
  // Holds any row: a finite double at %.4f is at most 316 bytes, an
  // integer 20.
  char row[2048];
  for (const odbgc::CollectionRecord& r : result.log) {
    std::snprintf(row, sizeof(row),
                  "%llu,%s,%llu,%llu,%llu,%u,%llu,%llu,%llu,%.4f,%.4f,"
                  "%.4f,%llu\n",
                  static_cast<unsigned long long>(r.index),
                  odbgc::PhaseName(r.phase).c_str(),
                  static_cast<unsigned long long>(r.overwrite_time),
                  static_cast<unsigned long long>(r.app_io),
                  static_cast<unsigned long long>(r.gc_io_delta),
                  r.partition,
                  static_cast<unsigned long long>(r.bytes_reclaimed),
                  static_cast<unsigned long long>(r.bytes_live),
                  static_cast<unsigned long long>(r.db_used_bytes),
                  r.actual_garbage_pct, r.estimated_garbage_pct,
                  r.target_garbage_pct,
                  static_cast<unsigned long long>(r.next_dt));
    csv += row;
  }
  return odbgc::WriteWholeFile(path, csv);
}

// Sweep mode (--runs=N): fans N seeds of the OO7 workload across a
// thread pool with per-run failure isolation. One failed run does not
// abort the others; its status lands in the sweep report instead.
int RunSweep(odbgc::Flags& flags, const odbgc::SimConfig& config,
             int64_t runs) {
  using namespace odbgc;
  std::string error;
  const std::string workload = flags.GetString("workload", "oo7");
  if (workload != "oo7") {
    std::fprintf(stderr, "error: --runs sweeps support --workload=oo7 only\n");
    return kExitUsage;
  }
  Oo7Params params;
  if (!tools::BuildOo7Params(flags, &params, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitUsage;
  }
  const uint64_t base_seed =
      static_cast<uint64_t>(flags.GetInt("base-seed", 1));
  const std::string sweep_json = flags.GetString("sweep-json", "");
  const int threads = static_cast<int>(flags.GetInt("threads", 0));
  SweepOptions options;
  options.max_attempts = 1 + static_cast<int>(flags.GetInt("retries", 0));
  options.retry_backoff_ms = flags.GetDouble("retry-backoff-ms", 0.0);
  options.run_deadline_ms = flags.GetDouble("run-deadline-ms", 0.0);
  // Resumable sweeps: per-run checkpoints under the given prefix. A
  // rerun of an interrupted sweep (--resume is implied by an existing
  // checkpoint) continues each run from where it stopped.
  options.checkpoint_prefix = flags.GetString("checkpoint", "");
  options.checkpoint_every =
      static_cast<uint64_t>(flags.GetInt("checkpoint-every", 0));
  flags.GetBool("resume", false);  // implied in sweep mode; consume it
  if (options.checkpoint_every > 0 && options.checkpoint_prefix.empty()) {
    std::fprintf(stderr, "error: --checkpoint-every requires --checkpoint\n");
    return kExitUsage;
  }
  // Deliberate failure injection: crash every run (or just the run with
  // seed --crash-seed) after N applied events. Used by the recovery
  // smoke to prove one failing run does not disturb the others.
  const uint64_t crash_at_event =
      static_cast<uint64_t>(flags.GetInt("crash-at-event", 0));
  const uint64_t crash_seed =
      static_cast<uint64_t>(flags.GetInt("crash-seed", 0));
  const bool progress = flags.GetBool("progress", false);
  if (options.max_attempts < 1) {
    std::fprintf(stderr, "error: --retries must be >= 0\n");
    return kExitUsage;
  }
  if (!tools::CheckNoUnusedFlags(flags, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitUsage;
  }

  std::vector<SweepPoint> points;
  points.reserve(static_cast<size_t>(runs));
  for (int64_t i = 0; i < runs; ++i) {
    SweepPoint p{config, params, base_seed + static_cast<uint64_t>(i)};
    if (crash_at_event != 0 && (crash_seed == 0 || p.seed == crash_seed)) {
      p.config.store.fault.crash_at_event = crash_at_event;
    }
    points.push_back(p);
  }
  SweepRunner runner(threads);
  if (progress) runner.set_progress_stream(stderr);
  std::vector<RunOutcome> outcomes = runner.RunWithStatus(points, options);

  size_t failed = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const RunStatus& st = outcomes[i].status;
    if (st.ok()) continue;
    ++failed;
    std::fprintf(stderr, "run %zu (seed %llu) failed [%s, %d attempt%s]: %s\n",
                 i, static_cast<unsigned long long>(points[i].seed),
                 SimErrorKindName(st.error_kind), st.attempts,
                 st.attempts == 1 ? "" : "s", st.message.c_str());
  }
  std::printf("sweep             %lld runs on %d threads: %zu ok, %zu failed\n",
              static_cast<long long>(runs), runner.threads(),
              outcomes.size() - failed, failed);
  if (!sweep_json.empty()) {
    if (!WriteSweepReportJson(points, outcomes, sweep_json)) {
      std::fprintf(stderr, "error: cannot write '%s'\n", sweep_json.c_str());
      return kExitIo;
    }
    std::printf("sweep report      %s\n", sweep_json.c_str());
  }
  return failed == 0 ? kExitOk : kExitSimFailure;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace odbgc;
  Flags flags;
  std::string error;
  if (!Flags::Parse(argc, argv, &flags, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  if (flags.GetBool("help", false)) {
    std::fprintf(stderr,
                 "usage: odbgc_run [--trace=FILE | workload flags] "
                 "[simulation flags] [--log-csv=FILE] [--json=FILE]\n"
                 "  observability: --version  --telemetry  "
                 "--trace-out=FILE [--no-page-events] "
                 "[--trace-events-cap=N]  --progress\n"
                 "                 --decisions-out=FILE  "
                 "--timeseries-out=FILE [--sample-every=N]\n"
                 "  durability:    --checkpoint=FILE --checkpoint-every=N  "
                 "--resume  --crash-at-event=N  --deadline-ms=X\n"
                 "  verification:  --verify=none|heap|partition "
                 "(post-run; violations exit 4)\n"
                 "  sweeps:        --runs=N [--base-seed=N --threads=N "
                 "--retries=N --retry-backoff-ms=X --run-deadline-ms=X "
                 "--sweep-json=FILE --crash-at-event=N --crash-seed=S]\n"
                 "  exit codes:    0 ok, 2 usage, 3 I/O or checkpoint, "
                 "4 simulation failure, 5 injected crash\n");
    tools::PrintCommonUsage();
    return 0;
  }
  if (flags.GetBool("version", false)) {
    const obs::BuildInfo& b = obs::GetBuildInfo();
    std::printf("odbgc_run %s%s (%s, telemetry %s)\n", b.git_sha,
                b.git_dirty ? "-dirty" : "", b.build_type,
                b.telemetry ? "on" : "off");
    return 0;
  }

  // Sweep mode builds its own workload and never loads a trace file.
  const int64_t runs = flags.GetInt("runs", 0);
  if (runs > 0) {
    SimConfig sweep_config;
    if (!tools::BuildSimConfig(flags, &sweep_config, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return kExitUsage;
    }
    sweep_config.deadline_ms = flags.GetDouble("deadline-ms", 0.0);
    return RunSweep(flags, sweep_config, runs);
  }

  Trace trace;
  std::string trace_path = flags.GetString("trace", "");
  if (!trace_path.empty()) {
    const TraceLoadError load = Trace::Load(trace_path, &trace);
    if (load != TraceLoadError::kNone) {
      std::fprintf(stderr, "error: cannot read trace '%s': %s\n",
                   trace_path.c_str(), TraceLoadErrorName(load));
      return kExitIo;
    }
  } else if (!tools::BuildWorkloadTrace(flags, &trace, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitUsage;
  }

  SimConfig config;
  if (!tools::BuildSimConfig(flags, &config, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitUsage;
  }
  std::string csv_path = flags.GetString("log-csv", "");
  std::string json_path = flags.GetString("json", "");

  // Durability flags (see the header comment for the recovery protocol).
  const std::string checkpoint_path = flags.GetString("checkpoint", "");
  const uint64_t checkpoint_every =
      static_cast<uint64_t>(flags.GetInt("checkpoint-every", 0));
  const bool resume = flags.GetBool("resume", false);
  config.store.fault.crash_at_event =
      static_cast<uint64_t>(flags.GetInt("crash-at-event", 0));
  config.deadline_ms = flags.GetDouble("deadline-ms", 0.0);
  if ((checkpoint_every > 0 || resume) && checkpoint_path.empty()) {
    std::fprintf(stderr,
                 "error: --checkpoint-every/--resume require --checkpoint\n");
    return kExitUsage;
  }

  // Observability flags. --trace-out implies trace capture; --telemetry
  // alone collects metrics only (cheapest useful configuration).
  std::string trace_out = flags.GetString("trace-out", "");
  std::string decisions_out = flags.GetString("decisions-out", "");
  std::string timeseries_out = flags.GetString("timeseries-out", "");
  const int64_t sample_every = flags.GetInt(
      "sample-every",
      static_cast<int64_t>(obs::TimeSeriesSampler::kDefaultIntervalEvents));
  config.telemetry.enabled = flags.GetBool("telemetry", false) ||
                             !trace_out.empty() || !decisions_out.empty() ||
                             !timeseries_out.empty();
  config.telemetry.capture_trace = !trace_out.empty();
  config.telemetry.page_events = !flags.GetBool("no-page-events", false);
  config.telemetry.max_trace_events = static_cast<size_t>(flags.GetInt(
      "trace-events-cap",
      static_cast<int64_t>(config.telemetry.max_trace_events)));
  config.telemetry.record_decisions = !decisions_out.empty();
  if (!timeseries_out.empty()) {
    if (sample_every <= 0) {
      std::fprintf(stderr, "error: --sample-every must be positive\n");
      return kExitUsage;
    }
    config.telemetry.sample_interval_events =
        static_cast<uint64_t>(sample_every);
  }
  const bool progress = flags.GetBool("progress", false);

  // Post-run verification: --verify=heap runs the full cross-partition
  // heap verifier; --verify=partition runs the partition-local verifier
  // on every partition (the scrubber/repair entry point, satellite of
  // docs/RECOVERY.md's self-healing contract). Violations exit 4.
  const std::string verify_mode = flags.GetString("verify", "none");
  if (verify_mode != "none" && verify_mode != "heap" &&
      verify_mode != "partition") {
    std::fprintf(stderr,
                 "error: unknown --verify '%s' (none|heap|partition)\n",
                 verify_mode.c_str());
    return kExitUsage;
  }

  if (!tools::CheckNoUnusedFlags(flags, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitUsage;
  }
  if ((!trace_out.empty() || !decisions_out.empty() ||
       !timeseries_out.empty()) &&
      !obs::GetBuildInfo().telemetry) {
    std::fprintf(stderr,
                 "error: --trace-out/--decisions-out/--timeseries-out "
                 "require a build with ODBGC_TELEMETRY=ON\n");
    return 2;
  }

  std::unique_ptr<Simulation> sim_ptr;
  if (resume) {
    ResumeResult resumed = ResumeFromCheckpoint(config, checkpoint_path);
    if (resumed.ok()) {
      std::fprintf(stderr, "resumed from %s at event %llu%s\n",
                   resumed.loaded_path.c_str(),
                   static_cast<unsigned long long>(resumed.events_applied),
                   resumed.used_fallback ? " (fallback .prev image)" : "");
      sim_ptr = std::move(resumed.sim);
    } else if (resumed.primary_error == CheckpointError::kOpenFailed) {
      // No checkpoint was ever written (e.g. the crash preceded the
      // first checkpoint interval): start from the beginning.
      std::fprintf(stderr, "no checkpoint at %s; starting fresh\n",
                   checkpoint_path.c_str());
      sim_ptr = std::make_unique<Simulation>(config);
    } else {
      std::fprintf(stderr, "error: cannot resume from '%s': %s\n",
                   checkpoint_path.c_str(),
                   CheckpointErrorName(resumed.primary_error));
      return kExitIo;
    }
  } else {
    sim_ptr = std::make_unique<Simulation>(config);
  }
  Simulation& sim = *sim_ptr;
  obs::ProgressReporter reporter(stderr);
  if (progress) sim.set_progress(&reporter);
  SimResult r;
  try {
    r = sim.RunFrom(trace, checkpoint_path, checkpoint_every);
  } catch (const SimCrashInjected& e) {
    std::fprintf(stderr,
                 "crash injected after event %llu; resume with "
                 "--checkpoint=%s --resume\n",
                 static_cast<unsigned long long>(e.at_event()),
                 checkpoint_path.empty() ? "FILE" : checkpoint_path.c_str());
    return kExitCrashInjected;
  } catch (const SimCheckpointWriteError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitIo;
  } catch (const SpaceExhaustedError& e) {
    // Must precede the generic SimError handler: capacity exhaustion has
    // its own exit code so operators can tell "db full" from "sim broke".
    std::fprintf(stderr,
                 "error: %s\n"
                 "hint: raise --max-db-mb, or enable --governor so "
                 "emergency collection and backpressure engage before "
                 "the ceiling\n",
                 e.what());
    return kExitSpaceExhausted;
  } catch (const SimError& e) {
    std::fprintf(stderr, "error: simulation failed (%s): %s\n",
                 SimErrorKindName(e.kind()), e.what());
    return kExitSimFailure;
  }

  if (verify_mode == "heap") {
    VerifierReport vr = VerifyHeap(sim.store());
    if (!vr.ok()) {
      std::fprintf(stderr, "error: heap verifier: %s\n",
                   vr.Summary().c_str());
      return kExitSimFailure;
    }
    std::printf("verify            heap clean (%llu objects, %llu slots)\n",
                static_cast<unsigned long long>(vr.objects_checked),
                static_cast<unsigned long long>(vr.slots_checked));
  } else if (verify_mode == "partition") {
    size_t bad = 0;
    for (PartitionId p = 0;
         p < static_cast<PartitionId>(sim.store().partition_count()); ++p) {
      VerifierReport vr = VerifyPartition(sim.store(), p);
      if (vr.ok()) continue;
      ++bad;
      std::fprintf(stderr, "error: partition %u verifier: %s\n", p,
                   vr.Summary().c_str());
    }
    if (bad > 0) return kExitSimFailure;
    std::printf("verify            %zu partitions clean\n",
                sim.store().partition_count());
  }

  std::printf("policy            %s\n", sim.policy().name().c_str());
  std::printf("events            %llu (%llu pointer overwrites)\n",
              static_cast<unsigned long long>(r.clock.events),
              static_cast<unsigned long long>(
                  r.clock.pointer_overwrites));
  std::printf("collections       %llu (+%llu idle)\n",
              static_cast<unsigned long long>(r.collections),
              static_cast<unsigned long long>(r.idle_collections));
  std::printf("I/O operations    %llu app, %llu gc (%.2f%% gc%s)\n",
              static_cast<unsigned long long>(r.clock.app_io),
              static_cast<unsigned long long>(r.clock.gc_io),
              r.achieved_gc_io_pct,
              r.window_opened ? ", post-preamble" : ", whole run");
  std::printf("garbage           mean %.2f%% of database "
              "(%.2f MB reclaimed, %.2f MB left)\n",
              r.garbage_pct.mean(), r.total_reclaimed_bytes / 1.0e6,
              r.final_actual_garbage_bytes / 1.0e6);
  std::printf("database          %.2f MB in %zu partitions\n",
              r.final_db_used_bytes / 1.0e6, r.final_partition_count);
  std::printf("buffer pool       %llu hits, %llu misses (%.1f%% hit rate)\n",
              static_cast<unsigned long long>(r.buffer_hits),
              static_cast<unsigned long long>(r.buffer_misses),
              100.0 * static_cast<double>(r.buffer_hits) /
                  static_cast<double>(r.buffer_hits + r.buffer_misses));
  if (r.partitions_quarantined > 0 || r.pages_scrubbed > 0 ||
      r.checksum_failures > 0 || r.device_faults > 0) {
    std::printf("self-healing      %llu checksum + %llu device detections, "
                "%llu pages scrubbed, %llu quarantined / %llu repaired\n",
                static_cast<unsigned long long>(r.checksum_failures),
                static_cast<unsigned long long>(r.device_faults),
                static_cast<unsigned long long>(r.pages_scrubbed),
                static_cast<unsigned long long>(r.partitions_quarantined),
                static_cast<unsigned long long>(r.partitions_repaired));
  }
  if (r.disk_app_ms > 0.0 || r.disk_gc_ms > 0.0) {
    std::printf("disk time         %.1f s app + %.1f s gc "
                "(%llu sequential, %llu random transfers)\n",
                r.disk_app_ms / 1000.0, r.disk_gc_ms / 1000.0,
                static_cast<unsigned long long>(
                    r.disk_sequential_transfers),
                static_cast<unsigned long long>(r.disk_random_transfers));
  }
  if (!r.phase_stats.empty()) {
    std::printf("phases:\n");
    for (const PhaseStats& p : r.phase_stats) {
      std::printf("  %-9s %8llu colls, app io %8llu, gc io %8llu, "
                  "garbage %6.2f%%\n",
                  PhaseName(p.phase).c_str(),
                  static_cast<unsigned long long>(p.collections),
                  static_cast<unsigned long long>(p.app_io),
                  static_cast<unsigned long long>(p.gc_io),
                  p.garbage_pct.mean());
    }
  }

  if (!csv_path.empty()) {
    if (!DumpCollectionLogCsv(r, csv_path)) {
      std::fprintf(stderr, "error: cannot write '%s'\n", csv_path.c_str());
      return kExitIo;
    }
    std::printf("collection log    %s (%zu rows)\n", csv_path.c_str(),
                r.log.size());
  }
  if (!json_path.empty()) {
    if (!WriteResultJson(r, json_path)) {
      std::fprintf(stderr, "error: cannot write '%s'\n", json_path.c_str());
      return kExitIo;
    }
    std::printf("json report       %s\n", json_path.c_str());
  }
  if (!decisions_out.empty()) {
    if (!WriteDecisionsJsonl(r, decisions_out)) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   decisions_out.c_str());
      return kExitIo;
    }
    std::printf("decision ledger   %s (%zu records", decisions_out.c_str(),
                r.decisions.size());
    if (r.decisions_dropped > 0) {
      std::printf(", %llu dropped at cap",
                  static_cast<unsigned long long>(r.decisions_dropped));
    }
    std::printf(")\n");
  }
  if (!timeseries_out.empty()) {
    if (!WriteTimeSeriesJsonl(r, timeseries_out)) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   timeseries_out.c_str());
      return kExitIo;
    }
    std::printf("time series       %s (%zu frames", timeseries_out.c_str(),
                r.timeseries.size());
    if (r.timeseries_dropped > 0) {
      std::printf(", %llu dropped at cap",
                  static_cast<unsigned long long>(r.timeseries_dropped));
    }
    std::printf(")\n");
  }
  if (!trace_out.empty()) {
    obs::Telemetry* tel = sim.telemetry();
    if (tel == nullptr || tel->recorder() == nullptr) {
      std::fprintf(stderr, "error: no trace was recorded\n");
      return kExitSimFailure;
    }
    std::vector<obs::TraceThread> threads{
        obs::TraceThread{tel->recorder(), 1, "simulation"}};
    if (!obs::WriteChromeTrace(threads, trace_out)) {
      std::fprintf(stderr, "error: cannot write '%s'\n", trace_out.c_str());
      return kExitIo;
    }
    std::printf("chrome trace      %s (%zu events", trace_out.c_str(),
                tel->recorder()->size());
    if (tel->recorder()->dropped_events() > 0) {
      std::printf(", %llu dropped at cap",
                  static_cast<unsigned long long>(
                      tel->recorder()->dropped_events()));
    }
    std::printf(")\n");
  }
  return kExitOk;
}
