#include "sim/report.h"

#include "obs/build_info.h"
#include "storage/buffer_pool.h"
#include "util/file.h"
#include "util/json.h"

namespace odbgc {

namespace {

void WriteSnapshot(JsonWriter& w, const obs::TelemetrySnapshot& snap) {
  w.Key("counters");
  w.BeginObject();
  for (const obs::CounterSnapshot& c : snap.counters) {
    w.Key(c.id);
    w.Value(c.value);
  }
  w.EndObject();
  w.Key("gauges");
  w.BeginObject();
  for (const obs::GaugeSnapshot& g : snap.gauges) {
    w.Key(g.id);
    w.Value(g.value);
  }
  w.EndObject();
  w.Key("histograms");
  w.BeginObject();
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    w.Key(h.id);
    w.BeginObject();
    w.Key("count");
    w.Value(h.count);
    w.Key("min");
    w.Value(h.min);
    w.Key("max");
    w.Value(h.max);
    w.Key("mean");
    w.Value(h.mean);
    w.Key("p50");
    w.Value(h.p50);
    w.Key("p95");
    w.Value(h.p95);
    w.Key("p99");
    w.Value(h.p99);
    w.EndObject();
  }
  w.EndObject();
}

// Maps the stall.* histogram ids onto the stall-cause taxonomy
// (docs/OBSERVABILITY.md). Order here is emission order.
struct StallCause {
  const char* histogram_id;
  const char* cause;
};
constexpr StallCause kStallCauses[] = {
    {"stall.gc_copy_io", "gc_copy"},
    {"stall.scrub_read_through_io", "scrub_read_through"},
    {"stall.quarantine_repair_io", "quarantine_repair"},
    {"stall.fault_retry_io", "fault_retry"},
};

// The report's optional objects, in emission order.
struct OptionalObject {
  SimResult::Section section;
  const char* key;
};
constexpr OptionalObject kOptionalObjects[] = {
    {SimResult::kFaults, "faults"},
    {SimResult::kSelfHealing, "self_healing"},
    {SimResult::kOverload, "overload"},
    {SimResult::kDisk, "disk"},
};

}  // namespace

std::string SimResultToJson(const SimResult& result,
                            bool include_collection_log) {
  JsonWriter w;
  w.BeginObject();
  ReportRows(w, result.clock);
  ReportRows(w, result, SimResult::kBeforeWindow);

  // Measurement-window context: a run that never reached the preamble's
  // collection count falls back to whole-run measurements; say so
  // explicitly instead of leaving window_opened=false to be guessed at.
  w.Key("measurement_window");
  w.BeginObject();
  w.Key("opened");
  w.Value(result.window_opened);
  w.Key("fallback_whole_run");
  w.Value(!result.window_opened);
  w.Key("app_io");
  w.Value(result.measured_app_io);
  w.Key("gc_io");
  w.Value(result.measured_gc_io);
  w.Key("reclaimed_bytes");
  w.Value(result.window_reclaimed_bytes);
  w.EndObject();
  ReportRows(w, result, SimResult::kMain);

  // Fault, self-healing, governor and disk-timing outcomes. Each object
  // is emitted whenever its machinery did anything, so those runs are
  // self-describing; clean runs omit them to keep their reports lean.
  for (const OptionalObject& obj : kOptionalObjects) {
    if (!SectionOn(result, obj.section)) continue;
    w.Key(obj.key);
    w.BeginObject();
    ReportRows(w, result, obj.section);
    if (obj.section == SimResult::kOverload) {
      w.Key("peak_utilization_pct");
      w.Value(static_cast<double>(result.peak_utilization_pct_x100) / 100.0);
    }
    w.EndObject();
  }

  ReportRows(w, result, SimResult::kPhases);
  if (include_collection_log) ReportRows(w, result, SimResult::kLog);

  if (!result.telemetry.empty()) {
    w.Key("telemetry");
    w.BeginObject();
    WriteSnapshot(w, result.telemetry);
    w.EndObject();

    // Stall attribution: which subsystem's I/O the application stalled
    // behind, as per-cause log2 histograms. Emitted only when at least
    // one cause fired, same contract as "faults"/"self_healing".
    bool any_stall = false;
    for (const obs::HistogramSnapshot& h : result.telemetry.histograms) {
      for (const StallCause& cause : kStallCauses) {
        if (h.id == cause.histogram_id && h.count > 0) any_stall = true;
      }
    }
    if (any_stall) {
      w.Key("stall_attribution");
      w.BeginObject();
      for (const StallCause& cause : kStallCauses) {
        for (const obs::HistogramSnapshot& h : result.telemetry.histograms) {
          if (h.id != cause.histogram_id || h.count == 0) continue;
          w.Key(cause.cause);
          w.BeginObject();
          w.Key("count");
          w.Value(h.count);
          w.Key("mean");
          w.Value(h.mean);
          w.Key("p50");
          w.Value(h.p50);
          w.Key("p95");
          w.Value(h.p95);
          w.Key("p99");
          w.Value(h.p99);
          w.EndObject();
        }
      }
      w.EndObject();
    }
  }

  // Decision-ledger / time-series stream stats. The streams themselves
  // export as JSONL (DecisionsToJsonl / TimeSeriesToJsonl); the report
  // only says how much each stream captured and shed.
  if (!result.decisions.empty() || result.decisions_dropped > 0) {
    w.Key("decision_ledger");
    w.BeginObject();
    w.Key("records");
    w.Value(static_cast<uint64_t>(result.decisions.size()));
    w.Key("dropped");
    w.Value(result.decisions_dropped);
    w.EndObject();
  }
  if (!result.timeseries.empty() || result.timeseries_dropped > 0) {
    w.Key("timeseries");
    w.BeginObject();
    w.Key("frames");
    w.Value(static_cast<uint64_t>(result.timeseries.size()));
    w.Key("dropped");
    w.Value(result.timeseries_dropped);
    w.EndObject();
  }

  const obs::BuildInfo& build = obs::GetBuildInfo();
  w.Key("build_info");
  w.BeginObject();
  w.Key("git_sha");
  w.Value(build.git_sha);
  w.Key("git_dirty");
  w.Value(build.git_dirty);
  w.Key("build_type");
  w.Value(build.build_type);
  w.Key("telemetry");
  w.Value(build.telemetry);
  w.EndObject();

  w.EndObject();
  return w.TakeString();
}

bool WriteResultJson(const SimResult& result, const std::string& path,
                     bool include_collection_log) {
  return WriteWholeFile(path, SimResultToJson(result, include_collection_log));
}

std::string SweepReportToJson(const std::vector<SweepPoint>& points,
                              const std::vector<RunOutcome>& outcomes,
                              bool include_collection_log) {
  JsonWriter w;
  w.BeginObject();

  size_t ok_runs = 0;
  size_t failed_runs = 0;
  w.Key("runs");
  w.BeginArray();
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const RunOutcome& out = outcomes[i];
    w.BeginObject();
    w.Key("index");
    w.Value(static_cast<uint64_t>(i));
    if (i < points.size()) {
      w.Key("seed");
      w.Value(points[i].seed);
    }
    w.Key("status");
    w.Value(out.status.ok() ? "ok" : "failed");
    w.Key("attempts");
    w.Value(static_cast<uint64_t>(out.status.attempts));
    if (out.status.ok()) {
      ++ok_runs;
      w.Key("report");
      w.RawValue(SimResultToJson(out.result, include_collection_log));
    } else {
      ++failed_runs;
      w.Key("error_kind");
      w.Value(SimErrorKindName(out.status.error_kind));
      w.Key("error");
      w.Value(out.status.message);
    }
    w.EndObject();
  }
  w.EndArray();

  w.Key("summary");
  w.BeginObject();
  w.Key("total");
  w.Value(static_cast<uint64_t>(outcomes.size()));
  w.Key("ok");
  w.Value(static_cast<uint64_t>(ok_runs));
  w.Key("failed");
  w.Value(static_cast<uint64_t>(failed_runs));
  w.EndObject();

  const obs::BuildInfo& build = obs::GetBuildInfo();
  w.Key("build_info");
  w.BeginObject();
  w.Key("git_sha");
  w.Value(build.git_sha);
  w.Key("git_dirty");
  w.Value(build.git_dirty);
  w.Key("build_type");
  w.Value(build.build_type);
  w.Key("telemetry");
  w.Value(build.telemetry);
  w.EndObject();

  w.EndObject();
  return w.TakeString();
}

bool WriteSweepReportJson(const std::vector<SweepPoint>& points,
                          const std::vector<RunOutcome>& outcomes,
                          const std::string& path,
                          bool include_collection_log) {
  return WriteWholeFile(
      path, SweepReportToJson(points, outcomes, include_collection_log));
}

std::string DecisionsToJsonl(const SimResult& result) {
  std::string out;
  for (const obs::PolicyDecisionRecord& d : result.decisions) {
    JsonWriter w;
    ReportField(w, d);
    out += w.TakeString();
    out += '\n';
  }
  return out;
}

bool WriteDecisionsJsonl(const SimResult& result, const std::string& path) {
  return WriteWholeFile(path, DecisionsToJsonl(result));
}

std::string TimeSeriesToJsonl(const SimResult& result) {
  std::string out;
  for (const obs::TimeSeriesFrame& frame : result.timeseries) {
    JsonWriter w;
    w.BeginObject();
    w.Key("seq");
    w.Value(frame.seq);
    w.Key("event");
    w.Value(frame.event);
    w.Key("tick");
    w.Value(frame.tick);
    w.Key("collections");
    w.Value(frame.collections);
    WriteSnapshot(w, frame.metrics);
    w.EndObject();
    out += w.TakeString();
    out += '\n';
  }
  return out;
}

bool WriteTimeSeriesJsonl(const SimResult& result, const std::string& path) {
  return WriteWholeFile(path, TimeSeriesToJsonl(result));
}

}  // namespace odbgc
