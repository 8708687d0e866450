// End-to-end tests of the telemetry layer: Chrome trace export round-
// trips through util/json with the required trace_event fields, report
// JSON carries the new context sections, and telemetry never perturbs
// simulation results (including across sweep thread counts).

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/perfetto_export.h"
#include "obs/telemetry.h"
#include "sim/parallel.h"
#include "sim/report.h"
#include "sim/runner.h"
#include "sim/simulation.h"
#include "util/json.h"

namespace odbgc {
namespace {

SimConfig TinyConfig() {
  SimConfig cfg;
  cfg.store.partition_bytes = 16 * 1024;
  cfg.store.page_bytes = 2 * 1024;
  cfg.store.buffer_pages = 8;
  cfg.preamble_collections = 3;
  cfg.policy = PolicyKind::kSaga;
  cfg.saga.garbage_frac = 0.10;
  cfg.saga.bootstrap_overwrites = 50;
  // The tiny OO7 trace has only ~850 pointer overwrites; the default
  // dt_max of 1000 would schedule collection #2 past the end of it.
  cfg.saga.dt_max = 100;
  return cfg;
}

SimConfig TracedConfig() {
  SimConfig cfg = TinyConfig();
  cfg.telemetry.enabled = true;
  cfg.telemetry.capture_trace = true;
  return cfg;
}

// Tests below that inspect recorded telemetry only make sense when the
// instrumentation is compiled in; under -DODBGC_TELEMETRY=OFF the
// telemetry config is ignored and Simulation::telemetry() stays null.
#if ODBGC_TELEMETRY
#define SKIP_WITHOUT_TELEMETRY()
#else
#define SKIP_WITHOUT_TELEMETRY() \
  GTEST_SKIP() << "built with ODBGC_TELEMETRY=OFF"
#endif

std::string RunAndExportTrace(const SimConfig& cfg, uint64_t seed = 1) {
  std::shared_ptr<const Trace> trace =
      GenerateOo7Trace(Oo7Params::Tiny(), seed);
  SimConfig run_cfg = cfg;
  ApplyRunSeeds(&run_cfg, seed);
  Simulation sim(run_cfg);
  SimResult r = sim.Run(*trace);
  EXPECT_GT(r.collections, 0u);
  EXPECT_NE(sim.telemetry(), nullptr);
  EXPECT_NE(sim.telemetry()->recorder(), nullptr);
  std::vector<obs::TraceThread> threads{
      obs::TraceThread{sim.telemetry()->recorder(), 1, "simulation"}};
  return obs::ChromeTraceJson(threads);
}

TEST(TraceExportTest, ChromeTraceRoundTripsWithRequiredFields) {
  SKIP_WITHOUT_TELEMETRY();
  std::string json = RunAndExportTrace(TracedConfig());

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(json, &doc, &error)) << error;
  ASSERT_TRUE(doc.is_object());
  EXPECT_TRUE(doc.Has("displayTimeUnit"));
  EXPECT_TRUE(doc.Has("otherData"));

  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->array_items().empty());

  std::set<std::string> names;
  long depth = 0;
  uint64_t last_ts = 0;
  for (const JsonValue& e : events->array_items()) {
    ASSERT_TRUE(e.is_object());
    const JsonValue* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_TRUE(ph->is_string());
    ASSERT_EQ(ph->string_value().size(), 1u);
    ASSERT_TRUE(e.Has("ts"));
    ASSERT_TRUE(e.Find("ts")->is_number());
    ASSERT_TRUE(e.Has("pid"));
    ASSERT_TRUE(e.Has("tid"));
    ASSERT_TRUE(e.Has("name"));
    const char phc = ph->string_value()[0];
    if (phc != 'M') {
      // Timestamps never go backwards (single deterministic timebase).
      const uint64_t ts =
          static_cast<uint64_t>(e.Find("ts")->number_value());
      EXPECT_GE(ts, last_ts);
      last_ts = ts;
      names.insert(e.Find("name")->string_value());
    }
    if (phc == 'B') ++depth;
    if (phc == 'E') --depth;
    EXPECT_GE(depth, 0);
    if (phc == 'i') {
      const JsonValue* s = e.Find("s");
      ASSERT_NE(s, nullptr);
      EXPECT_EQ(s->string_value(), "t");
    }
  }
  EXPECT_EQ(depth, 0);

  // The span taxonomy the issue promises: collection spans with children,
  // page-level I/O instants, and policy decisions.
  EXPECT_TRUE(names.count("collection"));
  EXPECT_TRUE(names.count("scan"));
  EXPECT_TRUE(names.count("copy"));
  EXPECT_TRUE(names.count("remembered_set"));
  EXPECT_TRUE(names.count("page_read"));
  EXPECT_TRUE(names.count("page_write"));
  EXPECT_TRUE(names.count("policy_decision"));
  EXPECT_TRUE(names.count("phase"));
}

TEST(TraceExportTest, PageEventsCanBeSuppressed) {
  SKIP_WITHOUT_TELEMETRY();
  SimConfig cfg = TracedConfig();
  cfg.telemetry.page_events = false;
  std::string json = RunAndExportTrace(cfg);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(json, &doc, &error)) << error;
  for (const JsonValue& e : doc.Find("traceEvents")->array_items()) {
    const std::string& name = e.Find("name")->string_value();
    EXPECT_NE(name, "page_read");
    EXPECT_NE(name, "page_write");
  }
}

TEST(TraceExportTest, TelemetryDoesNotPerturbResults) {
  SKIP_WITHOUT_TELEMETRY();
  std::shared_ptr<const Trace> trace =
      GenerateOo7Trace(Oo7Params::Tiny(), 3);

  SimConfig plain = TinyConfig();
  ApplyRunSeeds(&plain, 3);
  SimConfig traced = TracedConfig();
  ApplyRunSeeds(&traced, 3);

  Simulation a(plain);
  SimResult ra = a.Run(*trace);
  Simulation b(traced);
  SimResult rb = b.Run(*trace);

  EXPECT_EQ(ra.collections, rb.collections);
  EXPECT_EQ(ra.clock.app_io, rb.clock.app_io);
  EXPECT_EQ(ra.clock.gc_io, rb.clock.gc_io);
  EXPECT_EQ(ra.total_reclaimed_bytes, rb.total_reclaimed_bytes);
  EXPECT_EQ(ra.achieved_gc_io_pct, rb.achieved_gc_io_pct);
  EXPECT_EQ(ra.garbage_pct.mean(), rb.garbage_pct.mean());

  // The telemetry counters agree with the store's own accounting.
  bool found = false;
  for (const obs::CounterSnapshot& c : rb.telemetry.counters) {
    if (c.id == "gc.collections") {
      EXPECT_EQ(c.value, rb.collections);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(ra.telemetry.empty());
}

TEST(TraceExportTest, TracesAreIdenticalAcrossSweepThreadCounts) {
  // The simulation trace timebase is logical (event/transfer ticks), so
  // the recorded trace — not just the results — is byte-identical no
  // matter how many sweep workers run around it.
  std::vector<SweepPoint> points;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    points.push_back(SweepPoint{TracedConfig(), Oo7Params::Tiny(), seed});
  }

  auto run_with_threads = [&](int threads) {
    SweepRunner runner(threads);
    std::vector<SimResult> results = runner.Run(points);
    std::vector<std::string> jsons;
    jsons.reserve(results.size());
    for (const SimResult& r : results) {
      jsons.push_back(SimResultToJson(r, /*include_collection_log=*/true));
    }
    return jsons;
  };

  std::vector<std::string> serial = run_with_threads(1);
  std::vector<std::string> parallel = run_with_threads(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "point " << i;
  }
}

TEST(ReportJsonTest, MeasurementWindowFallbackIsExplicit) {
  // A run too short to ever open the measurement window must say so
  // instead of silently reporting whole-run numbers.
  SimConfig cfg = TinyConfig();
  cfg.preamble_collections = 100000;  // never reached
  SimResult r = RunOo7Once(cfg, Oo7Params::Tiny(), 1);
  ASSERT_FALSE(r.window_opened);

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(SimResultToJson(r, false), &doc, &error))
      << error;
  const JsonValue* window = doc.Find("measurement_window");
  ASSERT_NE(window, nullptr);
  EXPECT_FALSE(window->Find("opened")->bool_value());
  EXPECT_TRUE(window->Find("fallback_whole_run")->bool_value());
  EXPECT_TRUE(window->Has("app_io"));
  EXPECT_TRUE(window->Has("gc_io"));
  EXPECT_TRUE(window->Has("reclaimed_bytes"));

  // An ordinary run reports an opened window without the fallback.
  SimResult r2 = RunOo7Once(TinyConfig(), Oo7Params::Tiny(), 1);
  ASSERT_TRUE(r2.window_opened);
  ASSERT_TRUE(JsonValue::Parse(SimResultToJson(r2, false), &doc, &error));
  window = doc.Find("measurement_window");
  ASSERT_NE(window, nullptr);
  EXPECT_TRUE(window->Find("opened")->bool_value());
  EXPECT_FALSE(window->Find("fallback_whole_run")->bool_value());
  // Build provenance is stamped into every report.
  const JsonValue* build = doc.Find("build_info");
  ASSERT_NE(build, nullptr);
  EXPECT_TRUE(build->Find("git_sha")->is_string());
  EXPECT_TRUE(build->Find("telemetry")->is_bool());
}

TEST(ReportJsonTest, FaultCountersSurfaceInJson) {
  SimConfig cfg = TinyConfig();
  cfg.store.fault.crash_point = CrashPoint::kBeforeFlip;
  cfg.store.fault.crash_at_collection = 2;
  SimResult r = RunOo7Once(cfg, Oo7Params::Tiny(), 1);
  ASSERT_EQ(r.crashes, 1u);

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(SimResultToJson(r, false), &doc, &error))
      << error;
  const JsonValue* faults = doc.Find("faults");
  ASSERT_NE(faults, nullptr);
  EXPECT_EQ(faults->Find("crashes")->number_value(), 1.0);
  EXPECT_EQ(faults->Find("recoveries")->number_value(), 1.0);
  EXPECT_EQ(faults->Find("recovery_rollforwards")->number_value(), 1.0);
  EXPECT_TRUE(faults->Has("io_retries"));
  EXPECT_TRUE(faults->Has("torn_writes"));
  EXPECT_TRUE(faults->Has("verifier_runs"));

  // A clean run omits the section entirely.
  SimResult clean = RunOo7Once(TinyConfig(), Oo7Params::Tiny(), 1);
  ASSERT_TRUE(
      JsonValue::Parse(SimResultToJson(clean, false), &doc, &error));
  EXPECT_EQ(doc.Find("faults"), nullptr);
}

TEST(ReportJsonTest, TelemetrySectionAppearsWhenEnabled) {
  SKIP_WITHOUT_TELEMETRY();
  SimResult r = RunOo7Once(TracedConfig(), Oo7Params::Tiny(), 1);
  ASSERT_FALSE(r.telemetry.empty());

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(SimResultToJson(r, false), &doc, &error))
      << error;
  const JsonValue* tel = doc.Find("telemetry");
  ASSERT_NE(tel, nullptr);
  const JsonValue* counters = tel->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_TRUE(counters->Has("gc.collections"));
  EXPECT_TRUE(counters->Has("storage.page_reads.gc"));
  const JsonValue* hists = tel->Find("histograms");
  ASSERT_NE(hists, nullptr);
  const JsonValue* gc_io = hists->Find("gc.collection_io_ops");
  ASSERT_NE(gc_io, nullptr);
  EXPECT_TRUE(gc_io->Has("p50"));
  EXPECT_TRUE(gc_io->Has("p95"));
  EXPECT_TRUE(gc_io->Has("p99"));
  EXPECT_GT(gc_io->Find("count")->number_value(), 0.0);

  // And never for a plain run.
  SimResult plain = RunOo7Once(TinyConfig(), Oo7Params::Tiny(), 1);
  ASSERT_TRUE(
      JsonValue::Parse(SimResultToJson(plain, false), &doc, &error));
  EXPECT_EQ(doc.Find("telemetry"), nullptr);
}

}  // namespace
}  // namespace odbgc
