#ifndef ODBGC_OBS_TELEMETRY_H_
#define ODBGC_OBS_TELEMETRY_H_

#include <cstdint>
#include <initializer_list>
#include <memory>

#include "obs/decision_ledger.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace_recorder.h"

namespace odbgc {
class SnapshotReader;
class SnapshotWriter;
}  // namespace odbgc

// Compile-time master switch. Built with -DODBGC_TELEMETRY=0 (CMake
// option ODBGC_TELEMETRY=OFF) every instrumentation site in the hot
// paths compiles away to nothing; the obs library itself still builds so
// exporters and tests of the data structures keep working. The default
// is on: the runtime cost of disabled-but-compiled-in telemetry is one
// pointer null check per instrumented site.
#ifndef ODBGC_TELEMETRY
#define ODBGC_TELEMETRY 1
#endif

#if ODBGC_TELEMETRY
// `ODBGC_IF_TEL(tel) { ... }` runs the block iff telemetry is attached.
// The [[unlikely]] hint makes the compiler outline the block to a cold
// section, keeping un-instrumented runs at a predicted-not-taken branch.
#define ODBGC_IF_TEL(tel) if ((tel) != nullptr) [[unlikely]]
#else
// The discarded-branch body is still type-checked, so instrumented code
// cannot rot, but the optimizer deletes it entirely.
#define ODBGC_IF_TEL(tel) if constexpr (false)
#endif

namespace odbgc::obs {

// Per-run telemetry configuration. Default-constructed options disable
// everything, leaving instrumented components with a null telemetry
// pointer — behavior and output stay byte-identical to a build that
// never heard of telemetry.
struct TelemetryOptions {
  // Master runtime switch: collect counters/gauges/histograms.
  bool enabled = false;
  // Also record structured trace events (spans + instants).
  bool capture_trace = false;
  // Emit a per-physical-transfer instant event into the trace. These are
  // the bulk of a trace's volume; the metrics counters are kept
  // regardless.
  bool page_events = true;
  // Trace buffer cap; see TraceRecorder.
  size_t max_trace_events = TraceRecorder::kDefaultMaxEvents;
  // Record every rate-policy decision into a bounded ledger
  // (--decisions-out). Implies metric collection stays meaningful even
  // when `enabled` is false, so any() treats it as an enable.
  bool record_decisions = false;
  // Snapshot the metrics registry every N applied trace events into
  // time-series frames (--timeseries-out). 0 disables sampling.
  uint64_t sample_interval_events = 0;

  bool any() const {
    return enabled || capture_trace || record_decisions ||
           sample_interval_events != 0;
  }
};

// One run's telemetry context: a metrics registry, an optional trace
// recorder, and the deterministic timebase they share. Owned by the
// Simulation (one per run, never shared across threads) and attached to
// the components it wires together — the same pattern DiskModel and
// FaultInjector use.
//
// Timebase: `ticks` is a logical microsecond counter advanced by the
// instrumented components themselves — one tick per simulated physical
// page transfer and one per applied trace event. It is a function of
// the simulation's deterministic execution only, so recorded traces are
// reproducible run-to-run and across sweep thread counts.
class Telemetry {
 public:
  explicit Telemetry(const TelemetryOptions& options);

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  const TelemetryOptions& options() const { return options_; }

  // --- timebase ---
  void Advance(uint64_t ticks = 1) { ticks_ += ticks; }
  uint64_t now() const { return ticks_; }

  // --- metrics ---
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  TelemetrySnapshot Snapshot() const { return metrics_.Snapshot(); }

  // --- structured trace ---
  // Null when capture_trace is off; instrumentation sites test this
  // before building args.
  TraceRecorder* recorder() { return recorder_.get(); }
  const TraceRecorder* recorder() const { return recorder_.get(); }
  // True when per-transfer page I/O instants should be recorded.
  bool page_events() const { return page_events_; }

  // --- decision ledger / time-series sampler ---
  // Null unless the corresponding option enabled them; recording sites
  // test for null, so unconfigured streams cost nothing.
  DecisionLedger* ledger() { return ledger_.get(); }
  const DecisionLedger* ledger() const { return ledger_.get(); }
  TimeSeriesSampler* sampler() { return sampler_.get(); }
  const TimeSeriesSampler* sampler() const { return sampler_.get(); }

  // Checkpoint support: ticks, every metric, the decision ledger and the
  // sampled frames round-trip bit-exactly, so a crash/resume run exports
  // byte-identical streams. The structured trace recorder is NOT part of
  // the snapshot (traces remain per-process).
  void SaveState(SnapshotWriter& w) const;
  void RestoreState(SnapshotReader& r);

  void Instant(const char* name, std::initializer_list<TraceArg> args = {}) {
    if (recorder_) recorder_->Instant(name, ticks_, args);
  }
  void Begin(const char* name, std::initializer_list<TraceArg> args = {}) {
    if (recorder_) recorder_->Begin(name, ticks_, args);
  }
  void End(const char* name, std::initializer_list<TraceArg> args = {}) {
    if (recorder_) recorder_->End(name, ticks_, args);
  }

 private:
  TelemetryOptions options_;
  uint64_t ticks_ = 0;
  MetricsRegistry metrics_;
  std::unique_ptr<TraceRecorder> recorder_;
  std::unique_ptr<DecisionLedger> ledger_;
  std::unique_ptr<TimeSeriesSampler> sampler_;
  bool page_events_ = false;
};

// RAII span: Begin at construction, End at destruction. A null telemetry
// pointer makes every operation a no-op, which is also how the
// compiled-out configuration routes around it.
class ScopedSpan {
 public:
  ScopedSpan(Telemetry* tel, const char* name,
             std::initializer_list<TraceArg> args = {})
      : tel_(tel), name_(name) {
    if (tel_ != nullptr) tel_->Begin(name_, args);
  }
  ~ScopedSpan() {
    if (tel_ != nullptr) tel_->End(name_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Telemetry* tel_;
  const char* name_;
};

}  // namespace odbgc::obs

// Declares a scoped span named `var`. Compiled out (the span object is
// constructed with a constant null telemetry pointer, which the
// optimizer deletes) when ODBGC_TELEMETRY is 0.
#if ODBGC_TELEMETRY
#define ODBGC_TEL_SPAN(var, tel, ...) \
  ::odbgc::obs::ScopedSpan var((tel), __VA_ARGS__)
#else
#define ODBGC_TEL_SPAN(var, tel, ...) \
  ::odbgc::obs::ScopedSpan var(nullptr, __VA_ARGS__)
#endif

#endif  // ODBGC_OBS_TELEMETRY_H_
