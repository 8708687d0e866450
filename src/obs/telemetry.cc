#include "obs/telemetry.h"

#include "util/snapshot.h"

namespace odbgc::obs {

Telemetry::Telemetry(const TelemetryOptions& options) : options_(options) {
  if (options_.capture_trace) {
    recorder_ = std::make_unique<TraceRecorder>(options_.max_trace_events);
    page_events_ = options_.page_events;
  }
  if (options_.record_decisions) {
    // The ring keeps the newest 2^16 decisions and counts what it sheds,
    // so a long run degrades to a suffix rather than failing.
    constexpr size_t kDecisionCapacity = 1 << 16;
    ledger_ = std::make_unique<DecisionLedger>(kDecisionCapacity);
  }
  if (options_.sample_interval_events != 0) {
    // Likewise the newest 2^13 time-series frames.
    constexpr size_t kSampleCapacity = 1 << 13;
    sampler_ = std::make_unique<TimeSeriesSampler>(
        options_.sample_interval_events, kSampleCapacity);
  }
}

void Telemetry::SaveState(SnapshotWriter& w) const {
  w.Tag("TEL0");
  w.U64(ticks_);
  metrics_.SaveState(w);
  w.Bool(ledger_ != nullptr);
  if (ledger_ != nullptr) ledger_->SaveState(w);
  w.Bool(sampler_ != nullptr);
  if (sampler_ != nullptr) sampler_->SaveState(w);
  w.Tag("TELE");
}

void Telemetry::RestoreState(SnapshotReader& r) {
  r.Tag("TEL0");
  ticks_ = r.U64();
  metrics_.RestoreState(r);
  // The checkpoint fingerprint deliberately excludes telemetry options,
  // so a resume may run with a different ledger/sampler configuration
  // than the checkpointing process. Saved streams the current
  // configuration did not enable are parsed into scratch objects and
  // discarded rather than failing the restore.
  if (r.Bool()) {
    DecisionLedger scratch(1);
    (ledger_ != nullptr ? *ledger_ : scratch).RestoreState(r);
  }
  if (r.Bool()) {
    TimeSeriesSampler scratch(0, 1);
    (sampler_ != nullptr ? *sampler_ : scratch).RestoreState(r);
  }
  r.Tag("TELE");
}

}  // namespace odbgc::obs
