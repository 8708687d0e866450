#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

// Layer probes for the traced run. Each one decorates a public virtual
// interface of odbgc (RatePolicy, GarbageEstimator, PartitionSelector,
// EventSource), forwards every virtual method to the wrapped object,
// and times the call from outside. Nothing here changes what the
// program computes: the digests of traced and untraced runs must agree.
//
// Calls made once per event (ShouldCollect, OnPointerOverwrite, Next)
// are counted on every call but timed on one call in kSampleEvery: two
// clock reads cost more than the call itself, and timing every call
// slows a replay by half. Calls made once per collection are timed on
// every call.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/estimator.h"
#include "core/rate_policy.h"
#include "gc/partition_selector.h"
#include "sim/client_mux.h"
#include "trace/event_source.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr uint64_t kSampleEvery = 64;  // a power of two
// A sampled per-event call takes well under a microsecond; one that
// reads longer was preempted, and scaled by kSampleEvery it would
// swamp the estimate, so it is dropped.
constexpr int64_t kMaxSampleNs = 20000;

[[gnu::noinline]] inline void EmptyCall() { asm volatile(""); }

// Time spent in a call made on every event, estimated from a sample.
struct SampledTimer {
  uint64_t calls = 0;
  uint64_t samples = 0;
  int64_t sampled_ns = 0;
  int64_t null_ns = 0;

  // True when this call is one of the timed sample.
  bool Due() { return (++calls & (kSampleEvery - 1)) == 0; }
  // Records a sampled call that began at t0 and whose end was read as
  // t1, then times an empty call the same way. The sampled calls cost a
  // few nanoseconds, less than the clock reads around them, and the
  // reads' cost drifts with the vCPU's speed; the pair cancels it.
  void Add(int64_t t0, int64_t t1) {
    EmptyCall();
    const int64_t t2 = NowNs();
    if (t1 - t0 > kMaxSampleNs || t2 - t1 > kMaxSampleNs) return;
    ++samples;
    sampled_ns += t1 - t0;
    null_ns += t2 - t1;
  }
  double TotalMs() const {
    if (samples == 0 || sampled_ns <= null_ns) return 0.0;
    return static_cast<double>(sampled_ns - null_ns) /
           static_cast<double>(samples) * static_cast<double>(calls) / 1e6;
  }
};

// Time spent in a call made once per collection; every call is timed.
struct FullTimer {
  uint64_t calls = 0;
  int64_t ns = 0;

  void Add(int64_t d) {
    ++calls;
    ns += d;
  }
  double Ms() const { return static_cast<double>(ns) / 1e6; }
};

// What one traced replay learns about the gc and core layers.
struct ReplayProbe {
  SampledTimer should_collect;
  FullTimer policy_on_collection;  // OnCollection + OnIdleCollection
  FullTimer select;
  SampledTimer estimator_overwrite;
  FullTimer estimator_on_collection;
  // Collection spans: from a Select returning a partition to the policy
  // hearing about the collection. Covers Collector::Collect and the
  // estimator's collection feed.
  std::vector<int64_t> collect_ns;
  int64_t open_span_start = -1;
  uint64_t unpaired_spans = 0;  // a Select no collection report followed

  void OpenSpan(int64_t now) {
    if (open_span_start >= 0) ++unpaired_spans;
    open_span_start = now;
  }
  void CloseSpan(int64_t now) {
    if (open_span_start < 0) return;
    collect_ns.push_back(now - open_span_start);
    open_span_start = -1;
  }
};

class TimedPolicy : public odbgc::RatePolicy {
 public:
  TimedPolicy(std::unique_ptr<odbgc::RatePolicy> inner, ReplayProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  bool ShouldCollect(const odbgc::SimClock& clock) override {
    if (!probe_->should_collect.Due()) return inner_->ShouldCollect(clock);
    const int64_t t0 = NowNs();
    const bool collect = inner_->ShouldCollect(clock);
    probe_->should_collect.Add(t0, NowNs());
    return collect;
  }
  void OnCollection(const odbgc::CollectionOutcome& outcome,
                    const odbgc::SimClock& clock) override {
    const int64_t t0 = NowNs();
    probe_->CloseSpan(t0);
    inner_->OnCollection(outcome, clock);
    probe_->policy_on_collection.Add(NowNs() - t0);
  }
  bool ShouldCollectWhenIdle(const odbgc::SimClock& clock) override {
    return inner_->ShouldCollectWhenIdle(clock);
  }
  void OnIdleCollection(const odbgc::CollectionOutcome& outcome,
                        const odbgc::SimClock& clock) override {
    const int64_t t0 = NowNs();
    probe_->CloseSpan(t0);
    inner_->OnIdleCollection(outcome, clock);
    probe_->policy_on_collection.Add(NowNs() - t0);
  }
  std::string name() const override { return inner_->name(); }
  void SetIoBudget(double io_frac) override { inner_->SetIoBudget(io_frac); }
  void SaveState(odbgc::SnapshotWriter& w) const override {
    inner_->SaveState(w);
  }
  void RestoreState(odbgc::SnapshotReader& r) override {
    inner_->RestoreState(r);
  }
  // AttachTelemetry is not virtual and so reaches only this wrapper; the
  // workloads run with in-program telemetry off.

 private:
  std::unique_ptr<odbgc::RatePolicy> inner_;
  ReplayProbe* probe_;
};

// Wraps the estimator the policy owns; Simulation gets the wrapper as
// its estimator hook, so the overwrite and collection feeds pass through
// it while the policy keeps reading the estimate directly.
class TimedEstimator : public odbgc::GarbageEstimator {
 public:
  TimedEstimator(odbgc::GarbageEstimator* inner, ReplayProbe* probe)
      : inner_(inner), probe_(probe) {}

  double Estimate() const override { return inner_->Estimate(); }
  void OnPointerOverwrite(uint32_t partition) override {
    if (!probe_->estimator_overwrite.Due()) {
      inner_->OnPointerOverwrite(partition);
      return;
    }
    const int64_t t0 = NowNs();
    inner_->OnPointerOverwrite(partition);
    probe_->estimator_overwrite.Add(t0, NowNs());
  }
  void OnCollection(const odbgc::EstimatorCollectionInfo& info) override {
    const int64_t t0 = NowNs();
    inner_->OnCollection(info);
    probe_->estimator_on_collection.Add(NowNs() - t0);
  }
  std::string name() const override { return inner_->name(); }
  void SaveState(odbgc::SnapshotWriter& w) const override {
    inner_->SaveState(w);
  }
  void RestoreState(odbgc::SnapshotReader& r) override {
    inner_->RestoreState(r);
  }

 private:
  odbgc::GarbageEstimator* inner_;  // owned by the policy
  ReplayProbe* probe_;
};

class TimedSelector : public odbgc::PartitionSelector {
 public:
  TimedSelector(std::unique_ptr<odbgc::PartitionSelector> inner,
                ReplayProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  odbgc::PartitionId Select(const odbgc::ObjectStore& store) override {
    const int64_t t0 = NowNs();
    const odbgc::PartitionId pid = inner_->Select(store);
    const int64_t t1 = NowNs();
    probe_->select.Add(t1 - t0);
    if (pid != odbgc::kInvalidPartition) probe_->OpenSpan(t1);
    return pid;
  }
  std::string name() const override { return inner_->name(); }
  void SaveState(odbgc::SnapshotWriter& w) const override {
    inner_->SaveState(w);
  }
  void RestoreState(odbgc::SnapshotReader& r) override {
    inner_->RestoreState(r);
  }

 private:
  std::unique_ptr<odbgc::PartitionSelector> inner_;
  ReplayProbe* probe_;
};

// What one traced fleet run learns about the serial drain and the
// parallel apply. MultiTenantEngine::Run alternates the two once per
// epoch; the wrapped sources find the first and the last pull of each
// epoch from ClientMux::events_drawn() and stamp them, so
//   drain  = sum over epochs of (last pull - first pull)
//   apply  = everything else of Run: the parallel apply, the epoch
//            barrier, the exchange, and the final apply and report.
struct FleetProbe {
  const odbgc::ClientMux* mux = nullptr;
  uint64_t epoch_events = 1;
  SampledTimer next;
  int64_t run_start = 0;
  int64_t first_pull = 0;
  int64_t last_pull = 0;
  uint64_t epoch = UINT64_MAX;  // index of the epoch being drained
  uint64_t epochs_seen = 0;
  int64_t drain_ns = 0;
  int64_t apply_ns = 0;
  size_t mux_bytes_max = 0;

  void Start() { run_start = NowNs(); }
  void BeginEpoch(uint64_t index) {
    // Sampled every 64 epochs: the walk over the clients is not free.
    if (index % 64 == 0 && mux_bytes_max < mux->ApproxMemoryBytes()) {
      mux_bytes_max = mux->ApproxMemoryBytes();
    }
    const int64_t now = NowNs();
    Close(now);
    ++epochs_seen;
    epoch = index;
    first_pull = now;
    last_pull = now;
  }
  void Finish() { Close(NowNs()); }

  // Books the time up to `now`: the drain of the epoch being drained and
  // the apply since its last pull, or before the first epoch the start
  // of Run.
  void Close(int64_t now) {
    if (epochs_seen == 0) {
      apply_ns += now - run_start;
      return;
    }
    drain_ns += last_pull - first_pull;
    apply_ns += now - last_pull;
  }
};

class TimedSource : public odbgc::EventSource {
 public:
  TimedSource(std::unique_ptr<odbgc::EventSource> inner, FleetProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  bool Next(odbgc::TraceEvent* out) override {
    FleetProbe& p = *probe_;
    const uint64_t drawn = p.mux->events_drawn();
    const uint64_t pos = drawn % p.epoch_events;
    if (pos == 0 && drawn / p.epoch_events != p.epoch) {
      p.BeginEpoch(drawn / p.epoch_events);
    }
    bool produced;
    if (!p.next.Due()) {
      produced = inner_->Next(out);
    } else {
      const int64_t t0 = NowNs();
      produced = inner_->Next(out);
      p.next.Add(t0, NowNs());
    }
    if (pos == p.epoch_events - 1 || !produced) p.last_pull = NowNs();
    return produced;
  }
  uint32_t max_object_id() const override { return inner_->max_object_id(); }
  size_t ApproxMemoryBytes() const override {
    return inner_->ApproxMemoryBytes();
  }

 private:
  std::unique_ptr<odbgc::EventSource> inner_;
  FleetProbe* probe_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
