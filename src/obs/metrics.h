#ifndef ODBGC_OBS_METRICS_H_
#define ODBGC_OBS_METRICS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/fields.h"

namespace odbgc::obs {

// A monotonic counter. Instrumented code holds the Counter* obtained
// from the registry at attach time and bumps `value` directly: the hot
// path is a plain 64-bit increment — no lookup, no lock, no atomic
// (telemetry is per-Simulation, and a Simulation is single-threaded
// even inside a parallel sweep).
struct Counter {
  uint64_t value = 0;

  void Add(uint64_t n) { value += n; }
  void Increment() { ++value; }
};

// A last-value gauge (e.g. resident buffer pages, partition count).
struct Gauge {
  double value = 0.0;

  void Set(double v) { value = v; }
};

// Log-scaled histogram: one bucket per power of two (bucket 0 holds the
// value 0, bucket b >= 1 holds [2^(b-1), 2^b)). Percentiles interpolate
// linearly inside the winning bucket and are clamped to the observed
// [min, max], so exact-value distributions (all samples equal) report
// exact percentiles.
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;

  void Record(uint64_t value);

  uint64_t count() const { return count_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }
  // p in [0, 100]. Returns 0 when empty.
  double Percentile(double p) const;

  const uint64_t* buckets() const { return buckets_.data(); }

  // Folds another histogram's samples into this one (bucket-wise sum plus
  // the running stats). Used to aggregate per-shard stall histograms into
  // one fleet-wide distribution; merging preserves every per-bucket count,
  // so percentiles of the merge equal percentiles of the pooled samples
  // at this histogram's bucket resolution.
  void Merge(const Histogram& other);

  // Bit-exact serialization (buckets + running stats) for checkpointed
  // telemetry; see MetricsRegistry::SaveState.
  void SaveState(SnapshotWriter& w) const { Checkpoint(w, *this); }
  void RestoreState(SnapshotReader& r) { Checkpoint(r, *this); }

 private:
  template <class Io, class Self>
  static void Checkpoint(Io& io, Self& self) {
    Persist(io, self.buckets_, self.count_, self.sum_, self.min_, self.max_);
  }

  std::array<uint64_t, kBuckets> buckets_ = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
};

// Point-in-time copies of the registry, embedded into SimResult so that
// reports stay plain copyable data. Entries are sorted by id, making the
// snapshot — and any JSON printed from it — deterministic. Time-series
// frames checkpoint them through their field tables.
#define ODBGC_COUNTER_SNAPSHOT_FIELDS(X) \
  X(std::string, id, {})                 \
  X(uint64_t, value, 0)

struct CounterSnapshot {
  ODBGC_FIELD_TABLE(ODBGC_COUNTER_SNAPSHOT_FIELDS)
};

#define ODBGC_GAUGE_SNAPSHOT_FIELDS(X) \
  X(std::string, id, {})               \
  X(double, value, 0.0)

struct GaugeSnapshot {
  ODBGC_FIELD_TABLE(ODBGC_GAUGE_SNAPSHOT_FIELDS)
};

#define ODBGC_HISTOGRAM_SNAPSHOT_FIELDS(X) \
  X(std::string, id, {})                   \
  X(uint64_t, count, 0)                    \
  X(uint64_t, min, 0)                      \
  X(uint64_t, max, 0)                      \
  X(double, mean, 0.0)                     \
  X(double, p50, 0.0)                      \
  X(double, p95, 0.0)                      \
  X(double, p99, 0.0)

struct HistogramSnapshot {
  ODBGC_FIELD_TABLE(ODBGC_HISTOGRAM_SNAPSHOT_FIELDS)
};

#define ODBGC_TELEMETRY_SNAPSHOT_FIELDS(X)      \
  X(std::vector<CounterSnapshot>, counters, {}) \
  X(std::vector<GaugeSnapshot>, gauges, {})     \
  X(std::vector<HistogramSnapshot>, histograms, {})

struct TelemetrySnapshot {
  ODBGC_FIELD_TABLE(ODBGC_TELEMETRY_SNAPSHOT_FIELDS)

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

// Registry of named metrics. Ids are expected to be static string
// literals ("storage.page_reads.app"); registration happens once at
// attach time and returns a stable pointer, so steady-state updates
// never touch the registry again. Re-registering an id returns the
// existing instrument.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const char* id);
  Gauge* GetGauge(const char* id);
  Histogram* GetHistogram(const char* id);

  // Sorted-by-id copy of every registered instrument.
  TelemetrySnapshot Snapshot() const;

  // Checkpoint support. SaveState serializes every instrument sorted by
  // id; RestoreState re-registers each id (instruments registered before
  // the restore keep their pointers — registration only appends) and
  // overwrites its value, so a resumed run continues the original run's
  // streams bit-exactly.
  void SaveState(SnapshotWriter& w) const;
  void RestoreState(SnapshotReader& r);

 private:
  template <typename T>
  struct Entry {
    std::string id;
    std::unique_ptr<T> instrument;
  };

  template <typename T>
  static T* FindOrCreate(std::vector<Entry<T>>* entries, const char* id);

  std::vector<Entry<Counter>> counters_;
  std::vector<Entry<Gauge>> gauges_;
  std::vector<Entry<Histogram>> histograms_;
};

}  // namespace odbgc::obs

#endif  // ODBGC_OBS_METRICS_H_
