#include "obs/metrics.h"

#include <algorithm>
#include <bit>

#include "util/snapshot.h"

namespace odbgc::obs {

namespace {

// Lower bound of bucket b: 0, 1, 2, 4, 8, ...
double BucketLow(size_t b) {
  if (b == 0) return 0.0;
  return static_cast<double>(uint64_t{1} << (b - 1));
}

// Exclusive upper bound of bucket b: 1, 2, 4, 8, ... (bucket 64 would
// overflow a shift; its bound is 2^64).
double BucketHigh(size_t b) {
  if (b == 0) return 1.0;
  if (b >= 64) return 18446744073709551616.0;  // 2^64
  return static_cast<double>(uint64_t{1} << b);
}

}  // namespace

void Histogram::Record(uint64_t value) {
  size_t bucket = value == 0 ? 0 : static_cast<size_t>(std::bit_width(value));
  ++buckets_[bucket];
  ++count_;
  sum_ += value;
  if (value < min_) min_ = value;
  if (value > max_) max_ = value;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  for (size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  if (p <= 0.0) return static_cast<double>(min());
  if (p >= 100.0) return static_cast<double>(max_);
  // Rank of the requested percentile (1-based, nearest-rank with
  // interpolation inside the bucket).
  const double rank = p / 100.0 * static_cast<double>(count_);
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    const double before = static_cast<double>(seen);
    seen += buckets_[b];
    if (static_cast<double>(seen) < rank) continue;
    // Linear interpolation across the bucket's value range.
    const double frac =
        (rank - before) / static_cast<double>(buckets_[b]);
    double v = BucketLow(b) + frac * (BucketHigh(b) - BucketLow(b));
    // Clamp to the observed extremes so degenerate distributions
    // (single value, narrow range) report exact results.
    v = std::max(v, static_cast<double>(min()));
    v = std::min(v, static_cast<double>(max_));
    return v;
  }
  return static_cast<double>(max_);
}

template <typename T>
T* MetricsRegistry::FindOrCreate(std::vector<Entry<T>>* entries,
                                 const char* id) {
  for (Entry<T>& e : *entries) {
    if (e.id == id) return e.instrument.get();
  }
  entries->push_back(Entry<T>{id, std::make_unique<T>()});
  return entries->back().instrument.get();
}

Counter* MetricsRegistry::GetCounter(const char* id) {
  return FindOrCreate(&counters_, id);
}

Gauge* MetricsRegistry::GetGauge(const char* id) {
  return FindOrCreate(&gauges_, id);
}

Histogram* MetricsRegistry::GetHistogram(const char* id) {
  return FindOrCreate(&histograms_, id);
}

TelemetrySnapshot MetricsRegistry::Snapshot() const {
  TelemetrySnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const Entry<Counter>& e : counters_) {
    snap.counters.push_back(CounterSnapshot{e.id, e.instrument->value});
  }
  snap.gauges.reserve(gauges_.size());
  for (const Entry<Gauge>& e : gauges_) {
    snap.gauges.push_back(GaugeSnapshot{e.id, e.instrument->value});
  }
  snap.histograms.reserve(histograms_.size());
  for (const Entry<Histogram>& e : histograms_) {
    const Histogram& h = *e.instrument;
    snap.histograms.push_back(HistogramSnapshot{
        e.id, h.count(), h.min(), h.max(), h.mean(), h.Percentile(50.0),
        h.Percentile(95.0), h.Percentile(99.0)});
  }
  auto by_id = [](const auto& a, const auto& b) { return a.id < b.id; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_id);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_id);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_id);
  return snap;
}

void MetricsRegistry::SaveState(SnapshotWriter& w) const {
  // Serialize in sorted-id order so the stream does not depend on
  // registration order (lazy registration can differ between an original
  // and a resumed process; Snapshot() sorts anyway).
  auto sorted_ids = [](const auto& entries) {
    std::vector<const std::string*> ids;
    ids.reserve(entries.size());
    for (const auto& e : entries) ids.push_back(&e.id);
    std::sort(ids.begin(), ids.end(),
              [](const std::string* a, const std::string* b) {
                return *a < *b;
              });
    return ids;
  };
  w.Tag("MET0");
  w.U64(counters_.size());
  for (const std::string* id : sorted_ids(counters_)) {
    w.Str(*id);
    for (const Entry<Counter>& e : counters_) {
      if (e.id == *id) w.U64(e.instrument->value);
    }
  }
  w.U64(gauges_.size());
  for (const std::string* id : sorted_ids(gauges_)) {
    w.Str(*id);
    for (const Entry<Gauge>& e : gauges_) {
      if (e.id == *id) w.F64(e.instrument->value);
    }
  }
  w.U64(histograms_.size());
  for (const std::string* id : sorted_ids(histograms_)) {
    w.Str(*id);
    for (const Entry<Histogram>& e : histograms_) {
      if (e.id == *id) e.instrument->SaveState(w);
    }
  }
  w.Tag("METE");
}

void MetricsRegistry::RestoreState(SnapshotReader& r) {
  r.Tag("MET0");
  const uint64_t nc = r.U64();
  for (uint64_t i = 0; i < nc && r.ok(); ++i) {
    const std::string id = r.Str();
    GetCounter(id.c_str())->value = r.U64();
  }
  const uint64_t ng = r.U64();
  for (uint64_t i = 0; i < ng && r.ok(); ++i) {
    const std::string id = r.Str();
    GetGauge(id.c_str())->value = r.F64();
  }
  const uint64_t nh = r.U64();
  for (uint64_t i = 0; i < nh && r.ok(); ++i) {
    const std::string id = r.Str();
    GetHistogram(id.c_str())->RestoreState(r);
  }
  r.Tag("METE");
}

}  // namespace odbgc::obs
