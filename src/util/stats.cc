#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace odbgc {

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  double delta = other.mean_ - mean_;
  size_t total = count_ + other.count_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) /
                         static_cast<double>(total);
  mean_ += delta * static_cast<double>(other.count_) /
           static_cast<double>(total);
  count_ = total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (count_ == 0) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

RunningStats RunningStats::FromRaw(const Raw& r) {
  RunningStats s;
  s.count_ = r.count;
  s.mean_ = r.mean;
  s.m2_ = r.m2;
  s.min_ = r.min;
  s.max_ = r.max;
  return s;
}

MinMeanMax Summarize(const std::vector<double>& per_run_values) {
  MinMeanMax out;
  if (per_run_values.empty()) return out;
  RunningStats s;
  for (double v : per_run_values) s.Add(v);
  out.min = s.min();
  out.mean = s.mean();
  out.max = s.max();
  return out;
}

ExponentialMean::ExponentialMean(double history_weight)
    : history_weight_(history_weight) {
  ODBGC_CHECK(history_weight >= 0.0 && history_weight <= 1.0);
}

void ExponentialMean::Add(double sample) {
  if (!has_value_) {
    value_ = sample;
    has_value_ = true;
    return;
  }
  value_ = history_weight_ * value_ + (1.0 - history_weight_) * sample;
}

void ExponentialMean::Reset() {
  value_ = 0.0;
  has_value_ = false;
}

}  // namespace odbgc
