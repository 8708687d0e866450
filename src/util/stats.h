#ifndef ODBGC_UTIL_STATS_H_
#define ODBGC_UTIL_STATS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace odbgc {

// Streaming mean/variance/min/max accumulator (Welford's algorithm).
class RunningStats {
 public:
  RunningStats() = default;

  void Add(double x);
  void Merge(const RunningStats& other);

  size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  // Population variance / standard deviation.
  double variance() const;
  double stddev() const;

  // Bit-exact internal state for checkpoint/restore. `min`/`max` are the
  // raw accumulators (±infinity when empty), not the clamped accessors.
  struct Raw {
    size_t count = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };
  Raw raw() const { return {count_, mean_, m2_, min_, max_}; }
  static RunningStats FromRaw(const Raw& r);

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Aggregates one scalar per run into min/mean/max across runs, mirroring
// the paper's error bars ("minimum and maximum means over the 10 runs").
struct MinMeanMax {
  double min = 0.0;
  double mean = 0.0;
  double max = 0.0;
};

MinMeanMax Summarize(const std::vector<double>& per_run_values);

// Exponentially-weighted mean: value' = h * value + (1 - h) * sample.
// This is exactly the form used by the paper for the FGS/HB history
// (Section 2.4.2) and for the SAGA slope smoothing (Section 2.3).
class ExponentialMean {
 public:
  // history_weight is the paper's `h` (or `Weight`): the fraction of the
  // previous value retained at each update. 0 = no history, 1 = frozen.
  explicit ExponentialMean(double history_weight);

  // First sample initializes the mean directly; later samples blend.
  void Add(double sample);
  void Reset();

  bool has_value() const { return has_value_; }
  double value() const { return value_; }

 private:
  double history_weight_;
  double value_ = 0.0;
  bool has_value_ = false;
};

}  // namespace odbgc

#endif  // ODBGC_UTIL_STATS_H_
