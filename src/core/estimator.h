#ifndef ODBGC_CORE_ESTIMATOR_H_
#define ODBGC_CORE_ESTIMATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/fields.h"
#include "util/snapshot.h"

namespace odbgc {

// What an estimator learns from a finished collection (Section 2.4's
// "behavior" component, plus the state inputs it needs).
struct EstimatorCollectionInfo {
  uint32_t partition = 0;
  uint64_t bytes_reclaimed = 0;  // C: bytes reclaimed by this collection
  // FGS value of the collected partition at collection time: pointer
  // overwrites accumulated there since its previous collection. The
  // collection resets it to zero.
  uint64_t partition_overwrites = 0;
  uint64_t partition_count = 0;  // p: allocated partitions (CGS)
  // Oracle instrumentation only — exact unreachable bytes after this
  // collection. Practical estimators must not read it.
  uint64_t ground_truth_garbage_bytes = 0;
};

// Estimates the amount of unreachable data in the database (ActGarb in
// Section 2.3) without scanning it. Estimators combine a *state*
// description (coarse: partition count; fine: per-partition overwrite
// counters) with a *behavior* metric derived from past collections
// (current or history-averaged) — Section 2.4's design space.
class GarbageEstimator {
 public:
  virtual ~GarbageEstimator() = default;

  // Current estimate of unreachable bytes.
  virtual double Estimate() const = 0;

  // A pointer into `partition` was overwritten (fine-grain state feed).
  virtual void OnPointerOverwrite(uint32_t partition) = 0;

  // A collection completed.
  virtual void OnCollection(const EstimatorCollectionInfo& info) = 0;

  virtual std::string name() const = 0;

  // Checkpoint hooks (sim/checkpoint.h): mutable estimation state only
  // (history factors are constructor parameters and travel with config).
  virtual void SaveState(SnapshotWriter& w) const = 0;
  virtual void RestoreState(SnapshotReader& r) = 0;
};

// Perfect estimator: returns the exact garbage content. This is the
// paper's impractical-to-implement oracle used to evaluate the SAGA
// control algorithm independent of estimation error.
class OracleEstimator : public GarbageEstimator {
 public:
  double Estimate() const override { return ground_truth_; }
  void OnPointerOverwrite(uint32_t partition) override;
  void OnCollection(const EstimatorCollectionInfo& info) override;
  std::string name() const override { return "Oracle"; }

  // The oracle may also be fed continuously (e.g. per event) by a host
  // that tracks exact garbage.
  void SetGroundTruth(double bytes) { ground_truth_ = bytes; }

  void SaveState(SnapshotWriter& w) const override { w.F64(ground_truth_); }
  void RestoreState(SnapshotReader& r) override { ground_truth_ = r.F64(); }

 private:
  double ground_truth_ = 0.0;
};

// Coarse Grain State / History Behavior: the fourth corner of Section
// 2.4's state x behavior design space. Like CGS/CB, but the bytes-
// reclaimed-per-collection behavior metric is smoothed with an
// exponential mean before being multiplied by the partition count:
//   C_h     = h * C_h + (1 - h) * C
//   ActGarb = C_h * p
// Smoothing removes CGS/CB's collection-to-collection swings but not its
// bias: under a selection policy that targets garbage-rich partitions,
// the smoothed C_h is just as unrepresentative.
class CgsHbEstimator : public GarbageEstimator {
 public:
  explicit CgsHbEstimator(double history_factor);

  double Estimate() const override;
  void OnPointerOverwrite(uint32_t partition) override;
  void OnCollection(const EstimatorCollectionInfo& info) override;
  std::string name() const override;

  double history_factor() const { return history_factor_; }
  double smoothed_reclaimed() const { return smoothed_reclaimed_; }

  void SaveState(SnapshotWriter& w) const override { Checkpoint(w, *this); }
  void RestoreState(SnapshotReader& r) override { Checkpoint(r, *this); }

 private:
  template <class Io, class Self>
  static void Checkpoint(Io& io, Self& self) {
    Persist(io, self.smoothed_reclaimed_, self.has_history_,
            self.partition_count_);
  }

  double history_factor_;
  double smoothed_reclaimed_ = 0.0;
  bool has_history_ = false;
  uint64_t partition_count_ = 0;
};

// Coarse Grain State / Current Behavior (Section 2.4.1):
//   ActGarb = C * p
// i.e. assume the bytes reclaimed from the last collected partition are
// representative of every allocated partition. Accurate only if the
// selection policy picks average partitions; under UpdatedPointer it
// grossly overestimates (Figure 6a).
class CgsCbEstimator : public GarbageEstimator {
 public:
  double Estimate() const override;
  void OnPointerOverwrite(uint32_t partition) override;
  void OnCollection(const EstimatorCollectionInfo& info) override;
  std::string name() const override { return "CGS/CB"; }

  void SaveState(SnapshotWriter& w) const override { Checkpoint(w, *this); }
  void RestoreState(SnapshotReader& r) override { Checkpoint(r, *this); }

 private:
  template <class Io, class Self>
  static void Checkpoint(Io& io, Self& self) {
    Persist(io, self.last_reclaimed_, self.partition_count_);
  }

  uint64_t last_reclaimed_ = 0;
  uint64_t partition_count_ = 0;
};

// Fine Grain State / History Behavior (Section 2.4.2):
//   GPPO_h  = h * GPPO_h + (1 - h) * GPPO        (exponential mean)
//   ActGarb = GPPO_h * sum_p PO(p)
// where GPPO is bytes reclaimed per pointer overwrite observed by the
// last collection and PO(p) counts overwrites outstanding in partition p
// (reset to 0 when p is collected). h = 0 degenerates to FGS/CB.
class FgsHbEstimator : public GarbageEstimator {
 public:
  explicit FgsHbEstimator(double history_factor);

  double Estimate() const override;
  void OnPointerOverwrite(uint32_t partition) override;
  void OnCollection(const EstimatorCollectionInfo& info) override;
  std::string name() const override;

  double history_factor() const { return history_factor_; }
  double gppo_history() const { return gppo_history_; }
  uint64_t outstanding_overwrites() const { return outstanding_overwrites_; }

  void SaveState(SnapshotWriter& w) const override { Checkpoint(w, *this); }
  void RestoreState(SnapshotReader& r) override { Checkpoint(r, *this); }

 private:
  template <class Io, class Self>
  static void Checkpoint(Io& io, Self& self) {
    Persist(io, self.gppo_history_, self.has_history_,
            self.per_partition_overwrites_, self.outstanding_overwrites_);
  }

  double history_factor_;
  double gppo_history_ = 0.0;
  bool has_history_ = false;
  std::vector<uint64_t> per_partition_overwrites_;
  uint64_t outstanding_overwrites_ = 0;
};

// The four corners of Section 2.4's design space (state: coarse/fine x
// behavior: current/history), plus the oracle. kFgsCb is FGS/HB with the
// history factor forced to 0 (the degenerate case the paper notes).
enum class EstimatorKind { kOracle, kCgsCb, kCgsHb, kFgsCb, kFgsHb };

std::unique_ptr<GarbageEstimator> MakeEstimator(EstimatorKind kind,
                                                double history_factor);

}  // namespace odbgc

#endif  // ODBGC_CORE_ESTIMATOR_H_
