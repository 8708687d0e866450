#include "core/estimator.h"

#include <cstdio>

#include "util/check.h"

namespace odbgc {

void OracleEstimator::OnPointerOverwrite(uint32_t /*partition*/) {}

void OracleEstimator::OnCollection(const EstimatorCollectionInfo& info) {
  ground_truth_ = static_cast<double>(info.ground_truth_garbage_bytes);
}

CgsHbEstimator::CgsHbEstimator(double history_factor)
    : history_factor_(history_factor) {
  ODBGC_CHECK_MSG(history_factor >= 0.0 && history_factor <= 1.0,
                  "history factor must be in [0, 1]");
}

double CgsHbEstimator::Estimate() const {
  return smoothed_reclaimed_ * static_cast<double>(partition_count_);
}

void CgsHbEstimator::OnPointerOverwrite(uint32_t /*partition*/) {}

void CgsHbEstimator::OnCollection(const EstimatorCollectionInfo& info) {
  double c = static_cast<double>(info.bytes_reclaimed);
  if (!has_history_) {
    smoothed_reclaimed_ = c;
    has_history_ = true;
  } else {
    smoothed_reclaimed_ =
        history_factor_ * smoothed_reclaimed_ + (1.0 - history_factor_) * c;
  }
  partition_count_ = info.partition_count;
}

std::string CgsHbEstimator::name() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "CGS/HB(h=%.2f)", history_factor_);
  return buf;
}

double CgsCbEstimator::Estimate() const {
  return static_cast<double>(last_reclaimed_) *
         static_cast<double>(partition_count_);
}

void CgsCbEstimator::OnPointerOverwrite(uint32_t /*partition*/) {}

void CgsCbEstimator::OnCollection(const EstimatorCollectionInfo& info) {
  last_reclaimed_ = info.bytes_reclaimed;
  partition_count_ = info.partition_count;
}

FgsHbEstimator::FgsHbEstimator(double history_factor)
    : history_factor_(history_factor) {
  ODBGC_CHECK_MSG(history_factor >= 0.0 && history_factor <= 1.0,
                  "history factor must be in [0, 1]");
}

double FgsHbEstimator::Estimate() const {
  return gppo_history_ * static_cast<double>(outstanding_overwrites_);
}

void FgsHbEstimator::OnPointerOverwrite(uint32_t partition) {
  if (partition >= per_partition_overwrites_.size()) {
    per_partition_overwrites_.resize(partition + 1, 0);
  }
  ++per_partition_overwrites_[partition];
  ++outstanding_overwrites_;
}

void FgsHbEstimator::OnCollection(const EstimatorCollectionInfo& info) {
  if (info.partition < per_partition_overwrites_.size()) {
    uint64_t po = per_partition_overwrites_[info.partition];
    ODBGC_CHECK(outstanding_overwrites_ >= po);
    outstanding_overwrites_ -= po;
    per_partition_overwrites_[info.partition] = 0;
  }
  // Behavior sample: bytes reclaimed per pointer overwrite into the
  // collected partition. A collection of a partition with no overwrites
  // carries no rate information; skip the history update.
  if (info.partition_overwrites > 0) {
    double gppo = static_cast<double>(info.bytes_reclaimed) /
                  static_cast<double>(info.partition_overwrites);
    if (!has_history_) {
      gppo_history_ = gppo;
      has_history_ = true;
    } else {
      gppo_history_ =
          history_factor_ * gppo_history_ + (1.0 - history_factor_) * gppo;
    }
  }
}

std::string FgsHbEstimator::name() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "FGS/HB(h=%.2f)", history_factor_);
  return buf;
}

std::unique_ptr<GarbageEstimator> MakeEstimator(EstimatorKind kind,
                                                double history_factor) {
  switch (kind) {
    case EstimatorKind::kOracle:
      return std::make_unique<OracleEstimator>();
    case EstimatorKind::kCgsCb:
      return std::make_unique<CgsCbEstimator>();
    case EstimatorKind::kCgsHb:
      return std::make_unique<CgsHbEstimator>(history_factor);
    case EstimatorKind::kFgsCb:
      return std::make_unique<FgsHbEstimator>(0.0);
    case EstimatorKind::kFgsHb:
      return std::make_unique<FgsHbEstimator>(history_factor);
  }
  ODBGC_CHECK_MSG(false, "unknown estimator kind");
  return nullptr;
}

}  // namespace odbgc
