#ifndef ODBGC_CORE_ALLOC_TRIGGERED_H_
#define ODBGC_CORE_ALLOC_TRIGGERED_H_

#include <cstdint>

#include "core/rate_policy.h"

namespace odbgc {

// The allocation-clock baselines the paper contrasts itself against:
// Yong, Naughton and Yu "assume that collection is triggered either when
// free-space becomes unavailable or after a fixed amount of storage is
// allocated" — heuristics borrowed from programming-language GC, where
// allocation and garbage creation correlate. Section 2 argues they do
// NOT correlate in object databases; these policies exist so that claim
// can be measured (bench/ablation_triggers).

// "After a fixed amount of storage is allocated": collect every
// `bytes_per_collection` allocated bytes.
class AllocationRatePolicy : public RatePolicy {
 public:
  explicit AllocationRatePolicy(uint64_t bytes_per_collection);

  bool ShouldCollect(const SimClock& clock) override;
  void OnCollection(const CollectionOutcome& outcome,
                    const SimClock& clock) override;
  std::string name() const override;

  void SaveState(SnapshotWriter& w) const override { w.U64(next_threshold_); }
  void RestoreState(SnapshotReader& r) override { next_threshold_ = r.U64(); }

 private:
  // Out of line; see FixedRatePolicy::RecordDecision.
  void RecordDecision();

  uint64_t interval_;
  uint64_t next_threshold_;
};

// "When free-space becomes unavailable": collect whenever an allocation
// forced the database to grow a partition (growth is the store's
// free-space-exhausted signal, since growth never blocks — Section 3.1
// decouples the two on purpose, which is exactly what this baseline
// re-couples).
class AllocationTriggeredPolicy : public RatePolicy {
 public:
  AllocationTriggeredPolicy() = default;

  bool ShouldCollect(const SimClock& clock) override;
  void OnCollection(const CollectionOutcome& outcome,
                    const SimClock& clock) override;
  std::string name() const override { return "AllocationTriggered"; }

  void SaveState(SnapshotWriter& w) const override { w.U64(partitions_seen_); }
  void RestoreState(SnapshotReader& r) override { partitions_seen_ = r.U64(); }

 private:
  // Out of line; see FixedRatePolicy::RecordDecision.
  void RecordDecision();

  uint64_t partitions_seen_ = 0;
};

}  // namespace odbgc

#endif  // ODBGC_CORE_ALLOC_TRIGGERED_H_
