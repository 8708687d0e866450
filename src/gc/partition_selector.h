#ifndef ODBGC_GC_PARTITION_SELECTOR_H_
#define ODBGC_GC_PARTITION_SELECTOR_H_

#include <memory>
#include <string>

#include "storage/object_store.h"
#include "storage/reachability.h"
#include "storage/types.h"
#include "util/fields.h"
#include "util/random.h"
#include "util/snapshot.h"

namespace odbgc {

// Decides which partition a collection operates on (the policy area
// studied in [CWZ94]; this paper fixes UpdatedPointer and studies the
// collection *rate*, but the selection policy matters to the CGS/CB
// estimator — see Section 4.1.2 and the selection ablation bench).
//
// Quarantined partitions (ObjectStore::IsQuarantined) are never
// selected; if every partition is quarantined, Select returns
// kInvalidPartition and the caller skips the collection. With no
// quarantine in effect every selector behaves bit-for-bit as before.
class PartitionSelector {
 public:
  virtual ~PartitionSelector() = default;
  virtual PartitionId Select(const ObjectStore& store) = 0;
  virtual std::string name() const = 0;

  // Checkpoint hooks. Stateless selectors (the default) save nothing;
  // stateful ones (Random's RNG stream, RoundRobin's cursor) override.
  virtual void SaveState(SnapshotWriter& /*w*/) const {}
  virtual void RestoreState(SnapshotReader& /*r*/) {}
};

// UPDATEDPOINTER [CWZ94]: collect the partition with the most pointer
// overwrites since its last collection (overwrites correlate strongly
// with garbage). Ties break toward the least recently collected.
class UpdatedPointerSelector : public PartitionSelector {
 public:
  PartitionId Select(const ObjectStore& store) override;
  std::string name() const override { return "UpdatedPointer"; }
};

// Uniform-random selection. CGS/CB's representativeness assumption holds
// under this policy (ablation E10).
class RandomSelector : public PartitionSelector {
 public:
  explicit RandomSelector(uint64_t seed) : rng_(seed) {}
  PartitionId Select(const ObjectStore& store) override;
  std::string name() const override { return "Random"; }
  void SaveState(SnapshotWriter& w) const override { Checkpoint(w, *this); }
  void RestoreState(SnapshotReader& r) override { Checkpoint(r, *this); }

 private:
  template <class Io, class Self>
  static void Checkpoint(Io& io, Self& self) {
    Persist(io, self.rng_);
  }

  Rng rng_;
};

// Cycles through partitions in order.
class RoundRobinSelector : public PartitionSelector {
 public:
  PartitionId Select(const ObjectStore& store) override;
  std::string name() const override { return "RoundRobin"; }
  void SaveState(SnapshotWriter& w) const override { w.U32(next_); }
  void RestoreState(SnapshotReader& r) override { next_ = r.U32(); }

 private:
  PartitionId next_ = 0;
};

// Oracle: full reachability scan, collect the partition holding the most
// unreachable bytes. Impractical in a real system; used as the upper
// bound in ablations. The scan workspace persists across Select calls.
class MostGarbageOracleSelector : public PartitionSelector {
 public:
  PartitionId Select(const ObjectStore& store) override;
  std::string name() const override { return "MostGarbageOracle"; }

 private:
  ReachabilityResult scan_;
  ReachabilityScratch scratch_;
};

// Pure rotation by collection recency: always collect the partition
// whose last collection is longest ago. Unlike RoundRobin it stays fair
// as the database grows (new partitions are immediately "oldest").
class LeastRecentlyCollectedSelector : public PartitionSelector {
 public:
  PartitionId Select(const ObjectStore& store) override;
  std::string name() const override { return "LeastRecentlyCollected"; }
};

// UpdatedPointer normalized by partition fill: overwrites per used byte.
// Prefers partitions whose overwrite activity is *dense* rather than
// merely voluminous, which discounts large partitions that absorb many
// benign overwrites.
class OverwriteDensitySelector : public PartitionSelector {
 public:
  PartitionId Select(const ObjectStore& store) override;
  std::string name() const override { return "OverwriteDensity"; }
};

enum class SelectorKind {
  kUpdatedPointer,
  kRandom,
  kRoundRobin,
  kMostGarbageOracle,
  kLeastRecentlyCollected,
  kOverwriteDensity,
};

std::unique_ptr<PartitionSelector> MakeSelector(SelectorKind kind,
                                                uint64_t seed);

}  // namespace odbgc

#endif  // ODBGC_GC_PARTITION_SELECTOR_H_
