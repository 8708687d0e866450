#ifndef ODBGC_STORAGE_PARTITION_H_
#define ODBGC_STORAGE_PARTITION_H_

#include <cstdint>
#include <vector>

#include "storage/types.h"
#include "util/fields.h"
#include "util/snapshot.h"

namespace odbgc {

// One database partition: a fixed-size disk region that is the unit of
// garbage collection. Objects are bump-allocated; a collection compacts
// the survivors back to offset 0.
class Partition {
 public:
  Partition(PartitionId id, uint32_t capacity_bytes);

  PartitionId id() const { return id_; }
  uint32_t capacity() const { return capacity_; }
  uint32_t used() const { return used_; }
  uint32_t free_bytes() const { return capacity_ - used_; }

  bool Fits(uint32_t size) const { return size <= free_bytes(); }

  // Bump-allocates `size` bytes for `obj`; returns the byte offset.
  uint32_t Allocate(ObjectId obj, uint32_t size);

  // Replaces the resident-object list and used size after a compaction.
  // Takes the survivor list by const reference and copy-assigns so the
  // partition's own list keeps its capacity (the collector reuses one
  // scratch copy-order buffer across collections).
  void ResetAfterCollection(const std::vector<ObjectId>& survivors,
                            uint32_t new_used);

  const std::vector<ObjectId>& objects() const { return objects_; }

  // Pointer-overwrite counter: the fine-grain state (FGS) of Section 2.4
  // and the input of the UpdatedPointer selection policy. Incremented when
  // a pointer *into* this partition is overwritten; reset to 0 by a
  // collection of this partition.
  uint64_t overwrites() const { return overwrites_; }
  void RecordOverwrite() { ++overwrites_; }
  void ResetOverwrites() { overwrites_ = 0; }

  uint64_t collections() const { return collections_; }
  void RecordCollection() { ++collections_; }

  // Monotonic stamp of the last collection (or 0), used by selectors to
  // break ties toward the least recently collected partition.
  uint64_t last_collected_stamp() const { return last_collected_stamp_; }
  void set_last_collected_stamp(uint64_t s) { last_collected_stamp_ = s; }

  // Checkpoint hooks. id and capacity are structural (reconstructed by
  // the store from config); only the mutable state travels.
  void SaveState(SnapshotWriter& w) const { Checkpoint(w, *this); }
  void RestoreState(SnapshotReader& r) { Checkpoint(r, *this); }

 private:
  template <class Io, class Self>
  static void Checkpoint(Io& io, Self& self) {
    Persist(io, self.used_, self.objects_, self.overwrites_, self.collections_,
            self.last_collected_stamp_);
  }

  PartitionId id_;
  uint32_t capacity_;
  uint32_t used_ = 0;
  std::vector<ObjectId> objects_;
  uint64_t overwrites_ = 0;
  uint64_t collections_ = 0;
  uint64_t last_collected_stamp_ = 0;
};

}  // namespace odbgc

#endif  // ODBGC_STORAGE_PARTITION_H_
