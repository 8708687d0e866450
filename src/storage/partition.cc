#include "storage/partition.h"

#include "util/check.h"

namespace odbgc {

Partition::Partition(PartitionId id, uint32_t capacity_bytes)
    : id_(id), capacity_(capacity_bytes) {}

uint32_t Partition::Allocate(ObjectId obj, uint32_t size) {
  ODBGC_CHECK_MSG(Fits(size), "partition overflow");
  uint32_t offset = used_;
  used_ += size;
  objects_.push_back(obj);
  return offset;
}

void Partition::ResetAfterCollection(const std::vector<ObjectId>& survivors,
                                     uint32_t new_used) {
  ODBGC_CHECK(new_used <= capacity_);
  objects_ = survivors;
  used_ = new_used;
  ResetOverwrites();
  RecordCollection();
}

void Partition::SaveState(SnapshotWriter& w) const {
  w.U32(used_);
  w.VecU32(objects_);
  w.U64(overwrites_);
  w.U64(collections_);
  w.U64(last_collected_stamp_);
}

void Partition::RestoreState(SnapshotReader& r) {
  used_ = r.U32();
  objects_ = r.VecU32();
  overwrites_ = r.U64();
  collections_ = r.U64();
  last_collected_stamp_ = r.U64();
}

}  // namespace odbgc
