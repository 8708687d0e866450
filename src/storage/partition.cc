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

}  // namespace odbgc
