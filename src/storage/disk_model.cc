#include "storage/disk_model.h"

#include "util/check.h"

namespace odbgc {

DiskModel::DiskModel(const DiskParams& params, uint32_t page_bytes,
                     uint32_t pages_per_partition)
    : params_(params), pages_per_partition_(pages_per_partition) {
  ODBGC_CHECK(params.transfer_mb_per_s > 0.0);
  ODBGC_CHECK(pages_per_partition > 0);
  transfer_ms_ = static_cast<double>(page_bytes) /
                 (params.transfer_mb_per_s * 1.0e6) * 1.0e3;
}

void DiskModel::OnTransfer(PageId page, IoContext ctx) {
  uint64_t lba = static_cast<uint64_t>(page.partition) *
                     pages_per_partition_ +
                 page.page_index;
  bool sequential = has_last_ && lba == last_lba_ + 1;
  last_lba_ = lba;
  has_last_ = true;

  double ms = transfer_ms_;
  if (sequential) {
    ++sequential_;
  } else {
    ++random_;
    ms += params_.seek_ms + params_.rotational_ms;
  }
  if (ctx == IoContext::kApplication) {
    app_ms_ += ms;
  } else {
    gc_ms_ += ms;
  }
}

void DiskModel::AddDelay(IoContext ctx, double ms) {
  if (ctx == IoContext::kApplication) {
    app_ms_ += ms;
  } else {
    gc_ms_ += ms;
  }
}

}  // namespace odbgc
