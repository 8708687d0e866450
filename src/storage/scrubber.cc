#include "storage/scrubber.h"

namespace odbgc {

ScrubReport Scrubber::ScrubQuantum(ObjectStore& store, uint32_t budget) {
  ScrubReport report;
  const size_t partition_count = store.partition_count();
  if (partition_count == 0 || budget == 0) return report;
  if (part_ >= partition_count) {
    part_ = 0;
    page_ = 0;
  }

  BufferPool& pool = store.buffer_pool();
  const size_t pending_before = pool.pending_corruption_count();
  const uint32_t page_bytes = store.config().page_bytes;
  pool.SetScrubbing(true);
  // Bound the walk: `budget` media reads plus at most one full lap of
  // partition advances (skipping empty/quarantined ones costs no budget).
  size_t advances = 0;
  while (report.pages_scrubbed < budget && advances <= partition_count) {
    const Partition& part = store.partition(part_);
    const uint32_t used_pages =
        static_cast<uint32_t>((static_cast<uint64_t>(part.used()) +
                               page_bytes - 1) /
                              page_bytes);
    if (store.IsQuarantined(part_) || page_ >= used_pages) {
      part_ = static_cast<PartitionId>((part_ + 1) % partition_count);
      page_ = 0;
      ++advances;
      continue;
    }
    pool.ReadThrough(PageId{part_, page_}, IoContext::kCollector);
    ++report.pages_scrubbed;
    ++page_;
  }
  pool.SetScrubbing(false);
  report.corruption_found =
      pool.pending_corruption_count() - pending_before;
  return report;
}

}  // namespace odbgc
