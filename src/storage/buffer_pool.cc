#include "storage/buffer_pool.h"

#include <algorithm>

#include "util/check.h"

namespace odbgc {

const char* CorruptionKindName(CorruptionKind kind) {
  switch (kind) {
    case CorruptionKind::kChecksum:
      return "checksum";
    case CorruptionKind::kDeviceFault:
      return "device-fault";
    case CorruptionKind::kScrub:
      return "scrub";
  }
  return "unknown";
}

BufferPool::BufferPool(uint32_t frame_count,
                       uint32_t pages_per_partition_hint)
    : frame_count_(frame_count), pages_hint_(pages_per_partition_hint) {
  ODBGC_CHECK(frame_count > 0);
  frames_.resize(frame_count);
  ResetFreeList();
}

void BufferPool::ResetFreeList() {
  for (uint32_t i = 0; i < frame_count_; ++i) {
    frames_[i].next = i + 1 < frame_count_ ? static_cast<int32_t>(i + 1)
                                           : kNoFrame;
    frames_[i].prev = kNoFrame;
  }
  free_head_ = 0;
  lru_head_ = kNoFrame;
  lru_tail_ = kNoFrame;
  resident_ = 0;
}

void BufferPool::AttachTelemetry(obs::Telemetry* telemetry) {
  tel_ = telemetry;
  if (tel_ == nullptr) return;
  tel_evictions_ = tel_->metrics().GetCounter("storage.buffer.evictions");
  tel_retry_stall_ = tel_->metrics().GetHistogram("stall.fault_retry_io");
}

void BufferPool::RecordTransfer(PageId page, IoContext ctx, bool is_write) {
  const bool app = ctx == IoContext::kApplication;
  uint64_t& counter = is_write ? (app ? stats_.app_writes : stats_.gc_writes)
                               : (app ? stats_.app_reads : stats_.gc_reads);
  ++counter;
  if (disk_ != nullptr) disk_->OnTransfer(page, ctx);
  ODBGC_IF_TEL(tel_) {
    tel_->Advance();  // one logical microsecond per physical transfer
    if (tel_->page_events()) {
      tel_->Instant(is_write ? "page_write" : "page_read",
                    {{"partition", page.partition},
                     {"page", page.page_index},
                     {"ctx", app ? "app" : "gc"}});
    }
  }
  if (fault_ == nullptr) return;

  FaultOutcome outcome =
      is_write ? fault_->OnWrite(page) : fault_->OnRead(page);
  if (outcome.retries > 0) {
    // Each retry is a real transfer: charge the issuing context's main
    // counter (the policies' I/O clocks must see the cost) and the retry
    // breakout, plus exponential backoff in the disk-time model.
    counter += outcome.retries;
    (app ? stats_.app_retries : stats_.gc_retries) += outcome.retries;
    if (disk_ != nullptr) {
      double backoff = fault_->plan().retry_backoff_ms;
      for (uint32_t i = 0; i < outcome.retries; ++i) {
        disk_->OnTransfer(page, ctx);
        disk_->AddDelay(ctx, backoff);
        backoff *= 2.0;
      }
    }
  }
  if (outcome.permanent) {
    ++(is_write ? stats_.write_failures : stats_.read_failures);
  }
  if (outcome.torn) ++stats_.torn_writes;
  if (outcome.repaired_tear) {
    // The read detected a torn page: rewrite it from redundancy. The
    // repair write is charged to the reader but not re-faulted.
    ++stats_.torn_repairs;
    ++(app ? stats_.app_writes : stats_.gc_writes);
    if (disk_ != nullptr) disk_->OnTransfer(page, ctx);
  }
  if (outcome.bitflipped) ++stats_.bitflips;
  if (outcome.decay_armed) ++stats_.decays_armed;
  if (outcome.corrupt) {
    // Page CRC mismatch. There is no in-page redundancy to rewrite from,
    // so unlike a tear this is not absorbed here: the detection is queued
    // for the simulation to quarantine the partition and run repair.
    ++stats_.checksum_failures;
    pending_corruption_.push_back(
        {page, scrubbing_ ? CorruptionKind::kScrub
                          : CorruptionKind::kChecksum});
  }
  if (outcome.dead) {
    ++stats_.device_faults;
    pending_corruption_.push_back({page, CorruptionKind::kDeviceFault});
  }
  ODBGC_IF_TEL(tel_) {
    if (outcome.retries > 0) {
      tel_->Advance(outcome.retries);  // retries are real transfers
      if (app) tel_retry_stall_->Record(outcome.retries);
      tel_->Instant("fault_retry", {{"partition", page.partition},
                                    {"page", page.page_index},
                                    {"retries", outcome.retries},
                                    {"permanent", outcome.permanent ? 1 : 0}});
    }
    if (outcome.repaired_tear) tel_->Advance();  // the repair write
  }
}

int32_t BufferPool::Lookup(PageId page) const {
  if (page.partition >= table_partitions_ || page.page_index >= row_stride_) {
    return kNoFrame;
  }
  return table_[static_cast<size_t>(page.partition) * row_stride_ +
                page.page_index];
}

void BufferPool::GrowTable(PageId page) {
  uint32_t new_stride = row_stride_;
  if (page.page_index >= new_stride) {
    new_stride = page.page_index + 1;
    if (new_stride < pages_hint_) new_stride = pages_hint_;
    if (new_stride < row_stride_ * 2) new_stride = row_stride_ * 2;
  }
  uint32_t new_parts = table_partitions_;
  if (page.partition >= new_parts) new_parts = page.partition + 1;
  if (new_stride != row_stride_) {
    std::vector<int32_t> grown(static_cast<size_t>(new_parts) * new_stride,
                               kNoFrame);
    for (uint32_t p = 0; p < table_partitions_; ++p) {
      std::copy_n(table_.begin() + static_cast<size_t>(p) * row_stride_,
                  row_stride_,
                  grown.begin() + static_cast<size_t>(p) * new_stride);
    }
    table_ = std::move(grown);
    row_stride_ = new_stride;
  } else if (new_parts != table_partitions_) {
    table_.resize(static_cast<size_t>(new_parts) * row_stride_, kNoFrame);
  }
  table_partitions_ = new_parts;
}

void BufferPool::ReleaseFrame(int32_t f) {
  ClearSlot(frames_[f].page);
  Unlink(f);
  frames_[f].next = free_head_;
  frames_[f].prev = kNoFrame;
  free_head_ = f;
  --resident_;
}

void BufferPool::DropPartitionTail(PartitionId partition,
                                   uint32_t first_dropped) {
  for (int32_t f = lru_head_; f != kNoFrame;) {
    const int32_t next = frames_[f].next;
    if (frames_[f].page.partition == partition &&
        frames_[f].page.page_index >= first_dropped) {
      ReleaseFrame(f);
    }
    f = next;
  }
  // The tail's media content is discarded along with the frames: pending
  // tears / corruption / decay on those pages are moot now.
  if (fault_ != nullptr) fault_->ForgetTail(partition, first_dropped);
}

void BufferPool::FlushPartition(PartitionId partition, IoContext ctx) {
  // MRU -> LRU order (matters: the disk model's sequential/random
  // classification depends on transfer order).
  for (int32_t f = lru_head_; f != kNoFrame; f = frames_[f].next) {
    if (frames_[f].dirty && frames_[f].page.partition == partition) {
      CountWrite(frames_[f].page, ctx);
      frames_[f].dirty = false;
    }
  }
}

void BufferPool::SaveState(SnapshotWriter& w) const {
  // Resident pages, MRU -> LRU.
  w.U64(resident_);
  for (int32_t f = lru_head_; f != kNoFrame; f = frames_[f].next) {
    SaveField(w, frames_[f].page);
    w.Bool(frames_[f].dirty);
  }
  Checkpoint(w, *this);
}

void BufferPool::RestoreState(SnapshotReader& r, uint32_t partition_count) {
  // Drop whatever the fresh pool holds, then rebuild the LRU list by
  // inserting the saved pages LRU-first: after the loop the head/tail
  // order matches the checkpointed pool exactly.
  ResetFreeList();
  std::fill(table_.begin(), table_.end(), kNoFrame);
  const uint64_t n = r.U64();
  if (!r.ok()) return;
  if (n > frame_count_) {
    r.MarkMalformed("buffer pool resident count exceeds its frames");
    return;
  }
  std::vector<Frame> saved(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    LoadField(r, saved[i].page);
    saved[i].dirty = r.Bool();
  }
  if (!r.ok()) return;
  // The table is sized from these ids, so each must index inside it: a
  // partition the store restored and a page inside a partition (this
  // also excludes kMetaPageIndex, which would wrap the row width).
  for (const Frame& f : saved) {
    if (f.page.partition >= partition_count ||
        f.page.page_index >= pages_hint_) {
      r.MarkMalformed("buffer pool resident page outside the store");
      return;
    }
  }
  for (size_t i = saved.size(); i-- > 0;) {
    if (Lookup(saved[i].page) != kNoFrame) {
      r.MarkMalformed("buffer pool resident page listed twice");
      return;
    }
    const int32_t fresh = free_head_;
    free_head_ = frames_[fresh].next;
    frames_[fresh].page = saved[i].page;
    frames_[fresh].dirty = saved[i].dirty;
    PushFront(fresh);
    SetSlot(saved[i].page, fresh);
    ++resident_;
  }
  Checkpoint(r, *this);
}

size_t BufferPool::DiscardAll() {
  size_t dirty = 0;
  for (int32_t f = lru_head_; f != kNoFrame; f = frames_[f].next) {
    if (frames_[f].dirty) ++dirty;
    ClearSlot(frames_[f].page);
  }
  ResetFreeList();
  return dirty;
}

}  // namespace odbgc
