#include "storage/fault_injector.h"

namespace odbgc {

const char* CrashPointName(CrashPoint p) {
  switch (p) {
    case CrashPoint::kNone:
      return "none";
    case CrashPoint::kAfterCopy:
      return "after-copy";
    case CrashPoint::kBeforeFlip:
      return "before-flip";
    case CrashPoint::kMidRememberedSet:
      return "mid-remembered-set";
  }
  return "unknown";
}

FaultInjector::FaultInjector(const FaultPlan& plan, uint64_t seed)
    : plan_(plan), rng_(seed) {}

FaultOutcome FaultInjector::Attempt(double prob) {
  FaultOutcome o;
  if (prob <= 0.0) return o;
  for (uint32_t attempt = 0; attempt <= plan_.max_retries; ++attempt) {
    if (!rng_.NextBool(prob)) return o;  // this attempt succeeded
    if (attempt == plan_.max_retries) {
      o.permanent = true;  // retries exhausted
    } else {
      ++o.retries;
    }
  }
  return o;
}

FaultOutcome FaultInjector::OnRead(PageId page) {
  ++transfers_;
  if (page_dead(page)) {
    FaultOutcome o;
    o.dead = true;
    return o;
  }
  FaultOutcome o = Attempt(plan_.read_fault_prob);
  if (!o.permanent) {
    auto it = torn_.find(page);
    if (it != torn_.end()) {
      // The read detects the tear (checksum mismatch); the caller must
      // rewrite the page from redundancy.
      o.repaired_tear = true;
      torn_.erase(it);
    }
    // Weak sectors rot on their own clock: the decay becomes a real
    // checksum mismatch once enough transfers have passed.
    auto decay = decaying_.find(page);
    if (decay != decaying_.end() && decay->second <= transfers_) {
      corrupt_.insert(page);
      decaying_.erase(decay);
    }
    if (corrupt_.count(page) != 0) {
      // Checksum mismatch: the page image is garbage. Unlike a tear
      // there is no in-page redundancy to rewrite from; the page stays
      // corrupt until repair reconstructs it from the primary copy.
      o.corrupt = true;
    }
  }
  return o;
}

FaultOutcome FaultInjector::OnWrite(PageId page) {
  ++transfers_;
  if (page_dead(page)) {
    FaultOutcome o;
    o.dead = true;
    return o;
  }
  FaultOutcome o = Attempt(plan_.write_fault_prob);
  if (o.permanent) return o;  // nothing reached the platter
  if (plan_.torn_write_prob > 0.0 && rng_.NextBool(plan_.torn_write_prob)) {
    o.torn = true;
    torn_.insert(page);
  } else {
    // A clean rewrite replaces any earlier torn image of the page.
    torn_.erase(page);
  }
  // A completed write lays down a fresh image, superseding any earlier
  // corruption or pending decay of the old one...
  corrupt_.erase(page);
  decaying_.erase(page);
  // ...and then rolls its own dice. Draw order is fixed (bit-flip, decay,
  // dead page, dead partition) and every draw is gated on its knob so
  // zero-probability kinds consume no randomness.
  if (plan_.bitflip_prob > 0.0 && rng_.NextBool(plan_.bitflip_prob)) {
    o.bitflipped = true;
    corrupt_.insert(page);
  }
  if (plan_.decay_prob > 0.0 && rng_.NextBool(plan_.decay_prob)) {
    o.decay_armed = true;
    decaying_[page] = transfers_ + plan_.decay_latency;
  }
  if (plan_.dead_page_prob > 0.0 && rng_.NextBool(plan_.dead_page_prob)) {
    // The location failed as the write landed: the write is lost and the
    // page (possibly the whole partition's device) is dead from now on.
    o.dead = true;
    dead_pages_.insert(page);
    if (plan_.dead_partition_prob > 0.0 &&
        rng_.NextBool(plan_.dead_partition_prob)) {
      dead_partitions_.insert(page.partition);
    }
  }
  return o;
}

void FaultInjector::HealPartition(PartitionId p) {
  for (auto it = torn_.begin(); it != torn_.end();) {
    it = it->partition == p ? torn_.erase(it) : std::next(it);
  }
  for (auto it = corrupt_.begin(); it != corrupt_.end();) {
    it = it->partition == p ? corrupt_.erase(it) : std::next(it);
  }
  for (auto it = decaying_.begin(); it != decaying_.end();) {
    it = it->first.partition == p ? decaying_.erase(it) : std::next(it);
  }
  for (auto it = dead_pages_.begin(); it != dead_pages_.end();) {
    it = it->partition == p ? dead_pages_.erase(it) : std::next(it);
  }
  dead_partitions_.erase(p);
}

void FaultInjector::ForgetTail(PartitionId p, uint32_t first_page) {
  for (auto it = torn_.begin(); it != torn_.end();) {
    const bool drop = it->partition == p && it->page_index >= first_page &&
                      it->page_index != kMetaPageIndex;
    it = drop ? torn_.erase(it) : std::next(it);
  }
  for (auto it = corrupt_.begin(); it != corrupt_.end();) {
    const bool drop = it->partition == p && it->page_index >= first_page &&
                      it->page_index != kMetaPageIndex;
    it = drop ? corrupt_.erase(it) : std::next(it);
  }
  for (auto it = decaying_.begin(); it != decaying_.end();) {
    const bool drop = it->first.partition == p &&
                      it->first.page_index >= first_page &&
                      it->first.page_index != kMetaPageIndex;
    it = drop ? decaying_.erase(it) : std::next(it);
  }
}

}  // namespace odbgc
