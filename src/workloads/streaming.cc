#include "workloads/streaming.h"

#include <algorithm>

#include "storage/types.h"
#include "util/check.h"

namespace odbgc {

StreamingChurnSource::StreamingChurnSource(
    const StreamingChurnOptions& options)
    : options_(options), rng_(options.seed), lists_(options.list_count) {
  ODBGC_CHECK(options.list_count > 0 && options.target_length > 0);
  root_ = next_id_++;
  pending_.push_back(CreateEvent(root_, 64, options_.list_count));
  pending_.push_back(AddRootEvent(root_));
}

bool StreamingChurnSource::Next(TraceEvent* out) {
  while (head_ == pending_.size()) {
    if (cycle_ >= options_.cycles) return false;
    pending_.clear();
    head_ = 0;
    GenerateCycle();
  }
  *out = pending_[head_++];
  return true;
}

size_t StreamingChurnSource::ApproxMemoryBytes() const {
  size_t bytes = sizeof(*this);
  for (const std::vector<uint32_t>& l : lists_) {
    bytes += l.capacity() * sizeof(uint32_t);
  }
  bytes += (pending_.size() - head_) * sizeof(TraceEvent);  // unread only
  return bytes;
}

void StreamingChurnSource::GenerateCycle() {
  const uint32_t lists = options_.list_count;
  Append(static_cast<uint32_t>(cycle_) % lists);
  uint32_t trim_list = static_cast<uint32_t>(rng_.NextBelow(lists));
  if (lists_[trim_list].size() > options_.target_length) {
    TrimTail(trim_list);
  }
  for (uint32_t r = 0; r < options_.read_factor; ++r) {
    WalkPrefix(static_cast<uint32_t>(rng_.NextBelow(lists)), 8);
  }
  ++cycle_;
}

// The three primitives mirror workloads/synthetic.cc's ListWorld exactly
// (same events, same ground-truth marks); they differ only in emitting
// into the pending buffer instead of a trace, and in keeping each list
// oldest first in a vector instead of head first in a deque.

void StreamingChurnSource::Append(uint32_t li) {
  uint32_t node = next_id_++;
  pending_.push_back(CreateEvent(node, options_.node_bytes, 1));
  uint32_t old_head = lists_[li].empty() ? 0u : lists_[li].back();
  pending_.push_back(WriteRefEvent(node, 0, old_head));
  pending_.push_back(WriteRefEvent(root_, li, node));
  lists_[li].push_back(node);
}

void StreamingChurnSource::TrimTail(uint32_t li) {
  std::vector<uint32_t>& list = lists_[li];
  ODBGC_CHECK(!list.empty());
  // Walk head to tail, unlink the tail from its successor toward the
  // head (or from the root), then drop it.
  for (auto it = list.rbegin(); it != list.rend(); ++it) {
    pending_.push_back(ReadEvent(*it));
  }
  if (list.size() == 1) {
    pending_.push_back(WriteRefEvent(root_, li, 0));
  } else {
    pending_.push_back(WriteRefEvent(list[1], 0, 0));
  }
  pending_.push_back(GarbageMarkEvent(options_.node_bytes, 1));
  list.erase(list.begin());
}

void StreamingChurnSource::WalkPrefix(uint32_t li, size_t depth) {
  const std::vector<uint32_t>& list = lists_[li];
  size_t n = std::min(depth, list.size());
  for (size_t i = 1; i <= n; ++i) {
    pending_.push_back(ReadEvent(list[list.size() - i]));
  }
}

}  // namespace odbgc
