#ifndef ODBGC_WORKLOADS_STREAMING_H_
#define ODBGC_WORKLOADS_STREAMING_H_

#include <cstdint>
#include <vector>

#include "trace/event_source.h"
#include "util/random.h"

namespace odbgc {

// Streaming synthetic clients: the generator equivalents of
// workloads/synthetic.cc that emit events on demand through the
// EventSource interface instead of materializing a trace. State is the
// shadow live set only (a few bounded lists plus a small pending-event
// buffer), so ten thousand concurrent clients cost O(clients) memory no
// matter how many events each will ever produce — the property the
// multi-tenant engine's 10,000-client sweeps depend on. OCB-style
// parameterization (PAPERS.md): each client is a fresh parameter vector,
// not a stored trace.

// One churn client: `list_count` linked lists under one root; every
// cycle head-inserts a node into one list (round-robin), trims a random
// list back to `target_length` when it overflows (creating garbage with
// an exact kGarbageMark annotation), and walks `read_factor` random
// prefixes. Object ids are consumed densely: exactly one node per
// cycle, so max_object_id is 1 + cycles regardless of the seed —
// events scale with read_factor while the id space (and thus per-shard
// store memory) does not.
struct StreamingChurnOptions {
  uint64_t seed = 1;
  uint64_t cycles = 1000;
  uint32_t list_count = 4;
  uint32_t target_length = 24;
  uint32_t node_bytes = 256;
  // Extra read walks per cycle (8 reads each): event volume without id
  // growth.
  uint32_t read_factor = 1;
};

class StreamingChurnSource : public EventSource {
 public:
  explicit StreamingChurnSource(const StreamingChurnOptions& options);

  bool Next(TraceEvent* out) override;
  uint32_t max_object_id() const override {
    // Root (id 1) plus one node per cycle.
    return static_cast<uint32_t>(1 + options_.cycles);
  }
  size_t ApproxMemoryBytes() const override;

 private:
  // Emits one cycle's events into pending_.
  void GenerateCycle();
  void Append(uint32_t li);
  void TrimTail(uint32_t li);
  void WalkPrefix(uint32_t li, size_t depth);

  StreamingChurnOptions options_;
  Rng rng_;
  uint64_t cycle_ = 0;
  uint32_t next_id_ = 1;
  uint32_t root_ = 0;
  // Each list's node ids, oldest (tail) first: the head is back(),
  // append is push_back and a trim erases the front.
  std::vector<std::vector<uint32_t>> lists_;
  // The current cycle's events; Next() reads them at head_ and the next
  // cycle reuses the buffer once all are read.
  std::vector<TraceEvent> pending_;
  size_t head_ = 0;
};

}  // namespace odbgc

#endif  // ODBGC_WORKLOADS_STREAMING_H_
