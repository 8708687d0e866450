#ifndef ODBGC_TRACE_TRACE_H_
#define ODBGC_TRACE_TRACE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/event.h"

namespace odbgc {

// Why loading a binary trace failed. Malformed files are data, not logic
// errors: the loader reports them as values and never asserts or reads
// past what the file actually holds.
enum class TraceLoadError {
  kNone = 0,         // success
  kOpenFailed,       // file could not be opened
  kTruncatedHeader,  // shorter than magic + version + count
  kBadMagic,
  kBadVersion,
  kBadEventCount,    // count field overflows the record-size math
  kTruncatedEvents,  // count promises more events than the file holds
  kBadEventKind,     // record with an out-of-range event kind
  kTrailingBytes,    // bytes past the last promised event
  kBadObjectId,      // create of id 0 (null) or UINT32_MAX (no id bound)
};

// Stable name for error messages ("bad-magic", ...).
const char* TraceLoadErrorName(TraceLoadError e);

// An application trace: a flat event sequence plus summary statistics.
class Trace {
 public:
  Trace() = default;

  void Append(const TraceEvent& e) {
    // Bookkeeping first: in this order GCC 12 at -O2 inlines Append,
    // push_back's fast path included, at the generator's hot call sites,
    // where the kind test folds away; with push_back first, each event
    // paid an out-of-line call.
    if (e.kind == EventKind::kCreate) {
      // UINT32_MAX has no bound in 32 bits: its e.a + 1 wraps to 0 and
      // leaves the bound alone (the loader and the store reject it).
      create_id_bound_ = std::max(create_id_bound_, e.a + 1);
      created_slot_total_ += e.c;
    }
    events_.push_back(e);
  }
  void Reserve(size_t n) { events_.reserve(n); }
  size_t capacity() const { return events_.capacity(); }

  // One past the largest id a create event names (0 without creates),
  // and the pointer slots of every create summed: the sizes a replay
  // from the first event grows the store's id-indexed arrays and its
  // slot arena to (ObjectStore::Reserve).
  uint32_t create_id_bound() const { return create_id_bound_; }
  uint64_t created_slot_total() const { return created_slot_total_; }

  const std::vector<TraceEvent>& events() const { return events_; }
  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  const TraceEvent& operator[](size_t i) const { return events_[i]; }

  // Summary counters (computed on demand).
  struct Summary {
    uint64_t creates = 0;
    uint64_t reads = 0;
    uint64_t updates = 0;
    uint64_t write_refs = 0;
    uint64_t garbage_marks = 0;
    uint64_t ground_truth_garbage_bytes = 0;
    uint64_t ground_truth_garbage_objects = 0;
    uint64_t created_bytes = 0;
    uint64_t created_objects = 0;
  };
  Summary Summarize() const;

  // Binary round-trip. Format: magic, version, count, then packed events.
  // Returns false on I/O or format errors.
  bool SaveTo(const std::string& path) const;

  // Typed loader: every field is bounds-checked against the file's real
  // size before any allocation sized from it (a corrupt count field must
  // not drive a multi-gigabyte reserve), a create of an id the store
  // cannot index is rejected, and a malformed file leaves *out empty.
  // Returns kNone on success.
  static TraceLoadError Load(const std::string& path, Trace* out);

 private:
  std::vector<TraceEvent> events_;
  uint32_t create_id_bound_ = 0;
  uint64_t created_slot_total_ = 0;
};

}  // namespace odbgc

#endif  // ODBGC_TRACE_TRACE_H_
