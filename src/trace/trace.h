#ifndef ODBGC_TRACE_TRACE_H_
#define ODBGC_TRACE_TRACE_H_

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
};

// Stable name for error messages ("bad-magic", ...).
const char* TraceLoadErrorName(TraceLoadError e);

// An application trace: a flat event sequence plus summary statistics.
class Trace {
 public:
  Trace() = default;

  void Append(const TraceEvent& e) { events_.push_back(e); }
  void Reserve(size_t n) { events_.reserve(n); }
  size_t capacity() const { return events_.capacity(); }

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
  // not drive a multi-gigabyte reserve), and a malformed file leaves
  // *out empty. Returns kNone on success.
  static TraceLoadError Load(const std::string& path, Trace* out);
  // Legacy boolean wrapper around Load().
  static bool LoadFrom(const std::string& path, Trace* out);

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace odbgc

#endif  // ODBGC_TRACE_TRACE_H_
