#ifndef ODBGC_OBS_TRACE_RECORDER_H_
#define ODBGC_OBS_TRACE_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace odbgc::obs {

// One typed argument of a trace event. Keys and the names of events are
// expected to be static string literals; string *values* are owned.
struct TraceArg {
  enum class Kind : uint8_t { kU64, kF64, kString };

  TraceArg(const char* k, uint64_t v) : key(k), kind(Kind::kU64), u64(v) {}
  TraceArg(const char* k, uint32_t v) : key(k), kind(Kind::kU64), u64(v) {}
  TraceArg(const char* k, int v)
      : key(k), kind(Kind::kU64), u64(static_cast<uint64_t>(v)) {}
  TraceArg(const char* k, double v) : key(k), kind(Kind::kF64), f64(v) {}
  TraceArg(const char* k, const char* v)
      : key(k), kind(Kind::kString), str(v) {}

  const char* key;
  Kind kind;
  uint64_t u64 = 0;
  double f64 = 0.0;
  std::string str;
};

// One recorded event, 1:1 with a Chrome trace_event entry. `ph` follows
// the trace-event vocabulary: 'B'/'E' nested span begin/end, 'i'
// instant.
struct TraceEventRec {
  char ph = 'i';
  const char* name = "";
  uint64_t ts = 0;  // microseconds on the recorder's timebase
  std::vector<TraceArg> args;
};

// Append-only event buffer for one logical thread of execution (one
// Simulation, or one sweep worker). Not thread-safe by design: each
// concurrent context records into its own recorder and the exporter
// merges them under distinct tids.
//
// The buffer is capped (page-level instants on a long run are the big
// spender); once full, further events are counted in dropped_events()
// instead of silently vanishing — the exporter surfaces the count.
class TraceRecorder {
 public:
  explicit TraceRecorder(size_t max_events = kDefaultMaxEvents);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  static constexpr size_t kDefaultMaxEvents = 2u << 20;

  void Begin(const char* name, uint64_t ts,
             std::initializer_list<TraceArg> args = {});
  void End(const char* name, uint64_t ts,
           std::initializer_list<TraceArg> args = {});
  void Instant(const char* name, uint64_t ts,
               std::initializer_list<TraceArg> args = {});

  const std::vector<TraceEventRec>& events() const { return events_; }
  size_t size() const { return events_.size(); }
  uint64_t dropped_events() const { return dropped_; }
  // Spans currently open (Begin without matching End).
  size_t open_spans() const { return open_spans_; }

 private:
  bool Admit();
  void Append(char ph, const char* name, uint64_t ts,
              std::initializer_list<TraceArg> args);

  size_t max_events_;
  std::vector<TraceEventRec> events_;
  uint64_t dropped_ = 0;
  size_t open_spans_ = 0;
  // Nesting depth of spans whose Begin fell past the cap; their Ends are
  // dropped too so the retained stream stays balanced.
  size_t dropped_spans_depth_ = 0;
};

}  // namespace odbgc::obs

#endif  // ODBGC_OBS_TRACE_RECORDER_H_
