#include "obs/trace_recorder.h"

namespace odbgc::obs {

TraceRecorder::TraceRecorder(size_t max_events) : max_events_(max_events) {}

bool TraceRecorder::Admit() {
  if (events_.size() < max_events_) return true;
  ++dropped_;
  return false;
}

void TraceRecorder::Append(char ph, const char* name, uint64_t ts,
                           std::initializer_list<TraceArg> args) {
  TraceEventRec rec;
  rec.ph = ph;
  rec.name = name;
  rec.ts = ts;
  if (args.size() > 0) rec.args.assign(args.begin(), args.end());
  events_.push_back(std::move(rec));
}

void TraceRecorder::Begin(const char* name, uint64_t ts,
                          std::initializer_list<TraceArg> args) {
  // Once the cap is hit, whole spans are dropped Begin+End as a pair
  // (dropped_span_depth tracked via open_spans_ bookkeeping below) so
  // the retained stream still nests correctly.
  if (!Admit()) {
    ++dropped_spans_depth_;
    return;
  }
  ++open_spans_;
  Append('B', name, ts, args);
}

void TraceRecorder::End(const char* name, uint64_t ts,
                        std::initializer_list<TraceArg> args) {
  if (dropped_spans_depth_ > 0) {
    // This End matches a Begin that was dropped at the cap.
    --dropped_spans_depth_;
    ++dropped_;
    return;
  }
  if (open_spans_ == 0) return;  // unmatched End: ignore
  --open_spans_;
  // An admitted Begin always gets its End, even past the cap, so the
  // exported stream stays balanced.
  Append('E', name, ts, args);
}

void TraceRecorder::Instant(const char* name, uint64_t ts,
                            std::initializer_list<TraceArg> args) {
  if (!Admit()) return;
  Append('i', name, ts, args);
}

}  // namespace odbgc::obs
