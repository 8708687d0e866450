#ifndef ODBGC_OBS_PERFETTO_EXPORT_H_
#define ODBGC_OBS_PERFETTO_EXPORT_H_

#include <string>
#include <vector>

#include "obs/trace_recorder.h"

namespace odbgc::obs {

// One logical thread of a Chrome/Perfetto trace: a recorder plus the
// tid and thread name it is exported under.
struct TraceThread {
  const TraceRecorder* recorder = nullptr;
  int tid = 0;
  std::string name;  // thread_name metadata ("simulation")
};

// Serializes recorders into the Chrome trace_event JSON object format
// ({"traceEvents": [...], ...}), loadable in ui.perfetto.dev and
// chrome://tracing. Every event carries the required ph/ts/pid/tid
// fields; build provenance and the per-recorder dropped-event counts go
// into "otherData". `ts` is whatever timebase the recorders used
// (deterministic sim ticks for Simulation traces); "displayTimeUnit" is
// ms. Several threads can share one trace, as a wall-clock profile with
// one thread per worker would.
std::string ChromeTraceJson(const std::vector<TraceThread>& threads,
                            const std::string& process_name = "odbgc");

// Writes ChromeTraceJson to `path`; false on I/O failure.
bool WriteChromeTrace(const std::vector<TraceThread>& threads,
                      const std::string& path,
                      const std::string& process_name = "odbgc");

}  // namespace odbgc::obs

#endif  // ODBGC_OBS_PERFETTO_EXPORT_H_
