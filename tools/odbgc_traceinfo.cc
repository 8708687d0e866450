// odbgc_traceinfo — inspect a binary trace file.
//
//   odbgc_traceinfo app.trace

#include <cstdio>
#include <string>
#include <vector>

#include "sim/trace_analysis.h"
#include "tools/tool_common.h"
#include "trace/trace.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace odbgc;
  Flags flags;
  std::string error;
  if (!Flags::Parse(argc, argv, &flags, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  bool assumptions = flags.GetBool("assumptions", false);
  if (flags.GetBool("help", false) || flags.positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: odbgc_traceinfo [--assumptions] FILE\n"
                 "  --assumptions  profile the trace against the policies'\n"
                 "                 assumptions (garbage-per-overwrite rate,\n"
                 "                 burstiness, benign-overwrite share)\n");
    return flags.GetBool("help", false) ? 0 : 2;
  }
  if (!tools::CheckNoUnusedFlags(flags, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  const std::string& path = flags.positional()[0];
  Trace trace;
  const TraceLoadError load = Trace::Load(path, &trace);
  if (load != TraceLoadError::kNone) {
    std::fprintf(stderr, "error: cannot read trace '%s': %s\n", path.c_str(),
                 TraceLoadErrorName(load));
    return 1;
  }

  Trace::Summary s = trace.Summarize();
  std::printf("%s: %zu events\n", path.c_str(), trace.size());
  std::printf("  creates        %10llu  (%.2f MB, avg %.1f B/object)\n",
              static_cast<unsigned long long>(s.creates),
              s.created_bytes / 1.0e6,
              s.creates ? static_cast<double>(s.created_bytes) /
                              static_cast<double>(s.creates)
                        : 0.0);
  std::printf("  reads          %10llu\n",
              static_cast<unsigned long long>(s.reads));
  std::printf("  pointer writes %10llu\n",
              static_cast<unsigned long long>(s.write_refs));
  std::printf("  garbage marks  %10llu  (%.2f MB in %llu objects)\n",
              static_cast<unsigned long long>(s.garbage_marks),
              s.ground_truth_garbage_bytes / 1.0e6,
              static_cast<unsigned long long>(
                  s.ground_truth_garbage_objects));

  // Per-phase event breakdown.
  struct Segment {
    Phase phase;
    uint64_t events = 0;
    uint64_t creates = 0;
    uint64_t writes = 0;
    uint64_t garbage_bytes = 0;
  };
  std::vector<Segment> segments;
  uint64_t idle_marks = 0;
  for (const TraceEvent& e : trace.events()) {
    if (e.kind == EventKind::kPhaseMark) {
      segments.push_back(Segment{static_cast<Phase>(e.a)});
      continue;
    }
    if (e.kind == EventKind::kIdleMark) ++idle_marks;
    if (segments.empty()) continue;
    Segment& seg = segments.back();
    ++seg.events;
    if (e.kind == EventKind::kCreate) ++seg.creates;
    if (e.kind == EventKind::kWriteRef) ++seg.writes;
    if (e.kind == EventKind::kGarbageMark) seg.garbage_bytes += e.a;
  }
  if (!segments.empty()) {
    std::printf("  phases:\n");
    for (const Segment& seg : segments) {
      std::printf("    %-9s %9llu events, %7llu creates, %7llu writes, "
                  "%6.2f MB garbage\n",
                  PhaseName(seg.phase).c_str(),
                  static_cast<unsigned long long>(seg.events),
                  static_cast<unsigned long long>(seg.creates),
                  static_cast<unsigned long long>(seg.writes),
                  seg.garbage_bytes / 1.0e6);
    }
  }
  if (idle_marks > 0) {
    std::printf("  idle windows   %10llu\n",
                static_cast<unsigned long long>(idle_marks));
  }

  if (assumptions) {
    AssumptionReport a = AnalyzeAssumptions(trace);
    std::printf("assumption profile (windows of %llu overwrites):\n",
                static_cast<unsigned long long>(a.window_overwrites));
    std::printf("  pointer overwrites      %llu\n",
                static_cast<unsigned long long>(a.pointer_overwrites));
    std::printf("  garbage per overwrite   %.1f B overall\n",
                a.garbage_per_overwrite);
    std::printf("  windowed rate           mean %.1f, stddev %.1f, max "
                "%.1f B/ow\n",
                a.window_gpo.mean(), a.window_gpo.stddev(),
                a.window_gpo.max());
    std::printf("  burstiness              %.2f (garbage share of the "
                "busiest 10%% of windows)\n",
                a.burstiness);
    std::printf("  benign overwrite share  <= %.2f\n",
                a.benign_overwrite_fraction);
    std::printf("  reading it: wide windowed spread or burstiness near 1 "
                "predicts SAGA\n  estimation trouble; a high benign share "
                "weakens UpdatedPointer and FGS\n  (see "
                "bench/ext_assumption_stress).\n");
  }
  return 0;
}
