#ifndef ODBGC_OBS_PROGRESS_H_
#define ODBGC_OBS_PROGRESS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>

namespace odbgc::obs {

// One sampled line of live run state, assembled by the Simulation.
struct ProgressSample {
  uint64_t events = 0;
  uint64_t total_events = 0;  // 0 when unknown (incremental drivers)
  uint64_t collections = 0;
  uint64_t app_io = 0;
  uint64_t gc_io = 0;
  // Estimator-vs-ground-truth garbage error in percentage points;
  // meaningful only when has_estimate.
  bool has_estimate = false;
  double estimate_error_pp = 0.0;
  // Self-healing state (PR 7's counters); the printed line only grows a
  // suffix when any of these is nonzero, so healthy runs are unchanged.
  uint64_t pages_scrubbed = 0;
  uint32_t scrub_cursor_partition = 0;
  uint64_t quarantined_partitions = 0;
  uint64_t pending_corruption = 0;
};

// Live progress for one simulation run: periodic single-line reports to
// a stream (stderr by convention — stdout stays machine-readable).
// Wall-clock throttled, so the caller may offer samples as often as it
// likes; offers between intervals are dropped in a few instructions.
// Reporting never touches simulation state: runs with and without
// --progress are byte-identical on stdout and in every exported file.
class ProgressReporter {
 public:
  explicit ProgressReporter(std::FILE* out = stderr,
                            double interval_seconds = 0.5);

  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

  // Prints a line if at least the interval elapsed since the last one.
  void MaybeReport(const ProgressSample& sample);

  // Prints the closing line (always, regardless of the interval).
  void Finish(const ProgressSample& sample);

 private:
  using Clock = std::chrono::steady_clock;

  void PrintLine(const ProgressSample& sample, bool final_line);

  std::FILE* out_;
  std::chrono::nanoseconds interval_;
  Clock::time_point start_;
  Clock::time_point last_report_;
  uint64_t last_events_ = 0;
};

// Live progress for a sweep: "done/total runs" lines as workers finish.
// Thread-safe (workers report concurrently); wall-clock throttled like
// ProgressReporter, with the final run always reported.
class SweepProgress {
 public:
  SweepProgress(std::FILE* out, uint64_t total_runs,
                double interval_seconds = 1.0);

  SweepProgress(const SweepProgress&) = delete;
  SweepProgress& operator=(const SweepProgress&) = delete;

  // Called by a worker when one run completes.
  void OnRunDone();

 private:
  using Clock = std::chrono::steady_clock;

  std::FILE* out_;
  uint64_t total_;
  std::chrono::nanoseconds interval_;
  Clock::time_point start_;

  std::mutex mu_;
  uint64_t done_ = 0;
  Clock::time_point last_report_;
};

}  // namespace odbgc::obs

#endif  // ODBGC_OBS_PROGRESS_H_
