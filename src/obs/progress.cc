#include "obs/progress.h"

namespace odbgc::obs {

namespace {

std::chrono::nanoseconds SecondsToNs(double s) {
  return std::chrono::nanoseconds(
      static_cast<int64_t>(s * 1e9 < 0.0 ? 0.0 : s * 1e9));
}

}  // namespace

ProgressReporter::ProgressReporter(std::FILE* out, double interval_seconds)
    : out_(out),
      interval_(SecondsToNs(interval_seconds)),
      start_(Clock::now()),
      last_report_(start_ - interval_) {}

void ProgressReporter::MaybeReport(const ProgressSample& sample) {
  Clock::time_point now = Clock::now();
  if (now - last_report_ < interval_) return;
  last_report_ = now;
  PrintLine(sample, /*final_line=*/false);
}

void ProgressReporter::Finish(const ProgressSample& sample) {
  last_report_ = Clock::now();
  PrintLine(sample, /*final_line=*/true);
}

void ProgressReporter::PrintLine(const ProgressSample& sample,
                                 bool final_line) {
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start_).count();
  const double rate =
      elapsed > 0.0 ? static_cast<double>(sample.events) / elapsed : 0.0;
  const uint64_t total_io = sample.app_io + sample.gc_io;
  const double gc_pct =
      total_io > 0
          ? 100.0 * static_cast<double>(sample.gc_io) /
                static_cast<double>(total_io)
          : 0.0;

  char pct[16] = "";
  if (sample.total_events > 0) {
    std::snprintf(pct, sizeof(pct), "%3.0f%% ",
                  100.0 * static_cast<double>(sample.events) /
                      static_cast<double>(sample.total_events));
  }
  char err[32] = "";
  if (sample.has_estimate) {
    std::snprintf(err, sizeof(err), ", est err %+.2fpp",
                  sample.estimate_error_pp);
  }
  // Self-healing suffix, only once any of its state is nonzero — the
  // line stays identical to older builds on healthy runs.
  char heal[96] = "";
  if (sample.pages_scrubbed > 0 || sample.quarantined_partitions > 0 ||
      sample.pending_corruption > 0) {
    std::snprintf(heal, sizeof(heal),
                  ", scrub %llu pages@p%u, %llu quarantined, %llu pending",
                  static_cast<unsigned long long>(sample.pages_scrubbed),
                  sample.scrub_cursor_partition,
                  static_cast<unsigned long long>(
                      sample.quarantined_partitions),
                  static_cast<unsigned long long>(sample.pending_corruption));
  }
  std::fprintf(out_,
               "%s[%s%llu events, %.0f ev/s] %llu collections, "
               "gc-io %.2f%%%s%s\n",
               final_line ? "progress: done " : "progress: ", pct,
               static_cast<unsigned long long>(sample.events), rate,
               static_cast<unsigned long long>(sample.collections), gc_pct,
               err, heal);
  std::fflush(out_);
  last_events_ = sample.events;
}

SweepProgress::SweepProgress(std::FILE* out, uint64_t total_runs,
                             double interval_seconds)
    : out_(out),
      total_(total_runs),
      interval_(SecondsToNs(interval_seconds)),
      start_(Clock::now()),
      last_report_(start_ - interval_) {}

void SweepProgress::OnRunDone() {
  std::lock_guard<std::mutex> lock(mu_);
  ++done_;
  Clock::time_point now = Clock::now();
  const bool last = done_ == total_;
  if (!last && now - last_report_ < interval_) return;
  last_report_ = now;
  const double elapsed =
      std::chrono::duration<double>(now - start_).count();
  std::fprintf(out_, "sweep: %llu/%llu runs (%.0f%%), %.1fs elapsed\n",
               static_cast<unsigned long long>(done_),
               static_cast<unsigned long long>(total_),
               total_ > 0
                   ? 100.0 * static_cast<double>(done_) /
                         static_cast<double>(total_)
                   : 100.0,
               elapsed);
  std::fflush(out_);
}

}  // namespace odbgc::obs
