#ifndef ODBGC_OBS_TIMESERIES_H_
#define ODBGC_OBS_TIMESERIES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "util/bounded_ring.h"
#include "util/fields.h"

namespace odbgc::obs {

// One periodic snapshot of the metrics registry, stamped with the
// simulation's deterministic clocks. The sequence of frames is the
// learned-policy feature stream and what fig6-style time-series plots
// consume; it is a pure function of the simulated execution, so it is
// byte-identical across sweep thread counts and across crash/resume.
#define ODBGC_TIMESERIES_FRAME_FIELDS(X)                              \
  X(uint64_t, seq, 0)         /* 0-based frame index, never reused */ \
  X(uint64_t, event, 0)       /* trace event cursor when sampled */   \
  X(uint64_t, tick, 0)        /* logical tick when sampled */         \
  X(uint64_t, collections, 0) /* collections completed so far */      \
  X(TelemetrySnapshot, metrics, {})

struct TimeSeriesFrame {
  ODBGC_FIELD_TABLE(ODBGC_TIMESERIES_FRAME_FIELDS)
};

// Samples the registry every `interval_events` applied trace events into
// a bounded ring (newest `capacity` frames kept; shed frames counted).
class TimeSeriesSampler {
 public:
  static constexpr uint64_t kDefaultIntervalEvents = 1024;

  TimeSeriesSampler(uint64_t interval_events, size_t capacity);

  uint64_t interval() const { return interval_; }
  // True when a frame is owed at this event count.
  bool Due(uint64_t events) const {
    return interval_ != 0 && events % interval_ == 0;
  }

  void Sample(uint64_t event, uint64_t tick, uint64_t collections,
              const MetricsRegistry& registry);

  size_t size() const { return ring_.size(); }
  uint64_t total() const { return ring_.total(); }
  uint64_t dropped() const { return ring_.dropped(); }

  // Frames oldest-first.
  std::vector<TimeSeriesFrame> Frames() const { return ring_.Items(); }

  void SaveState(SnapshotWriter& w) const { Checkpoint(w, *this); }
  void RestoreState(SnapshotReader& r) { Checkpoint(r, *this); }

 private:
  template <class Io, class Self>
  static void Checkpoint(Io& io, Self& self) {
    Persist(io, SectionTag{"TSS0"}, self.ring_, SectionTag{"TSSE"});
  }

  uint64_t interval_;
  BoundedRing<TimeSeriesFrame> ring_;
};

}  // namespace odbgc::obs

#endif  // ODBGC_OBS_TIMESERIES_H_
