#include "obs/timeseries.h"

namespace odbgc::obs {

TimeSeriesSampler::TimeSeriesSampler(uint64_t interval_events, size_t capacity)
    : interval_(interval_events), ring_(capacity) {}

void TimeSeriesSampler::Sample(uint64_t event, uint64_t tick,
                               uint64_t collections,
                               const MetricsRegistry& registry) {
  TimeSeriesFrame frame;
  frame.seq = ring_.total();
  frame.event = event;
  frame.tick = tick;
  frame.collections = collections;
  frame.metrics = registry.Snapshot();
  ring_.Push(std::move(frame));
}

}  // namespace odbgc::obs
