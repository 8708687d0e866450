// Drives the library with a hand-written workload instead of OO7 —
// the public trace API in miniature. A "message queue" database: a root
// holds a linked list of messages; producers append at the head and a
// consumer prunes the tail in batches, creating bursts of garbage. The
// example also round-trips the trace through the binary file format.
//
// It demonstrates the full embedding contract:
//   * emit kCreate / kWriteRef / kRead / kAddRoot / kRemoveRoot events,
//   * emit kGarbageMark when your application knows a cluster died
//     (enables the oracle paths; practical estimators ignore it),
//   * replay through Simulation under any policy.

#include <cstdio>
#include <deque>
#include <string>

#include "sim/simulation.h"
#include "trace/trace.h"

namespace {

using namespace odbgc;

constexpr uint32_t kMessageBytes = 600;
constexpr uint32_t kRootBytes = 64;

// Builds the message-queue trace: `cycles` appends, pruning the oldest
// `batch` messages every `batch` appends.
Trace BuildQueueTrace(int cycles, int batch) {
  Trace t;
  ObjectId next_id = 1;
  ObjectId root = next_id++;
  t.Append(CreateEvent(root, kRootBytes, 1));
  t.Append(AddRootEvent(root));

  std::deque<ObjectId> queue;  // front = newest (head), back = oldest
  for (int i = 0; i < cycles; ++i) {
    // Produce: head-insert a message (slot 0 of a message = next-older).
    ObjectId msg = next_id++;
    t.Append(CreateEvent(msg, kMessageBytes, 1));
    t.Append(WriteRefEvent(msg, 0,
                           queue.empty() ? kNullObject : queue.front()));
    t.Append(WriteRefEvent(root, 0, msg));  // overwrite after first
    queue.push_front(msg);

    // Consume: every `batch` appends, cut the tail off in one overwrite.
    if (static_cast<int>(queue.size()) > 2 * batch) {
      // Walk to the cut point (reads), then null its next pointer.
      ObjectId cut = queue[batch - 1];
      for (int k = 0; k < batch; ++k) t.Append(ReadEvent(queue[k]));
      t.Append(WriteRefEvent(cut, 0, kNullObject));
      uint32_t dropped = static_cast<uint32_t>(queue.size()) - batch;
      t.Append(GarbageMarkEvent(dropped * kMessageBytes, dropped));
      queue.resize(batch);
    }
  }
  return t;
}

}  // namespace

int main() {
  const int kCycles = 20000;
  const int kBatch = 50;
  Trace trace = BuildQueueTrace(kCycles, kBatch);

  // Round-trip the trace through the on-disk format, as a tool would.
  const std::string path = "/tmp/odbgc_queue.trace";
  if (!trace.SaveTo(path)) {
    std::fprintf(stderr, "failed to save trace\n");
    return 1;
  }
  Trace loaded;
  const TraceLoadError load = Trace::Load(path, &loaded);
  if (load != TraceLoadError::kNone) {
    std::fprintf(stderr, "failed to reload trace: %s\n",
                 TraceLoadErrorName(load));
    return 1;
  }
  Trace::Summary s = loaded.Summarize();
  std::printf("message-queue trace: %zu events, %llu creates, "
              "%llu writes, %.2f MB ground-truth garbage\n",
              loaded.size(), static_cast<unsigned long long>(s.creates),
              static_cast<unsigned long long>(s.write_refs),
              s.ground_truth_garbage_bytes / 1.0e6);

  // The queue's bursty deaths are exactly what a fixed rate mishandles;
  // SAGA adapts. Compare.
  for (bool adaptive : {false, true}) {
    SimConfig config;
    if (adaptive) {
      config.policy = PolicyKind::kSaga;
      config.estimator = EstimatorKind::kFgsHb;
      config.saga.garbage_frac = 0.10;
    } else {
      config.policy = PolicyKind::kFixedRate;
      config.fixed_rate_overwrites = 500;
    }
    SimResult r = RunSimulation(config, loaded);
    std::printf("%-18s collections=%-5llu gc_io=%5.2f%%  "
                "mean_garbage=%5.2f%%  final_garbage=%.2f MB\n",
                adaptive ? "SAGA(10%,FGS/HB)" : "FixedRate(500)",
                static_cast<unsigned long long>(r.collections),
                r.achieved_gc_io_pct, r.garbage_pct.mean(),
                r.final_actual_garbage_bytes / 1.0e6);
  }
  std::remove(path.c_str());
  return 0;
}
