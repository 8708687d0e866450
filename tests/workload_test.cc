#include <gtest/gtest.h>

#include "sim/simulation.h"
#include "storage/object_store.h"
#include "storage/reachability.h"
#include "tests/replay_test_util.h"
#include "workloads/synthetic.h"

namespace odbgc {
namespace {

// Replays a trace into a bare store (no GC) and checks that the
// workload's ground-truth garbage markers agree exactly with a full
// reachability scan.
void CheckMarkerConsistency(const Trace& trace) {
  StoreConfig cfg;
  cfg.partition_bytes = 32 * 1024;
  cfg.page_bytes = 4 * 1024;
  cfg.buffer_pages = 8;
  ObjectStore store(cfg);
  ReplayIntoStore(trace, &store);
  ReachabilityResult scan = ScanReachability(store);
  EXPECT_EQ(scan.unreachable_bytes, store.actual_garbage_bytes());
  EXPECT_GT(store.total_garbage_created(), 0u);
}

TEST(UniformChurnTest, MarkersMatchReachability) {
  UniformChurnOptions o;
  o.cycles = 3000;
  o.list_count = 8;
  o.target_length = 16;
  CheckMarkerConsistency(MakeUniformChurn(o));
}

TEST(UniformChurnTest, SteadyGarbageRate) {
  UniformChurnOptions o;
  o.cycles = 6000;
  o.list_count = 8;
  o.target_length = 16;
  Trace t = MakeUniformChurn(o);
  // After warm-up, roughly one node dies per appended node: garbage
  // objects ~ cycles - lists*target_length.
  Trace::Summary s = t.Summarize();
  uint64_t expected = 6000 - 8 * 16;
  EXPECT_NEAR(static_cast<double>(s.ground_truth_garbage_objects),
              static_cast<double>(expected), 0.2 * expected);
}

TEST(UniformChurnTest, DeterministicBySeed) {
  UniformChurnOptions o;
  o.cycles = 500;
  Trace a = MakeUniformChurn(o);
  Trace b = MakeUniformChurn(o);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(BurstyDeletesTest, MarkersMatchReachability) {
  BurstyDeleteOptions o;
  o.bursts = 10;
  o.quiet_cycles_per_burst = 200;
  CheckMarkerConsistency(MakeBurstyDeletes(o));
}

TEST(BurstyDeletesTest, GarbageArrivesInBursts) {
  BurstyDeleteOptions o;
  o.bursts = 5;
  o.quiet_cycles_per_burst = 300;
  o.lists_per_burst = 4;
  o.list_length = 48;
  Trace t = MakeBurstyDeletes(o);
  // Every deleted node gets its own marker as the batched delete
  // dismantles the list; garbage only appears in the bursts.
  Trace::Summary s = t.Summarize();
  EXPECT_EQ(s.garbage_marks, 5u * 4u * 48u);
  EXPECT_EQ(s.ground_truth_garbage_objects, 5u * 4u * 48u);
}

TEST(BurstyDeletesTest, QuietPhasesAdvanceOverwriteClockWithoutGarbage) {
  // Replay only the first quiet phase (up to the first burst) and check
  // overwrites happened but garbage did not.
  BurstyDeleteOptions o;
  o.bursts = 1;
  o.quiet_cycles_per_burst = 300;
  Trace t = MakeBurstyDeletes(o);
  StoreConfig cfg;
  cfg.partition_bytes = 32 * 1024;
  cfg.page_bytes = 4 * 1024;
  cfg.buffer_pages = 8;
  ObjectStore store(cfg);
  for (const TraceEvent& e : t.events()) {
    if (e.kind == EventKind::kGarbageMark) break;  // stop at the burst
    ApplyToStore(e, &store);
  }
  EXPECT_GT(store.pointer_overwrites(), 0u);
  EXPECT_EQ(store.actual_garbage_bytes(), 0u);
}

TEST(GrowingDatabaseTest, MarkersMatchReachability) {
  GrowingDatabaseOptions o;
  o.cycles = 4000;
  CheckMarkerConsistency(MakeGrowingDatabase(o));
}

TEST(GrowingDatabaseTest, DatabaseGrowsMonotonically) {
  GrowingDatabaseOptions o;
  o.cycles = 9000;
  o.retain_every = 3;
  Trace t = MakeGrowingDatabase(o);
  Trace::Summary s = t.Summarize();
  // A third of the nodes are permanent: live bytes at the end are about
  // created - garbage ~ cycles/3 nodes (plus the churn window).
  uint64_t live = s.created_bytes - s.ground_truth_garbage_bytes;
  uint64_t permanent = (9000 / 3) * o.node_bytes;
  EXPECT_GT(live, permanent);
  EXPECT_LT(live, permanent + 100u * o.node_bytes);
}

TEST(MessageQueueTest, MarkersMatchReachability) {
  MessageQueueOptions o;
  o.cycles = 3000;
  o.batch = 25;
  CheckMarkerConsistency(MakeMessageQueue(o));
}

TEST(MessageQueueTest, QueueLengthBounded) {
  MessageQueueOptions o;
  o.cycles = 5000;
  o.batch = 40;
  Trace t = MakeMessageQueue(o);
  Trace::Summary s = t.Summarize();
  // Live messages at the end <= 2*batch (+1 in-flight).
  uint64_t live_objects =
      s.created_objects - s.ground_truth_garbage_objects;
  EXPECT_LE(live_objects, 2u * 40u + 2u);  // +root +in-flight
}

TEST(WorkloadSimulationTest, SagaControlsUniformChurn) {
  UniformChurnOptions o;
  o.cycles = 20000;
  Trace t = MakeUniformChurn(o);
  SimConfig cfg;
  cfg.store.partition_bytes = 32 * 1024;
  cfg.store.page_bytes = 4 * 1024;
  cfg.store.buffer_pages = 8;
  cfg.policy = PolicyKind::kSaga;
  cfg.estimator = EstimatorKind::kOracle;
  cfg.saga.garbage_frac = 0.10;
  cfg.saga.bootstrap_overwrites = 200;
  SimResult r = RunSimulation(cfg, t);
  ASSERT_TRUE(r.window_opened);
  // The benign workload: SAGA holds the target comfortably.
  EXPECT_NEAR(r.garbage_pct.mean(), 10.0, 4.0);
}

}  // namespace
}  // namespace odbgc
