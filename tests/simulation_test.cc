#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "oo7/generator.h"
#include "sim/report.h"
#include "sim/runner.h"
#include "sim/simulation.h"
#include "workloads/synthetic.h"

namespace odbgc {
namespace {

SimConfig TinyConfig() {
  SimConfig cfg;
  cfg.store.partition_bytes = 16 * 1024;
  cfg.store.page_bytes = 2 * 1024;
  cfg.store.buffer_pages = 8;
  cfg.preamble_collections = 2;
  return cfg;
}

// A hand-rolled trace: a root holding one slot that is repeatedly
// repointed at fresh objects, turning the old target into garbage.
Trace ChurnTrace(int cycles, uint32_t object_bytes = 500) {
  Trace t;
  t.Append(CreateEvent(1, 100, 1));
  t.Append(AddRootEvent(1));
  uint32_t next_id = 2;
  uint32_t current = 0;
  for (int i = 0; i < cycles; ++i) {
    uint32_t fresh = next_id++;
    t.Append(CreateEvent(fresh, object_bytes, 0));
    t.Append(WriteRefEvent(1, 0, fresh));
    if (current != 0) {
      t.Append(GarbageMarkEvent(object_bytes, 1));
    }
    t.Append(ReadEvent(fresh));
    current = fresh;
  }
  return t;
}

TEST(SimulationTest, FixedRateCollectsAtConfiguredRate) {
  SimConfig cfg = TinyConfig();
  cfg.policy = PolicyKind::kFixedRate;
  cfg.fixed_rate_overwrites = 10;
  Trace t = ChurnTrace(200);
  SimResult r = RunSimulation(cfg, t);
  // 199 overwrites at one per cycle -> about 19 collections.
  EXPECT_GE(r.collections, 15u);
  EXPECT_LE(r.collections, 21u);
}

TEST(SimulationTest, CollectionsReclaimChurnGarbage) {
  SimConfig cfg = TinyConfig();
  cfg.policy = PolicyKind::kFixedRate;
  cfg.fixed_rate_overwrites = 20;
  Trace t = ChurnTrace(300);
  SimResult r = RunSimulation(cfg, t);
  EXPECT_GT(r.total_reclaimed_bytes, 0u);
  // Outstanding garbage stays bounded by roughly one interval's churn
  // plus one partition's worth of stragglers.
  EXPECT_LT(r.final_actual_garbage_bytes, 40u * 500u);
}

TEST(SimulationTest, PreambleWindowExcludesColdStart) {
  SimConfig cfg = TinyConfig();
  cfg.policy = PolicyKind::kFixedRate;
  cfg.fixed_rate_overwrites = 10;
  cfg.preamble_collections = 5;
  Trace t = ChurnTrace(200);
  SimResult r = RunSimulation(cfg, t);
  ASSERT_TRUE(r.window_opened);
  EXPECT_LT(r.measured_app_io, r.clock.app_io);
  EXPECT_GT(r.garbage_pct.count(), 0u);
}

TEST(SimulationTest, WindowFallsBackToWholeRunWithoutEnoughCollections) {
  SimConfig cfg = TinyConfig();
  cfg.policy = PolicyKind::kFixedRate;
  cfg.fixed_rate_overwrites = 1000000;  // never collects
  Trace t = ChurnTrace(50);
  SimResult r = RunSimulation(cfg, t);
  EXPECT_EQ(r.collections, 0u);
  EXPECT_FALSE(r.window_opened);
  // The preamble never completed, so measurements cover the whole run.
  EXPECT_GT(r.garbage_pct.count(), 0u);
  EXPECT_EQ(r.measured_app_io, r.clock.app_io);
  EXPECT_EQ(r.achieved_gc_io_pct, 0.0);
}

TEST(SimulationTest, CollectionLogRecordsEachCollection) {
  SimConfig cfg = TinyConfig();
  cfg.policy = PolicyKind::kFixedRate;
  cfg.fixed_rate_overwrites = 25;
  Trace t = ChurnTrace(200);
  SimResult r = RunSimulation(cfg, t);
  ASSERT_EQ(r.log.size(), r.collections);
  uint64_t prev_time = 0;
  for (size_t i = 0; i < r.log.size(); ++i) {
    EXPECT_EQ(r.log[i].index, i + 1);
    EXPECT_GE(r.log[i].overwrite_time, prev_time);
    prev_time = r.log[i].overwrite_time;
  }
}

TEST(SimulationTest, SagaOracleSeesExactGarbage) {
  SimConfig cfg = TinyConfig();
  cfg.policy = PolicyKind::kSaga;
  cfg.estimator = EstimatorKind::kOracle;
  cfg.saga.garbage_frac = 0.10;
  cfg.saga.bootstrap_overwrites = 20;
  Trace t = ChurnTrace(3000);
  SimResult r = RunSimulation(cfg, t);
  ASSERT_GT(r.collections, 2u);
  // Oracle estimate equals ground truth at every logged collection.
  for (const CollectionRecord& rec : r.log) {
    EXPECT_NEAR(rec.estimated_garbage_pct, rec.actual_garbage_pct, 1e-9);
  }
}

TEST(SimulationTest, SaioControlsIoShareOnChurn) {
  SimConfig cfg = TinyConfig();
  cfg.policy = PolicyKind::kSaio;
  cfg.saio_frac = 0.20;
  cfg.saio_bootstrap_app_io = 200;
  cfg.preamble_collections = 3;
  Trace t = ChurnTrace(3000);
  SimResult r = RunSimulation(cfg, t);
  ASSERT_TRUE(r.window_opened);
  EXPECT_NEAR(r.achieved_gc_io_pct, 20.0, 6.0);
}

TEST(SimulationTest, PhaseMarksRecorded) {
  SimConfig cfg = TinyConfig();
  cfg.policy = PolicyKind::kFixedRate;
  cfg.fixed_rate_overwrites = 50;
  Trace t;
  t.Append(PhaseMarkEvent(Phase::kGenDb));
  Trace churn = ChurnTrace(100);
  for (const auto& e : churn.events()) t.Append(e);
  t.Append(PhaseMarkEvent(Phase::kReorg1));
  SimResult r = RunSimulation(cfg, t);
  ASSERT_EQ(r.phases.size(), 2u);
  EXPECT_EQ(r.phases[0].phase, Phase::kGenDb);
  EXPECT_EQ(r.phases[1].phase, Phase::kReorg1);
}

TEST(SimulationTest, PhaseStatsPartitionTheRun) {
  SimConfig cfg = TinyConfig();
  cfg.policy = PolicyKind::kFixedRate;
  cfg.fixed_rate_overwrites = 50;
  Oo7Generator gen(Oo7Params::Tiny(), 77);
  Trace trace = gen.GenerateFullApplication();
  SimResult r = RunSimulation(cfg, trace);

  ASSERT_EQ(r.phase_stats.size(), 4u);
  EXPECT_EQ(r.phase_stats[0].phase, Phase::kGenDb);
  EXPECT_EQ(r.phase_stats[1].phase, Phase::kReorg1);
  EXPECT_EQ(r.phase_stats[2].phase, Phase::kTraverse);
  EXPECT_EQ(r.phase_stats[3].phase, Phase::kReorg2);

  // Segments partition the whole run.
  uint64_t events = 0;
  uint64_t app_io = 0;
  uint64_t gc_io = 0;
  uint64_t overwrites = 0;
  uint64_t collections = 0;
  for (const PhaseStats& p : r.phase_stats) {
    events += p.events;
    app_io += p.app_io;
    gc_io += p.gc_io;
    overwrites += p.pointer_overwrites;
    collections += p.collections;
  }
  EXPECT_EQ(app_io, r.clock.app_io);
  EXPECT_EQ(gc_io, r.clock.gc_io);
  EXPECT_EQ(overwrites, r.clock.pointer_overwrites);
  EXPECT_EQ(collections, r.collections);
  // Every event after the first phase mark is inside some segment.
  EXPECT_GE(events + 4, r.clock.events);

  // Traverse is read-only: no overwrites, no garbage reclaimed.
  EXPECT_EQ(r.phase_stats[2].pointer_overwrites, 0u);
  EXPECT_GT(r.phase_stats[2].app_io, 0u);
  // Reorgs do the churn.
  EXPECT_GT(r.phase_stats[1].pointer_overwrites, 0u);
  EXPECT_GT(r.phase_stats[3].pointer_overwrites, 0u);
}

TEST(SimulationTest, DeterministicAcrossRuns) {
  SimConfig cfg = TinyConfig();
  cfg.policy = PolicyKind::kSaga;
  cfg.estimator = EstimatorKind::kFgsHb;
  Oo7Generator gen(Oo7Params::Tiny(), 33);
  Trace t = gen.GenerateFullApplication();
  SimResult a = RunSimulation(cfg, t);
  SimResult b = RunSimulation(cfg, t);
  EXPECT_EQ(a.collections, b.collections);
  EXPECT_EQ(a.clock.total_io(), b.clock.total_io());
  EXPECT_EQ(a.total_reclaimed_bytes, b.total_reclaimed_bytes);
  EXPECT_DOUBLE_EQ(a.garbage_pct.mean(), b.garbage_pct.mean());
}

TEST(SimulationTest, EstimatorHookWiredForSaga) {
  SimConfig cfg = TinyConfig();
  cfg.policy = PolicyKind::kSaga;
  GarbageEstimator* hook = nullptr;
  auto policy = MakePolicy(cfg, &hook);
  EXPECT_NE(hook, nullptr);
  cfg.policy = PolicyKind::kSaio;
  auto policy2 = MakePolicy(cfg, &hook);
  EXPECT_EQ(hook, nullptr);
}

// Forwards every RatePolicy virtual to the policy it wraps, as a timing
// or logging decorator would.
class ForwardingPolicy : public RatePolicy {
 public:
  explicit ForwardingPolicy(std::unique_ptr<RatePolicy> inner)
      : inner_(std::move(inner)) {}
  bool ShouldCollect(const SimClock& clock) override {
    return inner_->ShouldCollect(clock);
  }
  void OnCollection(const CollectionOutcome& outcome,
                    const SimClock& clock) override {
    inner_->OnCollection(outcome, clock);
  }
  bool ShouldCollectWhenIdle(const SimClock& clock) override {
    return inner_->ShouldCollectWhenIdle(clock);
  }
  void OnIdleCollection(const CollectionOutcome& outcome,
                        const SimClock& clock) override {
    inner_->OnIdleCollection(outcome, clock);
  }
  std::string name() const override { return inner_->name(); }
  void SetIoBudget(double io_frac) override { inner_->SetIoBudget(io_frac); }
  PolicyState State() const override { return inner_->State(); }
  void SaveState(SnapshotWriter& w) const override { inner_->SaveState(w); }
  void RestoreState(SnapshotReader& r) override { inner_->RestoreState(r); }

 private:
  std::unique_ptr<RatePolicy> inner_;
};

TEST(SimulationTest, WrappedPolicyReportsItsInnerPolicyState) {
  SimConfig cfg;
  cfg.policy = PolicyKind::kSaga;
  cfg.estimator = EstimatorKind::kFgsHb;
  cfg.saga.garbage_frac = 0.10;
  const Trace trace =
      Oo7Generator(Oo7Params::SmallPrime(), 7).GenerateFullApplication();
  const SimResult plain = RunSimulation(cfg, trace);

  GarbageEstimator* estimator = nullptr;
  auto policy = std::make_unique<ForwardingPolicy>(MakePolicy(cfg, &estimator));
  Simulation sim(cfg, std::move(policy),
                 MakeSelector(cfg.selector, cfg.selector_seed), estimator);
  const SimResult wrapped = sim.Run(trace);

  ASSERT_GT(plain.log.size(), 10u);
  ASSERT_EQ(wrapped.log.size(), plain.log.size());
  for (size_t i = 0; i < plain.log.size(); ++i) {
    EXPECT_DOUBLE_EQ(wrapped.log[i].target_garbage_pct, 10.0) << i;
    EXPECT_EQ(wrapped.log[i].next_dt, plain.log[i].next_dt) << i;
  }
  EXPECT_GT(plain.dt_min_clamps, 0u);
  EXPECT_GT(plain.dt_max_clamps, 0u);
  EXPECT_EQ(wrapped.dt_min_clamps, plain.dt_min_clamps);
  EXPECT_EQ(wrapped.dt_max_clamps, plain.dt_max_clamps);
  EXPECT_EQ(SimResultToJson(wrapped), SimResultToJson(plain));
}

// What a selector chose, and which choice each estimator feed followed.
struct FeedLog {
  struct Selection {
    PartitionId partition;
    uint64_t overwrites;  // the partition's overwrites() at Select
  };
  std::vector<Selection> selections;
  std::vector<EstimatorCollectionInfo> feeds;
  std::vector<size_t> feed_selection;  // index into selections
};

class RecordingSelector : public PartitionSelector {
 public:
  RecordingSelector(std::unique_ptr<PartitionSelector> inner, FeedLog* log)
      : inner_(std::move(inner)), log_(log) {}
  PartitionId Select(const ObjectStore& store) override {
    const PartitionId pid = inner_->Select(store);
    if (pid != kInvalidPartition) {
      log_->selections.push_back({pid, store.partition(pid).overwrites()});
    }
    return pid;
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<PartitionSelector> inner_;
  FeedLog* log_;
};

class RecordingEstimator : public GarbageEstimator {
 public:
  explicit RecordingEstimator(FeedLog* log) : log_(log) {}
  double Estimate() const override { return 0.0; }
  void OnPointerOverwrite(uint32_t /*partition*/) override {}
  void OnCollection(const EstimatorCollectionInfo& info) override {
    ASSERT_FALSE(log_->selections.empty());
    log_->feeds.push_back(info);
    log_->feed_selection.push_back(log_->selections.size() - 1);
  }
  std::string name() const override { return "recording"; }
  void SaveState(SnapshotWriter& /*w*/) const override {}
  void RestoreState(SnapshotReader& /*r*/) override {}

 private:
  FeedLog* log_;
};

// Runs `trace` with the configured selector recorded and a recording
// passive estimator attached.
SimResult RunRecorded(const SimConfig& cfg, const Trace& trace,
                      FeedLog* log) {
  GarbageEstimator* estimator = nullptr;
  auto policy = MakePolicy(cfg, &estimator);
  Simulation sim(cfg, std::move(policy),
                 std::make_unique<RecordingSelector>(
                     MakeSelector(cfg.selector, cfg.selector_seed), log),
                 estimator);
  RecordingEstimator recorder(log);
  sim.AddPassiveEstimator(&recorder);
  return sim.Run(trace);
}

// Every feed carries the partition chosen just before it and the
// overwrites() it had then; no choice feeds twice.
void ExpectFeedsMatchSelections(const FeedLog& log) {
  size_t with_overwrites = 0;
  for (size_t i = 0; i < log.feeds.size(); ++i) {
    const FeedLog::Selection& sel = log.selections[log.feed_selection[i]];
    EXPECT_EQ(log.feeds[i].partition, sel.partition) << "feed " << i;
    EXPECT_EQ(log.feeds[i].partition_overwrites, sel.overwrites)
        << "feed " << i;
    if (i > 0) {
      EXPECT_LT(log.feed_selection[i - 1], log.feed_selection[i]);
    }
    if (sel.overwrites > 0) ++with_overwrites;
  }
  EXPECT_GT(with_overwrites, 0u);
}

bool Fed(const FeedLog& log, size_t selection) {
  return std::find(log.feed_selection.begin(), log.feed_selection.end(),
                   selection) != log.feed_selection.end();
}

// OO7's four phases with a quiescent window after Reorg1 (odbgc_run's
// --idle-after-reorg1).
Trace Oo7WithIdle(uint32_t max_idle_collections) {
  Oo7Generator gen(Oo7Params::SmallPrime(), /*seed=*/1);
  Trace t;
  t.Append(PhaseMarkEvent(Phase::kGenDb));
  gen.GenDb(&t);
  t.Append(PhaseMarkEvent(Phase::kReorg1));
  gen.Reorg1(&t);
  t.Append(IdleMarkEvent(max_idle_collections));
  t.Append(PhaseMarkEvent(Phase::kTraverse));
  gen.Traverse(&t);
  t.Append(PhaseMarkEvent(Phase::kReorg2));
  gen.Reorg2(&t);
  return t;
}

TEST(SimulationTest, EstimatorFeedCarriesTheSelectionOnEveryPath) {
  SimConfig cfg;
  cfg.policy = PolicyKind::kSaga;
  cfg.saga.opportunism = true;
  const Trace trace = Oo7WithIdle(300);

  // Scheduled and idle collections: one feed per collection.
  FeedLog log;
  SimResult r = RunRecorded(cfg, trace, &log);
  ASSERT_GT(r.collections, 0u);
  ASSERT_GT(r.idle_collections, 0u);
  ASSERT_EQ(log.selections.size(), r.collections + r.idle_collections);
  EXPECT_EQ(log.feeds.size(), log.selections.size());
  ExpectFeedsMatchSelections(log);
  ASSERT_GE(r.phases.size(), 3u);
  // The n-th selection is the n-th Collect call (no faults), so this is
  // the first idle collection.
  const uint64_t first_idle = r.phases[2].at_collection + 1;

  // A crash rolled forward on the first idle collection feeds it.
  SimConfig crash = cfg;
  crash.store.fault.crash_point = CrashPoint::kBeforeFlip;
  crash.store.fault.crash_at_collection = first_idle;
  log = FeedLog();
  r = RunRecorded(crash, trace, &log);
  EXPECT_EQ(r.recovery_rollforwards, 1u);
  EXPECT_EQ(log.feeds.size(), r.collections + r.idle_collections);
  EXPECT_TRUE(Fed(log, first_idle - 1));
  ExpectFeedsMatchSelections(log);

  // A crash rolled back on a scheduled collection feeds nothing.
  crash.store.fault.crash_point = CrashPoint::kAfterCopy;
  crash.store.fault.crash_at_collection = first_idle / 2;
  log = FeedLog();
  r = RunRecorded(crash, trace, &log);
  EXPECT_EQ(r.recovery_rollbacks, 1u);
  EXPECT_EQ(log.feeds.size(), r.collections + r.idle_collections);
  EXPECT_EQ(log.selections.size(), log.feeds.size() + 1);
  EXPECT_FALSE(Fed(log, first_idle / 2 - 1));
  ExpectFeedsMatchSelections(log);
}

TEST(SimulationTest, EstimatorFeedCarriesTheSelectionOnGovernorBoosts) {
  // A capped store whose fixed rate never fires: every collection is a
  // governor boost through the configured selector.
  SimConfig cfg;
  cfg.policy = PolicyKind::kFixedRate;
  cfg.fixed_rate_overwrites = 1000000;
  cfg.store.max_db_bytes = 1024 * 1024;
  cfg.governor.enabled = true;
  UniformChurnOptions churn;
  churn.cycles = 4000;
  churn.list_count = 8;
  churn.target_length = 16;
  FeedLog log;
  const SimResult r = RunRecorded(cfg, MakeUniformChurn(churn), &log);
  EXPECT_EQ(r.collections, 0u);
  ASSERT_GT(r.governor_boost_collections, 0u);
  ASSERT_EQ(r.governor_emergency_collections, 0u);  // other selector
  EXPECT_EQ(log.feeds.size(), r.governor_boost_collections);
  EXPECT_EQ(log.selections.size(), log.feeds.size());
  ExpectFeedsMatchSelections(log);
}

TEST(SimulationTest, Oo7ReplayNeverOutgrowsTheStoreReservation) {
  // Run sizes the store once from the trace. A replay that outgrew a
  // reservation would have reallocated to a larger capacity, so capacity
  // == reservation proves no array grew; the id bound is the replay's
  // final array size, so nothing was reserved past it.
  for (const Oo7Params& params : {Oo7Params::Tiny(), Oo7Params::SmallPrime()}) {
    const Trace trace = Oo7Generator(params, 1).GenerateFullApplication();
    for (PolicyKind policy : {PolicyKind::kSaga, PolicyKind::kFixedRate}) {
      SCOPED_TRACE(testing::Message()
                   << "comps " << params.num_comp_per_module << " policy "
                   << static_cast<int>(policy));
      SimConfig cfg;
      cfg.policy = policy;
      cfg.fixed_rate_overwrites = 25;  // collects even on Tiny
      Simulation sim(cfg);
      const SimResult r = sim.Run(trace);
      if (policy == PolicyKind::kFixedRate) {
        EXPECT_GT(r.collections, 0u);
      }
      const ObjectStore::Capacities cap = sim.store().capacities();
      EXPECT_EQ(cap.objects, trace.create_id_bound());
      EXPECT_EQ(cap.in_refs, trace.create_id_bound());
      EXPECT_EQ(cap.slots, trace.created_slot_total());
      EXPECT_EQ(sim.store().max_object_id() + 1u, trace.create_id_bound());
    }
  }
}

TEST(SimulationDeathTest, CreateOfTheLastIdAbortsOnTheStoreCheck) {
  // UINT32_MAX is left out of the trace's bound, so the replay reserves
  // nothing for it and dies on CreateObject's check instead of writing
  // past a wrapped array size.
  Trace t;
  t.Append(CreateEvent(UINT32_MAX, 64, 0));
  EXPECT_EQ(t.create_id_bound(), 0u);
  EXPECT_DEATH(RunSimulation(TinyConfig(), t), "no room for its entry");
}

TEST(RunnerTest, RunOo7ManyAggregatesAcrossSeeds) {
  SimConfig cfg = TinyConfig();
  cfg.policy = PolicyKind::kFixedRate;
  cfg.fixed_rate_overwrites = 100;
  cfg.preamble_collections = 2;
  AggregateResult agg = RunOo7Many(cfg, Oo7Params::Tiny(), 1, 3);
  ASSERT_EQ(agg.runs.size(), 3u);
  EXPECT_LE(agg.achieved_io_pct.min, agg.achieved_io_pct.mean);
  EXPECT_LE(agg.achieved_io_pct.mean, agg.achieved_io_pct.max);
  EXPECT_GT(agg.collections.mean, 0.0);
}

}  // namespace
}  // namespace odbgc
