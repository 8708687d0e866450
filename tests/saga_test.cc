#include <memory>

#include <gtest/gtest.h>

#include "core/saga.h"

namespace odbgc {
namespace {

SimClock At(uint64_t overwrites, uint64_t db_bytes) {
  SimClock c;
  c.pointer_overwrites = overwrites;
  c.db_used_bytes = db_bytes;
  return c;
}

SagaPolicy::Options Opts(double frac, uint64_t bootstrap = 100) {
  SagaPolicy::Options o;
  o.garbage_frac = frac;
  o.bootstrap_overwrites = bootstrap;
  return o;
}

// Builds a SAGA policy with an oracle estimator we control directly.
struct OracleSaga {
  explicit OracleSaga(const SagaPolicy::Options& opts) {
    auto est = std::make_unique<OracleEstimator>();
    oracle = est.get();
    policy = std::make_unique<SagaPolicy>(opts, std::move(est));
  }
  OracleEstimator* oracle;
  std::unique_ptr<SagaPolicy> policy;
};

TEST(SagaPolicyTest, BootstrapTriggersFirstCollection) {
  OracleSaga s(Opts(0.10, /*bootstrap=*/100));
  EXPECT_FALSE(s.policy->ShouldCollect(At(99, 10000)));
  EXPECT_TRUE(s.policy->ShouldCollect(At(100, 10000)));
}

TEST(SagaPolicyTest, NoGarbageCreationSchedulesFarAhead) {
  OracleSaga s(Opts(0.10));
  // Two collections with zero garbage anywhere: the slope is zero and we
  // are under target, so the policy waits dt_max.
  s.oracle->SetGroundTruth(0.0);
  s.policy->OnCollection(CollectionOutcome{0, 0}, At(100, 10000));
  s.policy->OnCollection(CollectionOutcome{0, 0}, At(200, 10000));
  EXPECT_EQ(s.policy->State().last_interval, s.policy->options().dt_max);
}

TEST(SagaPolicyTest, OverBudgetWithDeadSlopeCollectsSoon) {
  OracleSaga s(Opts(0.10));
  // Garbage sits at 5000 bytes (50% of a 10000-byte DB), never growing.
  s.oracle->SetGroundTruth(5000.0);
  s.policy->OnCollection(CollectionOutcome{0, 0}, At(100, 10000));
  s.policy->OnCollection(CollectionOutcome{0, 0}, At(200, 10000));
  // numerator = CurrColl - GarbDiff = 0 - (5000 - 1000) < 0 -> dt_min.
  EXPECT_EQ(s.policy->State().last_interval, s.policy->options().dt_min);
  EXPECT_GE(s.policy->State().dt_min_clamps, 1u);
}

TEST(SagaPolicyTest, SteadyStateComputesPaperFormula) {
  SagaPolicy::Options o = Opts(0.10);
  o.slope_weight = 0.0;  // no smoothing: slope = latest finite difference
  OracleSaga s(o);

  // Collection 1 at t=100: ActGarb 1000, reclaimed 500 -> TotGarb=1500.
  s.oracle->SetGroundTruth(1000.0);
  s.policy->OnCollection(CollectionOutcome{0, /*reclaimed=*/500},
                         At(100, 10000));
  // Collection 2 at t=200: ActGarb 1200, reclaimed 600.
  // TotColl=1100, TotGarb = 1200 + 1100 = 2300.
  // slope = (2300 - 1500) / 100 = 8 bytes/overwrite.
  // GarbDiff = 1200 - 0.1*10000 = 200. numerator = 600 - 200 = 400.
  // dt = 400 / 8 = 50.
  s.oracle->SetGroundTruth(1200.0);
  s.policy->OnCollection(CollectionOutcome{0, 600}, At(200, 10000));
  EXPECT_EQ(s.policy->State().last_interval, 50u);
  EXPECT_DOUBLE_EQ(s.policy->slope(), 8.0);
}

TEST(SagaPolicyTest, SlopeSmoothingUsesWeight) {
  SagaPolicy::Options o = Opts(0.10);
  o.slope_weight = 0.7;
  OracleSaga s(o);
  s.oracle->SetGroundTruth(0.0);
  s.policy->OnCollection(CollectionOutcome{0, 0}, At(100, 10000));
  // First finite difference initializes the slope directly.
  s.oracle->SetGroundTruth(1000.0);
  s.policy->OnCollection(CollectionOutcome{0, 0}, At(200, 10000));
  EXPECT_DOUBLE_EQ(s.policy->slope(), 10.0);
  // Second difference: sample = (2000+0 - 1000)/100 = 10... use a bigger
  // jump: ActGarb 4000 => TotGarb 4000, sample = (4000-1000)/100 = 30.
  s.oracle->SetGroundTruth(4000.0);
  s.policy->OnCollection(CollectionOutcome{0, 0}, At(300, 10000));
  // 0.7 * 10 + 0.3 * 30 = 16.
  EXPECT_DOUBLE_EQ(s.policy->slope(), 16.0);
}

TEST(SagaPolicyTest, DtClampedToMax) {
  SagaPolicy::Options o = Opts(0.10);
  o.slope_weight = 0.0;
  OracleSaga s(o);
  // Shallow slope and far under target -> dt astronomical -> dt_max.
  s.oracle->SetGroundTruth(0.0);
  s.policy->OnCollection(CollectionOutcome{0, 0}, At(100, 1000000));
  s.oracle->SetGroundTruth(100.0);
  s.policy->OnCollection(CollectionOutcome{0, 0}, At(200, 1000000));
  // slope = 1; numerator = 0 - (100 - 100000) = 99900 -> dt huge.
  EXPECT_EQ(s.policy->State().last_interval, o.dt_max);
  EXPECT_GE(s.policy->State().dt_max_clamps, 1u);
}

TEST(SagaPolicyTest, DtClampedToMin) {
  SagaPolicy::Options o = Opts(0.10);
  o.slope_weight = 0.0;
  OracleSaga s(o);
  // Steep slope and way over budget -> dt below dt_min -> clamped up.
  s.oracle->SetGroundTruth(0.0);
  s.policy->OnCollection(CollectionOutcome{0, 0}, At(100, 10000));
  s.oracle->SetGroundTruth(50000.0);
  s.policy->OnCollection(CollectionOutcome{0, 0}, At(200, 10000));
  // slope = 500; numerator = 0 - (50000 - 1000) < 0 -> dt_min.
  EXPECT_EQ(s.policy->State().last_interval, o.dt_min);
}

TEST(SagaPolicyTest, NextCollectionScheduledAtDt) {
  SagaPolicy::Options o = Opts(0.10);
  o.slope_weight = 0.0;
  OracleSaga s(o);
  s.oracle->SetGroundTruth(1000.0);
  s.policy->OnCollection(CollectionOutcome{0, 500}, At(100, 10000));
  s.oracle->SetGroundTruth(1200.0);
  s.policy->OnCollection(CollectionOutcome{0, 600}, At(200, 10000));
  ASSERT_EQ(s.policy->State().last_interval, 50u);
  EXPECT_FALSE(s.policy->ShouldCollect(At(249, 10000)));
  EXPECT_TRUE(s.policy->ShouldCollect(At(250, 10000)));
}

TEST(SagaPolicyTest, ReadOnlyPhaseFreezesTime) {
  // If no pointer overwrites happen, ShouldCollect never fires — the
  // paper's observation that "time" stops during Traverse.
  OracleSaga s(Opts(0.10, /*bootstrap=*/100));
  SimClock frozen = At(50, 10000);
  frozen.app_io = 1000000;  // plenty of I/O, but no overwrites
  EXPECT_FALSE(s.policy->ShouldCollect(frozen));
}

TEST(SagaPolicyTest, NameIncludesEstimator) {
  OracleSaga s(Opts(0.05));
  EXPECT_NE(s.policy->name().find("SAGA"), std::string::npos);
  EXPECT_NE(s.policy->name().find("Oracle"), std::string::npos);
}

TEST(SagaPolicyTest, RejectsInvalidOptions) {
  auto make = [](double frac) {
    SagaPolicy::Options o;
    o.garbage_frac = frac;
    return o;
  };
  EXPECT_DEATH(
      { SagaPolicy p(make(0.0), std::make_unique<OracleEstimator>()); }, "");
  EXPECT_DEATH(
      { SagaPolicy p(make(1.5), std::make_unique<OracleEstimator>()); }, "");
}


TEST(SagaPolicyTest, CollectionAtSameOverwriteTimeSkipsSlopeUpdate) {
  SagaPolicy::Options o = Opts(0.10);
  o.slope_weight = 0.0;
  OracleSaga s(o);
  s.oracle->SetGroundTruth(0.0);
  s.policy->OnCollection(CollectionOutcome{0, 0}, At(100, 10000));
  s.oracle->SetGroundTruth(1000.0);
  s.policy->OnCollection(CollectionOutcome{0, 0}, At(200, 10000));
  double slope = s.policy->slope();
  // A second collection at the same overwrite time (e.g. dt_min spam
  // during a write-free stretch) must not divide by zero or move the
  // slope.
  s.oracle->SetGroundTruth(1500.0);
  s.policy->OnCollection(CollectionOutcome{0, 0}, At(200, 10000));
  EXPECT_DOUBLE_EQ(s.policy->slope(), slope);
}

TEST(SagaPolicyTest, TargetScalesWithDatabaseSize) {
  SagaPolicy::Options o = Opts(0.10);
  o.slope_weight = 0.0;
  OracleSaga s(o);
  // Same garbage level, different database sizes: the bigger database
  // tolerates more garbage, so its next interval is longer.
  s.oracle->SetGroundTruth(0.0);
  s.policy->OnCollection(CollectionOutcome{0, 0}, At(100, 10000));
  s.oracle->SetGroundTruth(2000.0);
  s.policy->OnCollection(CollectionOutcome{0, 1000}, At(200, 10000));
  uint64_t small_db_dt = s.policy->State().last_interval;

  OracleSaga s2(o);
  s2.oracle->SetGroundTruth(0.0);
  s2.policy->OnCollection(CollectionOutcome{0, 0}, At(100, 100000));
  s2.oracle->SetGroundTruth(2000.0);
  s2.policy->OnCollection(CollectionOutcome{0, 1000}, At(200, 100000));
  uint64_t big_db_dt = s2.policy->State().last_interval;
  EXPECT_GT(big_db_dt, small_db_dt);
}

TEST(SagaPolicyTest, ClampCountersStartAtZero) {
  OracleSaga s(Opts(0.10));
  EXPECT_EQ(s.policy->State().dt_min_clamps, 0u);
  EXPECT_EQ(s.policy->State().dt_max_clamps, 0u);
}

}  // namespace
}  // namespace odbgc
