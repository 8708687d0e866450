#include <atomic>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/parallel.h"
#include "sim/report.h"
#include "sim/runner.h"
#include "util/json.h"

namespace odbgc {
namespace {

SimConfig TinySagaConfig(EstimatorKind est) {
  SimConfig cfg;
  cfg.store.partition_bytes = 16 * 1024;
  cfg.store.page_bytes = 2 * 1024;
  cfg.store.buffer_pages = 8;
  cfg.preamble_collections = 3;
  cfg.policy = PolicyKind::kSaga;
  cfg.estimator = est;
  cfg.fgs_history_factor = 0.8;
  cfg.saga.garbage_frac = 0.10;
  return cfg;
}

SimConfig TinySaioConfig() {
  SimConfig cfg;
  cfg.store.partition_bytes = 16 * 1024;
  cfg.store.page_bytes = 2 * 1024;
  cfg.store.buffer_pages = 8;
  cfg.preamble_collections = 3;
  cfg.policy = PolicyKind::kSaio;
  cfg.saio_frac = 0.10;
  return cfg;
}

// Every observable a table would print, compared field by field.
void ExpectSameResult(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.collections, b.collections);
  EXPECT_EQ(a.clock.app_io, b.clock.app_io);
  EXPECT_EQ(a.clock.gc_io, b.clock.gc_io);
  EXPECT_EQ(a.clock.pointer_overwrites, b.clock.pointer_overwrites);
  EXPECT_EQ(a.achieved_gc_io_pct, b.achieved_gc_io_pct);
  EXPECT_EQ(a.garbage_pct.mean(), b.garbage_pct.mean());
  EXPECT_EQ(a.garbage_pct.min(), b.garbage_pct.min());
  EXPECT_EQ(a.garbage_pct.max(), b.garbage_pct.max());
  EXPECT_EQ(a.total_reclaimed_bytes, b.total_reclaimed_bytes);
  EXPECT_EQ(a.final_actual_garbage_bytes, b.final_actual_garbage_bytes);
  EXPECT_EQ(a.log.size(), b.log.size());
  for (size_t i = 0; i < a.log.size() && i < b.log.size(); ++i) {
    EXPECT_EQ(a.log[i].index, b.log[i].index);
    EXPECT_EQ(a.log[i].actual_garbage_pct, b.log[i].actual_garbage_pct);
    EXPECT_EQ(a.log[i].estimated_garbage_pct, b.log[i].estimated_garbage_pct);
  }
}

TEST(ResolveThreadCountTest, PositivePassesThroughElseHardware) {
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_EQ(ResolveThreadCount(7), 7);
  EXPECT_GE(ResolveThreadCount(0), 1);
  EXPECT_GE(ResolveThreadCount(-3), 1);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexInOrderSlots) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<size_t> out(100, 0);
  pool.ParallelFor(out.size(), [&](size_t i) { out[i] = i * i; });
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i * i);
  }
}

TEST(ThreadPoolTest, ParallelForZeroTasksReturnsImmediately) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, ParallelForRethrowsLowestIndexAndStaysUsable) {
  ThreadPool pool(3);
  std::atomic<int> completed{0};
  try {
    pool.ParallelFor(10, [&](size_t i) {
      if (i == 2 || i == 7) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
      ++completed;
    });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 2");  // lowest failing index wins
  }
  EXPECT_EQ(completed.load(), 8);  // the batch drained despite the throws

  // The pool survives a throwing batch.
  std::atomic<int> again{0};
  pool.ParallelFor(5, [&](size_t) { ++again; });
  EXPECT_EQ(again.load(), 5);
}

TEST(ThreadPoolTest, ParallelForOverlapJoinsTheBatchBeforeRethrowing) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  int overlap_worker = 0;
  // The overlap runs on the calling thread; its exception surfaces only
  // after the whole batch has finished.
  EXPECT_THROW(pool.ParallelFor(
                   6, [&](size_t) { ++completed; },
                   [&] {
                     overlap_worker = ThreadPool::current_worker_index();
                     throw std::logic_error("overlap");
                   }),
               std::logic_error);
  EXPECT_EQ(overlap_worker, -1);
  EXPECT_EQ(completed.load(), 6);

  // A task's exception wins over the overlap's.
  try {
    pool.ParallelFor(
        4,
        [](size_t i) {
          if (i == 1) throw std::runtime_error("task 1");
        },
        [] { throw std::logic_error("overlap"); });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 1");
  }

  // An empty batch still runs the overlap.
  bool ran = false;
  pool.ParallelFor(0, [](size_t) {}, [&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(ThreadPoolTest, SubmitAndWaitRunsEverything) {
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  for (int i = 1; i <= 10; ++i) {
    pool.Submit([&sum, i] { sum += i; });
  }
  pool.Wait();
  EXPECT_EQ(sum.load(), 55);
}

TEST(TraceCacheTest, GeneratesOncePerKeyAndCountsHits) {
  TraceCache cache;
  Oo7Params params = Oo7Params::Tiny();
  std::shared_ptr<const Trace> a = cache.GetOo7(params, 1);
  std::shared_ptr<const Trace> b = cache.GetOo7(params, 1);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());  // same immutable trace, not a copy
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);

  // A different seed or different params is a different trace.
  std::shared_ptr<const Trace> c = cache.GetOo7(params, 2);
  EXPECT_NE(a.get(), c.get());
  Oo7Params denser = params;
  denser.num_conn_per_atomic += 1;
  std::shared_ptr<const Trace> d = cache.GetOo7(denser, 1);
  EXPECT_NE(a.get(), d.get());
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(TraceCacheTest, ConcurrentRequestsShareOneGeneration) {
  TraceCache cache;
  Oo7Params params = Oo7Params::Tiny();
  ThreadPool pool(8);
  std::vector<std::shared_ptr<const Trace>> got(32);
  pool.ParallelFor(got.size(), [&](size_t i) {
    got[i] = cache.GetOo7(params, 42);
  });
  for (const auto& t : got) {
    EXPECT_EQ(t.get(), got[0].get());
  }
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), got.size() - 1);
}

TEST(SweepRunnerTest, EmptyGridYieldsEmptyResults) {
  SweepRunner runner(2);
  std::vector<SimResult> results = runner.Run({});
  EXPECT_TRUE(results.empty());
}

TEST(SweepRunnerTest, RunOneMatchesRunOo7Once) {
  Oo7Params params = Oo7Params::Tiny();
  SimConfig cfg = TinySagaConfig(EstimatorKind::kFgsHb);
  SimResult serial = RunOo7Once(cfg, params, 5);
  SweepRunner runner(3);
  SimResult pooled = runner.RunOne(cfg, params, 5);
  ExpectSameResult(serial, pooled);
}

TEST(SweepRunnerTest, GridResultsLandInSubmissionOrder) {
  Oo7Params params = Oo7Params::Tiny();
  std::vector<SweepPoint> points;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SweepPoint p;
    p.config = TinySagaConfig(EstimatorKind::kOracle);
    p.params = params;
    p.seed = seed;
    points.push_back(p);
  }
  SweepRunner runner(4);
  std::vector<SimResult> results = runner.Run(points);
  ASSERT_EQ(results.size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    SimResult serial = RunOo7Once(points[i].config, params, points[i].seed);
    ExpectSameResult(serial, results[i]);
  }
}

void ExpectSameAggregate(const AggregateResult& a, const AggregateResult& b) {
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (size_t i = 0; i < a.runs.size(); ++i) {
    ExpectSameResult(a.runs[i], b.runs[i]);
  }
  EXPECT_EQ(a.achieved_io_pct.mean, b.achieved_io_pct.mean);
  EXPECT_EQ(a.mean_garbage_pct.mean, b.mean_garbage_pct.mean);
  EXPECT_EQ(a.mean_garbage_pct.min, b.mean_garbage_pct.min);
  EXPECT_EQ(a.mean_garbage_pct.max, b.mean_garbage_pct.max);
  EXPECT_EQ(a.collections.mean, b.collections.mean);
  EXPECT_EQ(a.total_io.mean, b.total_io.mean);
}

// The tentpole guarantee: RunOo7Many is byte-identical for any thread
// count. Exercised for both adaptive policies.
TEST(DeterminismTest, SagaAggregateIdenticalAcrossThreadCounts) {
  Oo7Params params = Oo7Params::Tiny();
  SimConfig cfg = TinySagaConfig(EstimatorKind::kFgsHb);
  AggregateResult serial = RunOo7Many(cfg, params, 1, 4, /*threads=*/1);
  AggregateResult pooled = RunOo7Many(cfg, params, 1, 4, /*threads=*/4);
  ExpectSameAggregate(serial, pooled);
}

TEST(DeterminismTest, SaioAggregateIdenticalAcrossThreadCounts) {
  Oo7Params params = Oo7Params::Tiny();
  SimConfig cfg = TinySaioConfig();
  AggregateResult serial = RunOo7Many(cfg, params, 10, 4, /*threads=*/1);
  AggregateResult pooled = RunOo7Many(cfg, params, 10, 4, /*threads=*/3);
  ExpectSameAggregate(serial, pooled);
}

// Regression for the failed-generation retry path: a generator that
// throws must erase its slot so a later request regenerates instead of
// reporting the stale failure forever.
TEST(TraceCacheTest, FailedGenerationLeavesNoPoisonedSlot) {
  TraceCache cache;
  Oo7Params params = Oo7Params::Tiny();
  std::atomic<int> calls{0};
  cache.set_generator_for_test(
      [&calls](const Oo7Params& p,
               uint64_t seed) -> std::shared_ptr<const Trace> {
        if (calls.fetch_add(1) == 0) {
          throw std::runtime_error("simulated generation failure");
        }
        return GenerateOo7Trace(p, seed);
      });
  EXPECT_THROW(cache.GetOo7(params, 1), std::runtime_error);
  std::shared_ptr<const Trace> t = cache.GetOo7(params, 1);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(cache.misses(), 2u);  // the poisoned slot did not count as a hit
}

TEST(TraceCacheTest, NullGeneratorResultIsAFailureNotACrash) {
  TraceCache cache;
  Oo7Params params = Oo7Params::Tiny();
  bool first = true;
  cache.set_generator_for_test(
      [&first](const Oo7Params& p,
               uint64_t seed) -> std::shared_ptr<const Trace> {
        if (first) {
          first = false;
          return nullptr;
        }
        return GenerateOo7Trace(p, seed);
      });
  EXPECT_THROW(cache.GetOo7(params, 2), std::runtime_error);
  EXPECT_NE(cache.GetOo7(params, 2), nullptr);  // slot was erased, retried
}

// --- sweep failure isolation ---------------------------------------------

TEST(SweepRunnerTest, FailedRunIsIsolatedAndOthersMatchCleanSweep) {
  Oo7Params params = Oo7Params::Tiny();
  std::vector<SweepPoint> points;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SweepPoint p;
    p.config = TinySagaConfig(EstimatorKind::kFgsHb);
    p.params = params;
    p.seed = seed;
    points.push_back(p);
  }
  for (int threads : {1, 4}) {
    SweepRunner clean_runner(threads);
    std::vector<RunOutcome> clean = clean_runner.RunWithStatus(points);
    ASSERT_EQ(clean.size(), points.size());
    for (const RunOutcome& out : clean) {
      EXPECT_TRUE(out.status.ok());
    }

    std::vector<SweepPoint> broken = points;
    broken[2].config.store.fault.crash_at_event = 500;
    SweepRunner broken_runner(threads);
    std::vector<RunOutcome> outcomes = broken_runner.RunWithStatus(broken);
    ASSERT_EQ(outcomes.size(), points.size());
    EXPECT_TRUE(outcomes[2].status.failed);
    EXPECT_EQ(outcomes[2].status.error_kind, SimErrorKind::kCrashInjected);
    EXPECT_NE(outcomes[2].exception, nullptr);
    for (size_t i = 0; i < outcomes.size(); ++i) {
      if (i == 2) continue;
      EXPECT_TRUE(outcomes[i].status.ok()) << "run " << i;
      ExpectSameResult(clean[i].result, outcomes[i].result);
    }
  }
}

TEST(SweepRunnerTest, RunFailFastRethrowsTheFailure) {
  Oo7Params params = Oo7Params::Tiny();
  SweepPoint p;
  p.config = TinySaioConfig();
  p.config.store.fault.crash_at_event = 200;
  p.params = params;
  p.seed = 1;
  SweepRunner runner(2);
  EXPECT_THROW(runner.Run({p}), SimCrashInjected);
}

TEST(SweepRunnerTest, TransientFailureIsRetriedToSuccess) {
  Oo7Params params = Oo7Params::Tiny();
  SweepPoint p;
  p.config = TinySaioConfig();
  p.params = params;
  p.seed = 3;
  SweepRunner runner(1);
  std::atomic<int> calls{0};
  runner.cache().set_generator_for_test(
      [&calls](const Oo7Params& pp,
               uint64_t s) -> std::shared_ptr<const Trace> {
        if (calls.fetch_add(1) == 0) {
          throw SimDeadlineExceeded(1.0, 1.0);  // transient by contract
        }
        return GenerateOo7Trace(pp, s);
      });
  SweepOptions opt;
  opt.max_attempts = 3;
  std::vector<RunOutcome> outcomes = runner.RunWithStatus({p}, opt);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].status.ok());
  EXPECT_EQ(outcomes[0].status.attempts, 2);
  ExpectSameResult(outcomes[0].result, RunOo7Once(p.config, params, 3));
}

TEST(SweepRunnerTest, DeterministicFailureIsNotRetried) {
  Oo7Params params = Oo7Params::Tiny();
  SweepPoint p;
  p.config = TinySaioConfig();
  p.config.store.fault.crash_at_event = 100;  // would crash identically again
  p.params = params;
  p.seed = 1;
  SweepOptions opt;
  opt.max_attempts = 3;
  SweepRunner runner(2);
  std::vector<RunOutcome> outcomes = runner.RunWithStatus({p}, opt);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].status.failed);
  EXPECT_EQ(outcomes[0].status.error_kind, SimErrorKind::kCrashInjected);
  EXPECT_EQ(outcomes[0].status.attempts, 1);
}

// Resumable sweeps: a sweep whose runs all "die" mid-trace, rerun with
// the same checkpoint prefix, finishes byte-identical to a clean sweep.
TEST(SweepRunnerTest, CrashedSweepResumesByteIdentical) {
  Oo7Params params = Oo7Params::Tiny();
  std::vector<SweepPoint> points;
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    SweepPoint p;
    p.config = TinySaioConfig();
    p.params = params;
    p.seed = seed;
    points.push_back(p);
  }
  const std::string prefix = ::testing::TempDir() + "odbgc_sweep";
  for (size_t i = 0; i < points.size(); ++i) {
    const std::string ckpt = prefix + ".run" + std::to_string(i) + ".ckpt";
    std::remove(ckpt.c_str());
    std::remove((ckpt + ".prev").c_str());
  }
  SweepOptions opt;
  opt.checkpoint_prefix = prefix;
  opt.checkpoint_every = 301;

  SweepRunner clean_runner(2);
  std::vector<RunOutcome> clean = clean_runner.RunWithStatus(points);

  std::vector<SweepPoint> crashing = points;
  for (SweepPoint& p : crashing) {
    p.config.store.fault.crash_at_event = 1000;
  }
  SweepRunner crash_runner(2);
  std::vector<RunOutcome> crashed = crash_runner.RunWithStatus(crashing, opt);
  for (const RunOutcome& out : crashed) {
    EXPECT_TRUE(out.status.failed);
    EXPECT_EQ(out.status.error_kind, SimErrorKind::kCrashInjected);
  }

  SweepRunner resume_runner(2);
  std::vector<RunOutcome> resumed = resume_runner.RunWithStatus(points, opt);
  ASSERT_EQ(resumed.size(), clean.size());
  for (size_t i = 0; i < resumed.size(); ++i) {
    EXPECT_TRUE(resumed[i].status.ok()) << "run " << i;
    ExpectSameResult(clean[i].result, resumed[i].result);
  }
  for (size_t i = 0; i < points.size(); ++i) {
    const std::string ckpt = prefix + ".run" + std::to_string(i) + ".ckpt";
    std::remove(ckpt.c_str());
    std::remove((ckpt + ".prev").c_str());
  }
}

// --- sweep report JSON -----------------------------------------------------

TEST(SweepReportTest, CarriesPerRunStatusAndSummary) {
  Oo7Params params = Oo7Params::Tiny();
  std::vector<SweepPoint> points;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SweepPoint p;
    p.config = TinySaioConfig();
    p.params = params;
    p.seed = seed;
    points.push_back(p);
  }
  points[1].config.store.fault.crash_at_event = 300;
  SweepRunner runner(2);
  std::vector<RunOutcome> outcomes = runner.RunWithStatus(points);

  std::string json = SweepReportToJson(points, outcomes);
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(JsonValue::Parse(json, &doc, &err)) << err;

  const JsonValue* runs = doc.Find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_TRUE(runs->is_array());
  ASSERT_EQ(runs->array_items().size(), 3u);
  const JsonValue& ok_run = runs->array_items()[0];
  EXPECT_EQ(ok_run.Find("status")->string_value(), "ok");
  EXPECT_TRUE(ok_run.Has("report"));
  const JsonValue& bad_run = runs->array_items()[1];
  EXPECT_EQ(bad_run.Find("status")->string_value(), "failed");
  EXPECT_EQ(bad_run.Find("error_kind")->string_value(), "crash_injected");
  EXPECT_FALSE(bad_run.Has("report"));

  const JsonValue* summary = doc.Find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->Find("total")->number_value(), 3.0);
  EXPECT_EQ(summary->Find("ok")->number_value(), 2.0);
  EXPECT_EQ(summary->Find("failed")->number_value(), 1.0);
}

TEST(SweepRunnerTest, InvalidOptionsAreRejectedWithTypedError) {
  SweepRunner runner(1);
  SweepPoint p;
  p.config = TinySaioConfig();
  p.params = Oo7Params::Tiny();
  p.seed = 1;

  SweepOptions bad_attempts;
  bad_attempts.max_attempts = 0;
  EXPECT_THROW(runner.RunWithStatus({p}, bad_attempts), SimInvalidConfig);

  SweepOptions bad_backoff;
  bad_backoff.retry_backoff_ms = -1.0;
  EXPECT_THROW(runner.RunWithStatus({p}, bad_backoff), SimInvalidConfig);

  SweepOptions bad_deadline;
  bad_deadline.run_deadline_ms = -5.0;
  EXPECT_THROW(runner.RunWithStatus({p}, bad_deadline), SimInvalidConfig);

  SweepOptions bad_checkpoint;
  bad_checkpoint.checkpoint_every = 100;  // but no prefix
  EXPECT_THROW(runner.RunWithStatus({p}, bad_checkpoint), SimInvalidConfig);

  // The rejection happens before any run: the runner stays usable and the
  // error is classified + non-transient.
  try {
    runner.RunWithStatus({p}, bad_attempts);
    FAIL() << "expected SimInvalidConfig";
  } catch (const SimInvalidConfig& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kInvalidConfig);
    EXPECT_FALSE(e.transient());
  }
  std::vector<RunOutcome> ok = runner.RunWithStatus({p}, SweepOptions{});
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_TRUE(ok[0].status.ok());
}

TEST(SweepRunnerTest, AbsurdThreadCountIsRejectedAtConstruction) {
  EXPECT_THROW(SweepRunner(1 << 20), SimInvalidConfig);
  EXPECT_EQ(std::string(SimErrorKindName(SimErrorKind::kInvalidConfig)),
            "invalid_config");
}

TEST(DeterminismTest, RepeatedPooledRunsAgree) {
  Oo7Params params = Oo7Params::Tiny();
  SimConfig cfg = TinySagaConfig(EstimatorKind::kCgsCb);
  SweepRunner runner(4);
  AggregateResult first = runner.RunMany(cfg, params, 1, 3);
  AggregateResult second = runner.RunMany(cfg, params, 1, 3);  // cache hits
  ExpectSameAggregate(first, second);
  EXPECT_GT(runner.cache().hits(), 0u);
}

}  // namespace
}  // namespace odbgc
