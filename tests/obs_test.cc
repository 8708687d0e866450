#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/decision_ledger.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/timeseries.h"
#include "obs/trace_recorder.h"
#include "util/snapshot.h"

namespace odbgc::obs {
namespace {

TEST(HistogramTest, EmptyHistogramReportsZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(50.0), 0.0);
  EXPECT_EQ(h.Percentile(99.0), 0.0);
}

TEST(HistogramTest, SingleValueIsEveryPercentile) {
  Histogram h;
  h.Record(37);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 37u);
  EXPECT_EQ(h.max(), 37u);
  EXPECT_EQ(h.mean(), 37.0);
  // Clamped to observed [min, max], so an exact-value distribution
  // reports exact percentiles despite the log-scale buckets.
  EXPECT_EQ(h.Percentile(0.0), 37.0);
  EXPECT_EQ(h.Percentile(50.0), 37.0);
  EXPECT_EQ(h.Percentile(100.0), 37.0);
}

TEST(HistogramTest, ZeroGetsItsOwnExactBucket) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.Record(0);
  EXPECT_EQ(h.Percentile(50.0), 0.0);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, UniformDistributionPercentilesWithinBucketError) {
  // 1..1000 uniformly: the log-2 buckets bound relative error by the
  // bucket width, so p50 must land within [256, 512) interpolation
  // range of the true 500 and p99 within the top bucket of 1000.
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_NEAR(h.mean(), 500.5, 1e-9);

  const double p50 = h.Percentile(50.0);
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 512.0);
  const double p99 = h.Percentile(99.0);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1000.0);
  // Percentiles are monotone.
  EXPECT_LE(h.Percentile(50.0), h.Percentile(95.0));
  EXPECT_LE(h.Percentile(95.0), h.Percentile(99.0));
  EXPECT_LE(h.Percentile(99.0), h.Percentile(100.0));
  EXPECT_EQ(h.Percentile(100.0), 1000.0);
}

TEST(HistogramTest, TwoPointDistribution) {
  // 90 samples of 10, 10 samples of 1000: p50 is in 10's bucket,
  // p95 and p99 in 1000's.
  Histogram h;
  for (int i = 0; i < 90; ++i) h.Record(10);
  for (int i = 0; i < 10; ++i) h.Record(1000);
  EXPECT_LE(h.Percentile(50.0), 16.0);  // 10 lives in [8, 16)
  EXPECT_GE(h.Percentile(50.0), 8.0);
  EXPECT_GE(h.Percentile(95.0), 512.0);  // 1000 lives in [512, 1024)
  EXPECT_LE(h.Percentile(95.0), 1000.0);
  EXPECT_LE(h.Percentile(99.0), 1000.0);
}

TEST(HistogramTest, LargeValuesDoNotOverflowBuckets) {
  Histogram h;
  h.Record(UINT64_MAX);
  h.Record(UINT64_MAX);
  EXPECT_EQ(h.max(), UINT64_MAX);
  EXPECT_GT(h.Percentile(50.0), 0.0);
}

TEST(MetricsRegistryTest, HandlesAreStableAndSharedById) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("x.count");
  Counter* b = reg.GetCounter("x.count");
  EXPECT_EQ(a, b);
  a->Increment();
  b->Add(4);
  EXPECT_EQ(a->value, 5u);

  Gauge* g = reg.GetGauge("x.level");
  g->Set(2.5);
  Histogram* h = reg.GetHistogram("x.dist");
  h->Record(8);

  // Force a reallocation of the registry's backing storage; previously
  // returned pointers must stay valid.
  for (int i = 0; i < 100; ++i) {
    std::string id = "filler." + std::to_string(i);
    reg.GetCounter(id.c_str())->Increment();
  }
  EXPECT_EQ(a->value, 5u);
  a->Increment();
  EXPECT_EQ(reg.GetCounter("x.count")->value, 6u);
}

TEST(MetricsRegistryTest, SnapshotIsSortedById) {
  MetricsRegistry reg;
  reg.GetCounter("zebra")->Add(1);
  reg.GetCounter("alpha")->Add(2);
  reg.GetCounter("mid")->Add(3);
  reg.GetGauge("g2")->Set(2.0);
  reg.GetGauge("g1")->Set(1.0);
  reg.GetHistogram("h")->Record(5);

  TelemetrySnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].id, "alpha");
  EXPECT_EQ(snap.counters[1].id, "mid");
  EXPECT_EQ(snap.counters[2].id, "zebra");
  EXPECT_EQ(snap.counters[0].value, 2u);
  ASSERT_EQ(snap.gauges.size(), 2u);
  EXPECT_EQ(snap.gauges[0].id, "g1");
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  EXPECT_EQ(snap.histograms[0].p50, 5.0);
  EXPECT_FALSE(snap.empty());
  EXPECT_TRUE(TelemetrySnapshot{}.empty());
}

TEST(TraceRecorderTest, RecordsNestedSpansInOrder) {
  TraceRecorder rec;
  rec.Begin("outer", 10);
  rec.Begin("inner", 11, {{"k", uint64_t{7}}});
  rec.Instant("ping", 12);
  rec.End("inner", 13);
  rec.End("outer", 14);

  ASSERT_EQ(rec.size(), 5u);
  EXPECT_EQ(rec.events()[0].ph, 'B');
  EXPECT_STREQ(rec.events()[0].name, "outer");
  EXPECT_EQ(rec.events()[1].ph, 'B');
  ASSERT_EQ(rec.events()[1].args.size(), 1u);
  EXPECT_EQ(rec.events()[1].args[0].u64, 7u);
  EXPECT_EQ(rec.events()[2].ph, 'i');
  EXPECT_EQ(rec.events()[3].ph, 'E');
  EXPECT_EQ(rec.events()[4].ph, 'E');
  EXPECT_EQ(rec.events()[4].ts, 14u);
  EXPECT_EQ(rec.open_spans(), 0u);
  EXPECT_EQ(rec.dropped_events(), 0u);
}

TEST(TraceRecorderTest, CapDropsBalancedSpans) {
  TraceRecorder rec(/*max_events=*/4);
  rec.Begin("a", 1);     // admitted
  rec.Instant("x", 2);   // admitted
  rec.Instant("y", 3);   // admitted
  rec.Instant("z", 4);   // admitted: buffer now full
  rec.Begin("b", 5);     // dropped (cap)
  rec.Instant("w", 6);   // dropped
  rec.End("b", 7);       // dropped: matches the dropped Begin
  rec.End("a", 8);       // admitted past the cap: balances admitted Begin

  EXPECT_EQ(rec.size(), 5u);
  EXPECT_EQ(rec.events().back().ph, 'E');
  EXPECT_STREQ(rec.events().back().name, "a");
  EXPECT_EQ(rec.dropped_events(), 3u);
  EXPECT_EQ(rec.open_spans(), 0u);

  // The retained stream is balanced: depth never goes negative and ends
  // at zero.
  long depth = 0;
  for (const TraceEventRec& e : rec.events()) {
    if (e.ph == 'B') ++depth;
    if (e.ph == 'E') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(TelemetryTest, OptionsGateTheRecorder) {
  TelemetryOptions metrics_only;
  metrics_only.enabled = true;
  Telemetry t1(metrics_only);
  EXPECT_EQ(t1.recorder(), nullptr);
  t1.Instant("ignored");  // must be a safe no-op
  EXPECT_TRUE(metrics_only.any());

  TelemetryOptions with_trace;
  with_trace.enabled = true;
  with_trace.capture_trace = true;
  Telemetry t2(with_trace);
  ASSERT_NE(t2.recorder(), nullptr);
  t2.Advance(5);
  t2.Instant("e");
  EXPECT_EQ(t2.recorder()->events()[0].ts, 5u);

  EXPECT_FALSE(TelemetryOptions{}.any());
}

TEST(TelemetryTest, ScopedSpanBalancesAndNullIsNoop) {
  TelemetryOptions opts;
  opts.enabled = true;
  opts.capture_trace = true;
  Telemetry tel(opts);
  {
    ScopedSpan outer(&tel, "outer");
    tel.Advance();
    ScopedSpan inner(&tel, "inner", {{"n", uint64_t{1}}});
  }
  ASSERT_EQ(tel.recorder()->size(), 4u);
  EXPECT_EQ(tel.recorder()->open_spans(), 0u);

  // Null telemetry: every ScopedSpan operation is a no-op.
  { ScopedSpan nothing(nullptr, "x"); }
}

// --- histogram edge cases -------------------------------------------------

TEST(HistogramTest, ExactPowersOfTwoKeepMinMaxAndExtremesExact) {
  // 2^k is the first value of bucket k+1 — every sample here sits on a
  // bucket boundary, the worst case for the log-scale layout.
  Histogram h;
  uint64_t sum = 0;
  for (int k = 0; k <= 62; ++k) {
    h.Record(uint64_t{1} << k);
    sum += uint64_t{1} << k;
  }
  EXPECT_EQ(h.count(), 63u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), uint64_t{1} << 62);
  EXPECT_EQ(h.mean(), static_cast<double>(sum) / 63.0);
  EXPECT_EQ(h.Percentile(0.0), 1.0);
  EXPECT_EQ(h.Percentile(100.0), static_cast<double>(uint64_t{1} << 62));
}

TEST(HistogramTest, BucketBoundaryNeighborsKeepPercentilesOrdered) {
  // 2^k - 1 and 2^k land in adjacent buckets; percentiles must stay
  // monotone and inside the observed range across that boundary.
  Histogram h;
  const uint64_t k = uint64_t{1} << 10;
  h.Record(k - 1);
  h.Record(k);
  h.Record(k + 1);
  double prev = h.Percentile(0.0);
  for (double p : {10.0, 50.0, 90.0, 99.0, 100.0}) {
    const double v = h.Percentile(p);
    EXPECT_GE(v, prev) << "p=" << p;
    EXPECT_GE(v, static_cast<double>(k - 1)) << "p=" << p;
    EXPECT_LE(v, static_cast<double>(k + 1)) << "p=" << p;
    prev = v;
  }
}

TEST(HistogramTest, P99OnEmptyAndSingleSample) {
  Histogram empty;
  EXPECT_EQ(empty.Percentile(99.0), 0.0);

  Histogram single;
  single.Record(5);
  EXPECT_EQ(single.Percentile(99.0), 5.0);
}

TEST(HistogramTest, SaveRestoreRoundTripIsBitExact) {
  Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(1023);
  h.Record(1024);
  h.Record(UINT64_MAX);
  SnapshotWriter w;
  h.SaveState(w);

  Histogram restored;
  restored.Record(7);  // pre-existing state must be overwritten
  SnapshotReader r(w.data());
  restored.RestoreState(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(restored.count(), h.count());
  EXPECT_EQ(restored.min(), h.min());
  EXPECT_EQ(restored.max(), h.max());
  EXPECT_EQ(restored.mean(), h.mean());
  for (double p : {50.0, 95.0, 99.0}) {
    EXPECT_EQ(restored.Percentile(p), h.Percentile(p));
  }
}

TEST(MetricsRegistryTest, CounterOverflowWrapsModulo64Bits) {
  // Counters are plain uint64 adds: overflow wraps (defined unsigned
  // behavior) rather than saturating. A run long enough to wrap a
  // counter is outside the design envelope, but the behavior is pinned
  // so a wrap shows up as a small value, not UB.
  MetricsRegistry m;
  Counter* c = m.GetCounter("test.wrap");
  c->Add(UINT64_MAX);
  EXPECT_EQ(c->value, UINT64_MAX);
  c->Add(2);
  EXPECT_EQ(c->value, 1u);
  c->Increment();
  EXPECT_EQ(c->value, 2u);
}

TEST(MetricsRegistryTest, SaveRestoreIsRegistrationOrderIndependent) {
  MetricsRegistry a;
  a.GetCounter("z.counter")->Add(42);
  a.GetCounter("a.counter")->Add(7);
  a.GetGauge("m.gauge")->Set(2.5);
  a.GetHistogram("h.hist")->Record(100);

  SnapshotWriter w;
  a.SaveState(w);

  // The restoring registry registered the same ids in a different order
  // (lazy registration order differs across configs); restored values
  // must land on the right instruments anyway.
  MetricsRegistry b;
  Counter* pre = b.GetCounter("a.counter");
  b.GetHistogram("h.hist");
  SnapshotReader r(w.data());
  b.RestoreState(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(pre->value, 7u);  // handle stability across restore
  EXPECT_EQ(b.GetCounter("z.counter")->value, 42u);
  EXPECT_EQ(b.GetGauge("m.gauge")->value, 2.5);
  EXPECT_EQ(b.GetHistogram("h.hist")->count(), 1u);

  // And the snapshots (the JSON surface) agree entirely.
  TelemetrySnapshot sa = a.Snapshot();
  TelemetrySnapshot sb = b.Snapshot();
  ASSERT_EQ(sa.counters.size(), sb.counters.size());
  for (size_t i = 0; i < sa.counters.size(); ++i) {
    EXPECT_EQ(sa.counters[i].id, sb.counters[i].id);
    EXPECT_EQ(sa.counters[i].value, sb.counters[i].value);
  }
}

// --- decision ledger ------------------------------------------------------

PolicyDecisionRecord ContextAt(uint64_t tick) {
  PolicyDecisionRecord ctx;
  ctx.tick = tick;
  ctx.event = tick * 2;
  ctx.collection = tick;
  ctx.app_io = tick * 10;
  ctx.io_pct = 12.5;
  ctx.db_used_bytes = 1 << 20;
  return ctx;
}

TEST(DecisionLedgerTest, RingShedsOldestAndCountsDropped) {
  DecisionLedger ledger(4);
  for (uint64_t i = 0; i < 6; ++i) {
    ledger.SetContext(ContextAt(i));
    ledger.Append("saga", DecisionReason::kSlopeSolve, 10.0, 100 + i, 10.0);
  }
  EXPECT_EQ(ledger.size(), 4u);
  EXPECT_EQ(ledger.total(), 6u);
  EXPECT_EQ(ledger.dropped(), 2u);
  std::vector<PolicyDecisionRecord> records = ledger.Records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().seq, 2u);  // oldest surviving decision
  EXPECT_EQ(records.back().seq, 5u);
  EXPECT_EQ(records.front().tick, 2u);
  EXPECT_EQ(records.back().next_threshold, 105u);
}

TEST(DecisionLedgerTest, SaveRestoreRoundTripsRecordsExactly) {
  // A full ring that has shed records: 7 appended, 4 kept, 3 dropped.
  DecisionLedger ledger(4);
  for (uint64_t i = 0; i < 7; ++i) {
    ledger.SetContext(ContextAt(i));
    ledger.Append(i % 2 == 0 ? "saio" : "saga",
                  i % 2 == 0 ? DecisionReason::kBudgetSolve
                             : DecisionReason::kDtMinClamp,
                  3.5 * static_cast<double>(i), 50 + i, 10.0);
  }
  ASSERT_EQ(ledger.dropped(), 3u);
  SnapshotWriter w;
  ledger.SaveState(w);

  DecisionLedger restored(4);
  SnapshotReader r(w.data());
  restored.RestoreState(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(restored.total(), 7u);
  EXPECT_EQ(restored.dropped(), 3u);
  std::vector<PolicyDecisionRecord> a = ledger.Records();
  std::vector<PolicyDecisionRecord> b = restored.Records();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seq, b[i].seq);
    EXPECT_EQ(a[i].policy, b[i].policy);
    EXPECT_EQ(a[i].reason, b[i].reason);
    EXPECT_EQ(a[i].chosen_interval, b[i].chosen_interval);
    EXPECT_EQ(a[i].next_threshold, b[i].next_threshold);
    EXPECT_EQ(a[i].io_pct, b[i].io_pct);
  }

  // A smaller ring keeps the newest records and counts the rest dropped.
  DecisionLedger smaller(2);
  SnapshotReader r2(w.data());
  smaller.RestoreState(r2);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(smaller.total(), 7u);
  EXPECT_EQ(smaller.dropped(), 5u);
  std::vector<PolicyDecisionRecord> newest = smaller.Records();
  ASSERT_EQ(newest.size(), 2u);
  EXPECT_EQ(newest[0].seq, 5u);
  EXPECT_EQ(newest[1].seq, 6u);

  // The next append continues the saved sequence.
  smaller.Append("saga", DecisionReason::kSlopeSolve, 1.0, 1, 1.0);
  EXPECT_EQ(smaller.Records().back().seq, 7u);
}

TEST(DecisionLedgerTest, RestoreRejectsUnknownReasonByte) {
  DecisionLedger ledger(4);
  ledger.Append("saga", static_cast<DecisionReason>(200), 1.0, 2, 3.0);
  SnapshotWriter w;
  ledger.SaveState(w);

  DecisionLedger restored(4);
  SnapshotReader r(w.data());
  restored.RestoreState(r);
  EXPECT_FALSE(r.ok());
}

TEST(DecisionLedgerTest, ReasonNamesAreStableWireStrings) {
  EXPECT_STREQ(DecisionReasonName(DecisionReason::kBudgetSolve),
               "budget_solve");
  EXPECT_STREQ(DecisionReasonName(DecisionReason::kSlopeSolve),
               "slope_solve");
  EXPECT_STREQ(DecisionReasonName(DecisionReason::kIdleReschedule),
               "idle_reschedule");
  EXPECT_STREQ(DecisionReasonName(DecisionReason::kBudgetGrant),
               "budget_grant");
  EXPECT_STREQ(DecisionReasonName(DecisionReason::kBudgetRevoke),
               "budget_revoke");
}

TEST(HistogramTest, MergePoolsSamplesExactly) {
  Histogram a;
  Histogram b;
  Histogram pooled;
  for (uint64_t v : {0ull, 1ull, 7ull, 300ull}) {
    a.Record(v);
    pooled.Record(v);
  }
  for (uint64_t v : {2ull, 2ull, 9000ull}) {
    b.Record(v);
    pooled.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), pooled.count());
  EXPECT_EQ(a.min(), pooled.min());
  EXPECT_EQ(a.max(), pooled.max());
  EXPECT_DOUBLE_EQ(a.mean(), pooled.mean());
  for (double p : {50.0, 95.0, 99.0}) {
    EXPECT_DOUBLE_EQ(a.Percentile(p), pooled.Percentile(p)) << "p" << p;
  }
  // Merging an empty histogram is the identity.
  Histogram empty;
  const uint64_t before = a.count();
  a.Merge(empty);
  EXPECT_EQ(a.count(), before);
  // Merging *into* an empty histogram copies the distribution.
  Histogram fresh;
  fresh.Merge(pooled);
  EXPECT_EQ(fresh.count(), pooled.count());
  EXPECT_EQ(fresh.min(), pooled.min());
  EXPECT_EQ(fresh.max(), pooled.max());
}

// --- time-series sampler --------------------------------------------------

TEST(TimeSeriesSamplerTest, DueHonorsIntervalAndZeroDisables) {
  TimeSeriesSampler sampler(256, 16);
  EXPECT_TRUE(sampler.Due(256));
  EXPECT_TRUE(sampler.Due(512));
  EXPECT_FALSE(sampler.Due(255));
  TimeSeriesSampler off(0, 16);
  EXPECT_FALSE(off.Due(256));
}

TEST(TimeSeriesSamplerTest, RingAndSaveRestoreRoundTrip) {
  MetricsRegistry m;
  Counter* c = m.GetCounter("x.count");
  TimeSeriesSampler sampler(1, 4);
  for (uint64_t i = 0; i < 6; ++i) {
    c->Increment();
    sampler.Sample(i, i * 3, i, m);
  }
  EXPECT_EQ(sampler.size(), 4u);
  EXPECT_EQ(sampler.total(), 6u);
  EXPECT_EQ(sampler.dropped(), 2u);

  SnapshotWriter w;
  sampler.SaveState(w);
  TimeSeriesSampler restored(1, 4);
  SnapshotReader r(w.data());
  restored.RestoreState(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(restored.total(), 6u);
  EXPECT_EQ(restored.dropped(), 2u);
  std::vector<TimeSeriesFrame> a = sampler.Frames();
  std::vector<TimeSeriesFrame> b = restored.Frames();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seq, b[i].seq);
    EXPECT_EQ(a[i].event, b[i].event);
    EXPECT_EQ(a[i].tick, b[i].tick);
    ASSERT_EQ(a[i].metrics.counters.size(), b[i].metrics.counters.size());
    EXPECT_EQ(a[i].metrics.counters[0].value,
              b[i].metrics.counters[0].value);
  }
  EXPECT_EQ(b.front().seq, 2u);  // oldest surviving frame
  EXPECT_EQ(b.back().metrics.counters[0].value, 6u);

  // A smaller ring keeps the newest frames and counts the rest dropped.
  TimeSeriesSampler smaller(1, 3);
  SnapshotReader r2(w.data());
  smaller.RestoreState(r2);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(smaller.total(), 6u);
  EXPECT_EQ(smaller.dropped(), 3u);
  std::vector<TimeSeriesFrame> newest = smaller.Frames();
  ASSERT_EQ(newest.size(), 3u);
  EXPECT_EQ(newest.front().seq, 3u);
  EXPECT_EQ(newest.back().seq, 5u);
  EXPECT_EQ(newest.back().metrics.counters[0].value, 6u);
}

}  // namespace
}  // namespace odbgc::obs
