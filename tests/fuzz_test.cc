// Randomized safety harness: arbitrary graph surgery (cycles, shared
// structure, root changes) with exact ground truth, swept across seeds
// and policy configurations. If the collector, the reverse index, the
// markers, or the scanner ever disagree, these tests fail.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulation.h"
#include "storage/reachability.h"
#include "tests/replay_test_util.h"
#include "workloads/fuzz.h"

namespace odbgc {
namespace {

StoreConfig FuzzStore() {
  StoreConfig cfg;
  cfg.partition_bytes = 8 * 1024;
  cfg.page_bytes = 1024;
  cfg.buffer_pages = 8;
  return cfg;
}

RandomGraphOptions FuzzOptions(uint64_t seed) {
  RandomGraphOptions o;
  o.seed = seed;
  o.operations = 1500;
  o.max_object_bytes = 700;
  return o;
}

class FuzzMarkers : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzMarkers, MarkersMatchScannerOnBareReplay) {
  Trace trace = MakeRandomGraph(FuzzOptions(GetParam()));
  ObjectStore store(FuzzStore());
  ReplayIntoStore(trace, &store);
  ReachabilityResult scan = ScanReachability(store);
  EXPECT_EQ(scan.unreachable_bytes, store.actual_garbage_bytes());
  EXPECT_EQ(scan.unreachable_objects,
            store.total_garbage_created() > 0
                ? scan.unreachable_objects  // tautology guard
                : 0u);
  EXPECT_GT(trace.size(), 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzMarkers,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

struct FuzzComboParam {
  uint64_t seed;
  PolicyKind policy;
  SelectorKind selector;
  const char* label;
};

class FuzzSimulation : public ::testing::TestWithParam<FuzzComboParam> {};

TEST_P(FuzzSimulation, CollectorNeverEatsReachableObjects) {
  const FuzzComboParam& p = GetParam();
  Trace trace = MakeRandomGraph(FuzzOptions(p.seed));

  // Ground truth: the reachable set after a collector-free replay.
  ObjectStore bare(FuzzStore());
  ReplayIntoStore(trace, &bare);
  ReachabilityResult truth = ScanReachability(bare);

  SimConfig cfg;
  cfg.store = FuzzStore();
  cfg.policy = p.policy;
  cfg.selector = p.selector;
  cfg.fixed_rate_overwrites = 25;
  cfg.saio_frac = 0.20;
  cfg.saio_bootstrap_app_io = 200;
  cfg.saga.garbage_frac = 0.10;
  cfg.saga.bootstrap_overwrites = 50;
  cfg.coupled.io_frac = 0.20;
  cfg.coupled.bootstrap_app_io = 200;
  cfg.estimator = EstimatorKind::kFgsHb;
  cfg.preamble_collections = 2;

  Simulation sim(cfg);
  SimResult r = sim.Run(trace);
  EXPECT_GT(r.collections, 0u) << p.label;

  const ObjectStore& store = sim.store();
  // 1. Everything reachable in truth still exists and is reachable.
  ReachabilityResult after = ScanReachability(store);
  for (ObjectId id = 1; id <= bare.max_object_id(); ++id) {
    if (id < truth.reachable.size() && truth.reachable[id]) {
      ASSERT_TRUE(store.Exists(id)) << p.label << " lost object " << id;
      EXPECT_TRUE(after.reachable[id]) << p.label << " unreached " << id;
    }
  }
  // 2. Marker accounting consistent with the scanner.
  EXPECT_EQ(after.unreachable_bytes, store.actual_garbage_bytes())
      << p.label;
  // 3. The reverse index survived all the churn.
  for (ObjectId id = 1; id <= store.max_object_id(); ++id) {
    if (!store.Exists(id)) continue;
    for (const auto& [target, backref] : store.slots(id)) {
      if (target == kNullObject) continue;
      ASSERT_TRUE(store.Exists(target)) << p.label;
      const auto& in = store.in_refs(target);
      EXPECT_NE(std::find_if(in.begin(), in.end(),
                             [&](const InRef& ir) { return ir.src == id; }),
                in.end())
          << p.label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPolicies, FuzzSimulation,
    ::testing::Values(
        FuzzComboParam{11, PolicyKind::kFixedRate,
                       SelectorKind::kUpdatedPointer, "fixed_up_11"},
        FuzzComboParam{12, PolicyKind::kFixedRate, SelectorKind::kRandom,
                       "fixed_rand_12"},
        FuzzComboParam{13, PolicyKind::kFixedRate,
                       SelectorKind::kRoundRobin, "fixed_rr_13"},
        FuzzComboParam{14, PolicyKind::kSaio,
                       SelectorKind::kUpdatedPointer, "saio_up_14"},
        FuzzComboParam{15, PolicyKind::kSaga,
                       SelectorKind::kUpdatedPointer, "saga_up_15"},
        FuzzComboParam{16, PolicyKind::kSaga, SelectorKind::kRandom,
                       "saga_rand_16"},
        FuzzComboParam{17, PolicyKind::kCoupled,
                       SelectorKind::kUpdatedPointer, "coupled_up_17"},
        FuzzComboParam{18, PolicyKind::kSaga,
                       SelectorKind::kMostGarbageOracle,
                       "saga_oracle_sel_18"}),
    [](const auto& info) { return std::string(info.param.label); });

TEST(FuzzWorkloadTest, DeterministicBySeed) {
  Trace a = MakeRandomGraph(FuzzOptions(42));
  Trace b = MakeRandomGraph(FuzzOptions(42));
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST(FuzzWorkloadTest, DifferentSeedsDiffer) {
  Trace a = MakeRandomGraph(FuzzOptions(1));
  Trace b = MakeRandomGraph(FuzzOptions(2));
  bool differ = a.size() != b.size();
  for (size_t i = 0; !differ && i < a.size(); ++i) {
    differ = !(a[i] == b[i]);
  }
  EXPECT_TRUE(differ);
}

TEST(FuzzWorkloadTest, ProducesGarbageAndCycles) {
  Trace t = MakeRandomGraph(FuzzOptions(3));
  Trace::Summary s = t.Summarize();
  EXPECT_GT(s.ground_truth_garbage_bytes, 0u);
  EXPECT_GT(s.creates, 100u);
  EXPECT_GT(s.write_refs, s.creates);  // relinks beyond initial links
}

// ---------------------------------------------------------------------
// Corrupt-trace corpora: the binary loader must reject every malformed
// variant with a typed error — never crash, assert, or over-allocate.

std::vector<unsigned char> ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void WriteAllBytes(const std::string& path,
                   const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::string CorpusPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// A small valid trace (8 events = 16-byte header + 160 record bytes).
std::vector<unsigned char> ValidTraceBytes(const std::string& path) {
  Trace t;
  t.Append(CreateEvent(1, 100, 2));
  t.Append(CreateEvent(2, 60, 1));
  t.Append(AddRootEvent(1));
  t.Append(WriteRefEvent(1, 0, 2));
  t.Append(ReadEvent(2));
  t.Append(UpdateEvent(1));
  t.Append(GarbageMarkEvent(60, 1));
  t.Append(RemoveRootEvent(1));
  EXPECT_TRUE(t.SaveTo(path));
  return ReadAllBytes(path);
}

TEST(CorruptTraceTest, EveryTruncationIsATypedError) {
  std::string path = CorpusPath("truncated.trace");
  std::vector<unsigned char> good = ValidTraceBytes(path);
  ASSERT_EQ(good.size(), 16u + 8u * 20u);
  for (size_t len = 0; len < good.size(); ++len) {
    WriteAllBytes(path, std::vector<unsigned char>(good.begin(),
                                                   good.begin() + len));
    Trace out;
    TraceLoadError err = Trace::Load(path, &out);
    ASSERT_NE(err, TraceLoadError::kNone) << "length " << len;
    ASSERT_TRUE(out.empty()) << "length " << len;
    if (len < 16) {
      EXPECT_EQ(err, TraceLoadError::kTruncatedHeader) << "length " << len;
    } else {
      EXPECT_EQ(err, TraceLoadError::kTruncatedEvents) << "length " << len;
    }
  }
}

TEST(CorruptTraceTest, BadMagicAndVersion) {
  std::string path = CorpusPath("badmagic.trace");
  std::vector<unsigned char> good = ValidTraceBytes(path);

  std::vector<unsigned char> bad = good;
  bad[0] ^= 0xff;
  WriteAllBytes(path, bad);
  Trace out;
  EXPECT_EQ(Trace::Load(path, &out), TraceLoadError::kBadMagic);

  bad = good;
  bad[4] ^= 0xff;
  WriteAllBytes(path, bad);
  EXPECT_EQ(Trace::Load(path, &out), TraceLoadError::kBadVersion);
}

TEST(CorruptTraceTest, CountFieldLiesAreCaughtBeforeAllocation) {
  std::string path = CorpusPath("badcount.trace");
  std::vector<unsigned char> good = ValidTraceBytes(path);

  // Count inflated to the maximum: must be rejected by the overflow
  // guard, not attempted as a reserve of ~2^64 events.
  std::vector<unsigned char> bad = good;
  for (size_t i = 8; i < 16; ++i) bad[i] = 0xff;
  WriteAllBytes(path, bad);
  Trace out;
  EXPECT_EQ(Trace::Load(path, &out), TraceLoadError::kBadEventCount);

  // Count promises one event more than the file holds.
  bad = good;
  bad[8] = 9;
  WriteAllBytes(path, bad);
  EXPECT_EQ(Trace::Load(path, &out), TraceLoadError::kTruncatedEvents);

  // Count admits one event fewer: the leftover record bytes are trailing
  // garbage, not silently ignored data.
  bad = good;
  bad[8] = 7;
  WriteAllBytes(path, bad);
  EXPECT_EQ(Trace::Load(path, &out), TraceLoadError::kTrailingBytes);
}

TEST(CorruptTraceTest, BadEventKindAndTrailingBytes) {
  std::string path = CorpusPath("badkind.trace");
  std::vector<unsigned char> good = ValidTraceBytes(path);

  std::vector<unsigned char> bad = good;
  bad[16] = 0xfe;  // first record's kind
  WriteAllBytes(path, bad);
  Trace out;
  EXPECT_EQ(Trace::Load(path, &out), TraceLoadError::kBadEventKind);
  EXPECT_TRUE(out.empty());

  bad = good;
  bad.push_back(0x00);
  WriteAllBytes(path, bad);
  EXPECT_EQ(Trace::Load(path, &out), TraceLoadError::kTrailingBytes);

  EXPECT_EQ(Trace::Load(CorpusPath("no-such-file.trace"), &out),
            TraceLoadError::kOpenFailed);
}

TEST(CorruptTraceTest, CreateIdsTheStoreCannotIndexAreRejected) {
  std::string path = CorpusPath("badid.trace");
  std::vector<unsigned char> good = ValidTraceBytes(path);

  // Bytes 20-23 are the first record's (a create's) object id: id 0 is
  // the null reference, and UINT32_MAX + 1 wraps the store's array size.
  for (uint32_t id : {0u, UINT32_MAX}) {
    std::vector<unsigned char> bad = good;
    std::memcpy(&bad[20], &id, sizeof(id));
    WriteAllBytes(path, bad);
    Trace out;
    EXPECT_EQ(Trace::Load(path, &out), TraceLoadError::kBadObjectId) << id;
    EXPECT_TRUE(out.empty()) << id;
    EXPECT_EQ(out.create_id_bound(), 0u) << id;
  }
  // The same ids elsewhere are payload, not object ids.
  std::vector<unsigned char> other = good;
  const uint32_t max_id = UINT32_MAX;
  std::memcpy(&other[16 + 4 * 20 + 4], &max_id, sizeof(max_id));  // a read
  WriteAllBytes(path, other);
  Trace out;
  EXPECT_EQ(Trace::Load(path, &out), TraceLoadError::kNone);
}

TEST(CorruptTraceTest, SingleByteFlipSweepNeverCrashesLoader) {
  std::string path = CorpusPath("byteflip.trace");
  std::vector<unsigned char> good = ValidTraceBytes(path);
  for (size_t pos = 0; pos < good.size(); ++pos) {
    std::vector<unsigned char> bad = good;
    bad[pos] ^= 0xff;
    WriteAllBytes(path, bad);
    Trace out;
    TraceLoadError err = Trace::Load(path, &out);
    if (err == TraceLoadError::kNone) {
      // A flip inside an event payload is indistinguishable from valid
      // data; the structure must still be intact.
      EXPECT_EQ(out.size(), 8u) << "pos " << pos;
    } else {
      EXPECT_TRUE(out.empty()) << "pos " << pos;
    }
  }
}

TEST(CorruptTraceTest, ErrorNamesAreStable) {
  EXPECT_STREQ(TraceLoadErrorName(TraceLoadError::kNone), "none");
  EXPECT_STREQ(TraceLoadErrorName(TraceLoadError::kBadMagic), "bad-magic");
  EXPECT_STREQ(TraceLoadErrorName(TraceLoadError::kTruncatedEvents),
               "truncated-events");
  EXPECT_STREQ(TraceLoadErrorName(TraceLoadError::kTrailingBytes),
               "trailing-bytes");
  EXPECT_STREQ(TraceLoadErrorName(TraceLoadError::kBadObjectId),
               "bad-object-id");
}

}  // namespace
}  // namespace odbgc
