// Durable checkpoint/restore tests.
//
// The recovery oracle throughout: a run that checkpoints, "dies" (via
// FaultPlan::crash_at_event), and resumes must produce a final report
// byte-identical to the same run left uninterrupted. SimResultToJson is
// the comparison surface because it is exactly what the figure tooling
// consumes.

#include <array>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gc/collector.h"
#include "oo7/params.h"
#include "sim/checkpoint.h"
#include "sim/errors.h"
#include "sim/report.h"
#include "sim/runner.h"
#include "sim/simulation.h"
#include "storage/object_store.h"
#include "tests/checkpoint_cases.h"
#include "util/fields.h"
#include "util/snapshot.h"

namespace odbgc {
namespace {

constexpr size_t kHeaderSize = 48;

SimConfig TinySagaConfig() {
  return TinyCheckpointConfig(PolicyKind::kSaga);
}

SimConfig TinySaioConfig() {
  return TinyCheckpointConfig(PolicyKind::kSaio);
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "odbgc_" + name;
}

void RemoveCheckpointFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
  std::remove((path + ".tmp").c_str());
}

std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return std::string();
  std::string bytes;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, n);
  }
  std::fclose(f);
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

void PatchU32(std::string* bytes, size_t offset, uint32_t v) {
  ASSERT_LE(offset + 4, bytes->size());
  (*bytes)[offset + 0] = static_cast<char>(v & 0xff);
  (*bytes)[offset + 1] = static_cast<char>((v >> 8) & 0xff);
  (*bytes)[offset + 2] = static_cast<char>((v >> 16) & 0xff);
  (*bytes)[offset + 3] = static_cast<char>((v >> 24) & 0xff);
}

// A simulation advanced to exactly `k` applied trace events.
std::unique_ptr<Simulation> SimAtEvent(const SimConfig& cfg,
                                       const Trace& trace, uint64_t k) {
  auto sim = std::make_unique<Simulation>(cfg);
  for (uint64_t i = 0; i < k; ++i) sim->Apply(trace[i]);
  return sim;
}

// --- snapshot primitives -------------------------------------------------

TEST(SnapshotTest, RoundTripsEveryPrimitive) {
  SnapshotWriter w;
  w.Tag("TEST");
  w.U8(0xAB);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.F64(-1234.5678901234);
  w.Bool(true);
  w.Str("hello snapshot");

  SnapshotReader r(w.data());
  r.Tag("TEST");
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.F64(), -1234.5678901234);  // bit-exact, not approximate
  EXPECT_TRUE(r.Bool());
  EXPECT_EQ(r.Str(), "hello snapshot");
  EXPECT_TRUE(r.AtEnd());
}

TEST(SnapshotTest, ReaderLatchesOnBadTagAndShortInput) {
  SnapshotWriter w;
  w.Tag("GOOD");
  w.U32(7);
  SnapshotReader r(w.data());
  r.Tag("EVIL");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U32(), 0u);  // reads after failure return zero

  SnapshotReader short_r("\x01\x02", 2);
  short_r.U64();
  EXPECT_FALSE(short_r.ok());
}

// One Persist list serves both directions, through every codec it offers.
TEST(SnapshotTest, PersistRoundTripsEveryCodec) {
  Rng rng(5);
  rng.Next();
  std::deque<std::pair<uint32_t, double>> window = {{1, 0.5}, {2, -3.0}};
  std::array<uint64_t, 3> fixed = {7, 8, 9};
  std::unordered_set<uint32_t> set = {30, 10, 20};
  std::unordered_map<uint32_t, uint64_t> map = {{2, 200}, {1, 100}};
  SnapshotWriter w;
  Persist(w, SectionTag{"TEST"}, rng, window, fixed, set, map);

  Rng rng2(99);
  std::deque<std::pair<uint32_t, double>> window2 = {{4, 4.0}};
  std::array<uint64_t, 3> fixed2 = {};
  std::unordered_set<uint32_t> set2 = {4};
  std::unordered_map<uint32_t, uint64_t> map2 = {{4, 4}};
  SnapshotReader r(w.data());
  Persist(r, SectionTag{"TEST"}, rng2, window2, fixed2, set2, map2);
  ASSERT_TRUE(r.AtEnd()) << r.error();
  EXPECT_EQ(rng2.Next(), rng.Next());
  EXPECT_EQ(window2, window);
  EXPECT_EQ(fixed2, fixed);
  EXPECT_EQ(set2, set);
  EXPECT_EQ(map2, map);

  // Unordered containers travel in key order, whatever their layout.
  SnapshotWriter sw;
  SaveField(sw, set);
  SnapshotReader sr(sw.data());
  EXPECT_EQ(sr.U64(), 3u);
  EXPECT_EQ(sr.U32(), 10u);
  EXPECT_EQ(sr.U32(), 20u);
  EXPECT_EQ(sr.U32(), 30u);
}

TEST(SnapshotTest, ListLengthBeyondTheSnapshotIsMalformed) {
  SnapshotWriter w;
  w.U64(1000);  // a length with a single element behind it
  w.U32(1);
  std::vector<uint32_t> v = {5};
  SnapshotReader r(w.data());
  LoadField(r, v);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(v.empty());
}

// A count read from the snapshot is bounded by the bytes left before
// anything is sized by it.
TEST(SnapshotTest, StoreRestoreRejectsAnObjectCountBeyondTheSnapshot) {
  const StoreConfig cfg;
  ObjectStore saved(cfg);
  SnapshotWriter w;
  saved.SaveState(w);
  std::string bytes = w.data();
  SnapshotReader probe(bytes);
  probe.Tag("STOR");
  ASSERT_EQ(probe.U64(), 0u);  // no partitions: the object count is next
  const uint64_t huge = uint64_t{1} << 40;
  for (int i = 0; i < 8; ++i) {
    bytes[12 + i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  }
  ObjectStore restored(cfg);
  SnapshotReader r(bytes);
  restored.RestoreState(r);
  EXPECT_FALSE(r.ok());
}

// Re-encodes a saved store with partition i's resident list replaced by
// lists[i]; every byte after the partition section is kept.
std::string WithPartitionLists(
    const std::string& saved, uint32_t partition_bytes,
    const std::vector<std::vector<ObjectId>>& lists) {
  SnapshotReader r(saved);
  r.Tag("STOR");
  const uint64_t count = r.U64();
  EXPECT_EQ(count, lists.size());
  SnapshotWriter w;
  w.Tag("STOR");
  w.U64(count);
  for (uint64_t i = 0; i < count && i < lists.size(); ++i) {
    Partition part(static_cast<PartitionId>(i), partition_bytes);
    part.RestoreState(r);
    part.ResetAfterCollection(lists[i], part.used());
    part.SaveState(w);
  }
  EXPECT_TRUE(r.ok()) << r.error();
  return w.data() + saved.substr(saved.size() - r.remaining());
}

StoreConfig TwoPartitionStoreConfig() {
  StoreConfig cfg;
  cfg.partition_bytes = 4096;
  cfg.page_bytes = 512;
  cfg.buffer_pages = 8;
  cfg.pin_newest_allocation = false;
  return cfg;
}

// Object 1 (the root) fills partition 0; partition 1 holds 2, live via
// 1, and held 3 until a collection destroyed it.
std::string SavedTwoPartitionStore() {
  ObjectStore store(TwoPartitionStoreConfig());
  store.CreateObject(1, 4000, 1);
  store.CreateObject(2, 100, 0);
  store.CreateObject(3, 100, 0);
  store.AddRoot(1);
  store.WriteRef(1, 0, 2);
  Collector().Collect(store, 1);
  EXPECT_FALSE(store.Exists(3));
  EXPECT_EQ(store.partition(0).objects(), std::vector<ObjectId>{1});
  EXPECT_EQ(store.partition(1).objects(), std::vector<ObjectId>{2});
  SnapshotWriter w;
  store.SaveState(w);
  return w.Take();
}

// The collector plans over the partition lists without consulting the
// headers, so a list the headers disagree with must not restore.
TEST(SnapshotTest, StoreRestoreRejectsPartitionListsTheHeadersDisagreeWith) {
  const StoreConfig cfg = TwoPartitionStoreConfig();
  const std::string saved = SavedTwoPartitionStore();
  auto restores = [&](const std::vector<std::vector<ObjectId>>& lists) {
    const std::string bytes =
        WithPartitionLists(saved, cfg.partition_bytes, lists);
    ObjectStore restored(cfg);
    SnapshotReader r(bytes);
    restored.RestoreState(r);
    return r.ok();
  };
  EXPECT_TRUE(restores({{1}, {2}}));
  EXPECT_FALSE(restores({{1}, {2, 0x7FFFFFF0}})) << "an id past the store";
  EXPECT_FALSE(restores({{1}, {2, 3}})) << "a destroyed id";
  EXPECT_FALSE(restores({{1, 2}, {}})) << "an id in the wrong partition";
  EXPECT_FALSE(restores({{1}, {2, 2}})) << "an id listed twice";
  EXPECT_FALSE(restores({{1}, {}})) << "an unlisted object";
}

// The planner visits every global root by id, so a restored root must
// name a live object.
TEST(SnapshotTest, StoreRestoreRejectsARootThatNamesNoObject) {
  const StoreConfig cfg = TwoPartitionStoreConfig();
  std::string bytes = SavedTwoPartitionStore();
  // The root list [1] ends 36 bytes before the POOL tag: the root id,
  // then two empty pin lists (8 bytes each), the newest object and the
  // allocation cursor (4 each), and an empty quarantine list (8).
  const size_t pool = bytes.find("POOL");
  ASSERT_NE(pool, std::string::npos);
  for (const uint32_t root : {3u, 0x7FFFFFF0u}) {
    std::string patched = bytes;
    PatchU32(&patched, pool - 36, root);
    ObjectStore restored(cfg);
    SnapshotReader r(patched);
    restored.RestoreState(r);
    EXPECT_FALSE(r.ok()) << "root " << root;
  }
  ObjectStore restored(cfg);
  SnapshotReader r(bytes);
  restored.RestoreState(r);
  EXPECT_TRUE(r.ok()) << r.error();
}

TEST(SnapshotTest, ResultRestoreRejectsUnknownQuarantineKind) {
  SimResult saved;
  QuarantineEvent q;
  q.partition = 3;
  q.kind = static_cast<CorruptionKind>(7);  // past kScrub
  saved.quarantine_log.push_back(q);
  SnapshotWriter w;
  SaveField(w, saved);

  SimResult restored;
  SnapshotReader r(w.data());
  LoadField(r, restored);
  EXPECT_FALSE(r.ok());
}

TEST(SnapshotTest, Crc32MatchesKnownVector) {
  // The classic IEEE CRC-32 check value.
  const char* s = "123456789";
  EXPECT_EQ(Crc32(s, 9), 0xCBF43926u);
}

// --- config fingerprint --------------------------------------------------

TEST(CheckpointTest, FingerprintIgnoresCrashScheduleSeedsAndDeadline) {
  SimConfig base = TinySaioConfig();
  const uint64_t fp = ConfigFingerprint(base);

  SimConfig crash = base;
  crash.store.fault.crash_at_event = 1234;
  EXPECT_EQ(ConfigFingerprint(crash), fp);

  SimConfig deadline = base;
  deadline.deadline_ms = 5000.0;
  EXPECT_EQ(ConfigFingerprint(deadline), fp);

  SimConfig seeds = base;
  seeds.selector_seed = 99;
  seeds.store.fault.seed = 77;
  EXPECT_EQ(ConfigFingerprint(seeds), fp);
}

TEST(CheckpointTest, FingerprintCoversBehaviorFields) {
  SimConfig base = TinySaioConfig();
  const uint64_t fp = ConfigFingerprint(base);

  SimConfig frac = base;
  frac.saio_frac = 0.20;
  EXPECT_NE(ConfigFingerprint(frac), fp);

  SimConfig policy = base;
  policy.policy = PolicyKind::kSaga;
  EXPECT_NE(ConfigFingerprint(policy), fp);

  SimConfig store = base;
  store.store.partition_bytes = 32 * 1024;
  EXPECT_NE(ConfigFingerprint(store), fp);
}

// Calls f(name, member) for every leaf row of a config table, depth
// first, with the row's dotted name ("store.fault.bitflip_prob").
template <class R, class F>
void ForEachLeafRow(R& rec, const std::string& prefix, F& f) {
  R::ForEachField(rec, [&](const FieldInfo& info, auto& v) {
    if constexpr (FieldRecord<std::remove_cvref_t<decltype(v)>>) {
      ForEachLeafRow(v, prefix + info.name + ".", f);
    } else {
      f(prefix + info.name, v);
    }
  });
}

TEST(CheckpointTest, FingerprintCoversEveryConfigRow) {
  size_t rows = 0;
  SimConfig counted;
  auto count = [&rows](const std::string&, auto&) { ++rows; };
  ForEachLeafRow(counted, "", count);
  EXPECT_GE(rows, 70u);  // the knobs the fingerprint once listed by hand

  const uint64_t base = ConfigFingerprint(SimConfig());
  for (size_t target = 0; target < rows; ++target) {
    // Perturb only the target-th row: flip a bool, bump an enum's byte,
    // add 1 to a number.
    SimConfig config;
    size_t index = 0;
    std::string name;
    auto perturb = [&](const std::string& row, auto& v) {
      using T = std::remove_cvref_t<decltype(v)>;
      if (index++ != target) return;
      name = row;
      if constexpr (std::is_same_v<T, bool>) {
        v = !v;
      } else if constexpr (std::is_enum_v<T>) {
        v = static_cast<T>(static_cast<uint8_t>(v) + 1);
      } else {
        v += 1;
      }
    };
    ForEachLeafRow(config, "", perturb);
    EXPECT_NE(ConfigFingerprint(config), base)
        << name << " is not in the fingerprint";
  }
}

// --- write / resume round trip -------------------------------------------

TEST(CheckpointTest, WriteAndResumeRoundTripIsByteIdentical) {
  const Oo7Params params = Oo7Params::Tiny();
  std::shared_ptr<const Trace> trace = GenerateOo7Trace(params, 7);
  SimConfig cfg = TinySaioConfig();
  ApplyRunSeeds(&cfg, 7);

  const std::string golden = SimResultToJson(Simulation(cfg).Run(*trace));

  const std::string ckpt = TempPath("roundtrip.ckpt");
  RemoveCheckpointFiles(ckpt);
  const uint64_t k = trace->size() / 2;
  std::unique_ptr<Simulation> half = SimAtEvent(cfg, *trace, k);
  ASSERT_EQ(WriteCheckpoint(*half, ckpt), CheckpointError::kNone);

  ResumeResult rr = ResumeFromCheckpoint(cfg, ckpt);
  ASSERT_TRUE(rr.ok()) << CheckpointErrorName(rr.error);
  EXPECT_FALSE(rr.used_fallback);
  EXPECT_EQ(rr.loaded_path, ckpt);
  EXPECT_EQ(rr.events_applied, k);
  ASSERT_NE(rr.sim, nullptr);
  EXPECT_EQ(rr.sim->events_applied(), k);

  SimResult resumed = rr.sim->RunFrom(*trace, "", 0);
  EXPECT_EQ(SimResultToJson(resumed), golden);
  RemoveCheckpointFiles(ckpt);
}

TEST(CheckpointTest, MissingFileReportsOpenFailed) {
  SimConfig cfg = TinySaioConfig();
  ResumeResult rr = ResumeFromCheckpoint(cfg, TempPath("does_not_exist"));
  EXPECT_FALSE(rr.ok());
  EXPECT_EQ(rr.error, CheckpointError::kOpenFailed);
  EXPECT_EQ(rr.sim, nullptr);
}

TEST(CheckpointTest, WriteToUnwritablePathReportsOpenFailed) {
  const Oo7Params params = Oo7Params::Tiny();
  std::shared_ptr<const Trace> trace = GenerateOo7Trace(params, 3);
  SimConfig cfg = TinySaioConfig();
  ApplyRunSeeds(&cfg, 3);
  std::unique_ptr<Simulation> sim = SimAtEvent(cfg, *trace, 10);
  EXPECT_EQ(WriteCheckpoint(*sim, "/nonexistent_odbgc_dir/x.ckpt"),
            CheckpointError::kOpenFailed);
}

TEST(CheckpointTest, RunFromRaisesTypedErrorOnCheckpointWriteFailure) {
  const Oo7Params params = Oo7Params::Tiny();
  std::shared_ptr<const Trace> trace = GenerateOo7Trace(params, 3);
  SimConfig cfg = TinySaioConfig();
  ApplyRunSeeds(&cfg, 3);
  Simulation sim(cfg);
  EXPECT_THROW(sim.RunFrom(*trace, "/nonexistent_odbgc_dir/x.ckpt", 64),
               SimCheckpointWriteError);
}

// --- crash injection + resume (the tentpole oracle) ----------------------

// Runs the full crash → restore → replay cycle for one config and asserts
// the resumed report is byte-identical to the uninterrupted one. The run
// must collect both before and after the kill point, so that restored
// state steers the rest of the run.
void ExpectCrashResumeIdentical(SimConfig cfg, const std::string& tag) {
  const Oo7Params params = Oo7Params::Tiny();
  const uint64_t seed = kCheckpointCaseSeed;
  std::shared_ptr<const Trace> trace = GenerateOo7Trace(params, seed);
  ApplyRunSeeds(&cfg, seed);

  const SimResult uninterrupted = Simulation(cfg).Run(*trace);
  const std::string golden = SimResultToJson(uninterrupted);

  const std::string ckpt = TempPath(tag + ".ckpt");
  RemoveCheckpointFiles(ckpt);
  const uint64_t checkpoint_every = 257;
  const uint64_t kill = trace->size() / 2;
  ASSERT_GT(kill, checkpoint_every);  // at least one checkpoint lands

  SimConfig crash_cfg = cfg;
  crash_cfg.store.fault.crash_at_event = kill;
  Simulation victim(crash_cfg);
  bool crashed = false;
  try {
    victim.RunFrom(*trace, ckpt, checkpoint_every);
  } catch (const SimCrashInjected& e) {
    crashed = true;
    EXPECT_EQ(e.at_event(), kill);
  }
  ASSERT_TRUE(crashed);
  EXPECT_GT(victim.collections(), 0u) << tag << ": no collection before kill";
  EXPECT_GT(uninterrupted.collections, victim.collections())
      << tag << ": no collection after kill";

  // Restore WITHOUT the crash schedule (it is excluded from the config
  // fingerprint precisely so the resumed run can drop it).
  ResumeResult rr = ResumeFromCheckpoint(cfg, ckpt);
  ASSERT_TRUE(rr.ok()) << CheckpointErrorName(rr.error);
  EXPECT_GT(rr.events_applied, 0u);
  EXPECT_LT(rr.events_applied, kill);  // the kill-event boundary never wrote
  SimResult resumed = rr.sim->RunFrom(*trace, ckpt, checkpoint_every);
  EXPECT_EQ(SimResultToJson(resumed), golden) << tag;
  RemoveCheckpointFiles(ckpt);
}

TEST(CheckpointTest, SaioCrashResumeIsByteIdentical) {
  ExpectCrashResumeIdentical(TinySaioConfig(), "saio_crash");
}

// Every checkpointed component kind (tests/checkpoint_cases.h): a
// member left out of a component's checkpoint list shows up here as a
// resumed report that differs from the uninterrupted one.
TEST(CheckpointTest, EveryComponentKindCrashResumesByteIdentical) {
  for (const CheckpointCase& c : CheckpointCases()) {
    SCOPED_TRACE(c.name);
    ExpectCrashResumeIdentical(c.config, c.name);
  }
}

// Crash-anywhere fuzzing: 50 deterministic pseudo-random kill points
// spread over the whole trace, each followed by restore + replay and a
// byte-identical comparison against the uninterrupted golden report.
TEST(RecoveryFuzzTest, FiftyRandomKillPointsAllResumeByteIdentical) {
  const Oo7Params params = Oo7Params::Tiny();
  const uint64_t seed = 23;
  std::shared_ptr<const Trace> trace = GenerateOo7Trace(params, seed);
  SimConfig cfg = TinySagaConfig();
  ApplyRunSeeds(&cfg, seed);

  const std::string golden = SimResultToJson(Simulation(cfg).Run(*trace));
  const uint64_t n = trace->size();
  ASSERT_GT(n, 2u);

  const std::string ckpt = TempPath("fuzz.ckpt");
  const uint64_t checkpoint_every = 101;
  uint64_t rng = 0x9E3779B97F4A7C15ull;  // fixed: kill points must be stable
  int resumed_from_checkpoint = 0;
  for (int round = 0; round < 50; ++round) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t kill = 1 + (rng >> 33) % (n - 1);
    RemoveCheckpointFiles(ckpt);

    SimConfig crash_cfg = cfg;
    crash_cfg.store.fault.crash_at_event = kill;
    Simulation victim(crash_cfg);
    bool crashed = false;
    try {
      victim.RunFrom(*trace, ckpt, checkpoint_every);
    } catch (const SimCrashInjected&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed) << "kill=" << kill;

    // Resume if any checkpoint landed before the kill; otherwise the
    // whole run replays from scratch — both must match the golden.
    ResumeResult rr = ResumeFromCheckpoint(cfg, ckpt);
    std::unique_ptr<Simulation> sim;
    if (rr.ok()) {
      ++resumed_from_checkpoint;
      sim = std::move(rr.sim);
    } else {
      EXPECT_EQ(rr.error, CheckpointError::kOpenFailed) << "kill=" << kill;
      sim = std::make_unique<Simulation>(cfg);
    }
    SimResult result = sim->RunFrom(*trace, "", 0);
    EXPECT_EQ(SimResultToJson(result), golden) << "kill=" << kill;
  }
  // The kill points span the trace, so most rounds really exercised the
  // restore path (only kills before the first checkpoint start fresh).
  EXPECT_GT(resumed_from_checkpoint, 25);
  RemoveCheckpointFiles(ckpt);
}

// --- corrupt-checkpoint corpora ------------------------------------------

class CorruptCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace_ = GenerateOo7Trace(Oo7Params::Tiny(), 5);
    cfg_ = TinySaioConfig();
    ApplyRunSeeds(&cfg_, 5);
    path_ = TempPath("corrupt.ckpt");
    RemoveCheckpointFiles(path_);
    std::unique_ptr<Simulation> sim =
        SimAtEvent(cfg_, *trace_, trace_->size() / 2);
    ASSERT_EQ(WriteCheckpoint(*sim, path_), CheckpointError::kNone);
    good_ = ReadFileBytes(path_);
    ASSERT_GT(good_.size(), kHeaderSize + 8);
  }

  void TearDown() override { RemoveCheckpointFiles(path_); }

  // Writes `bytes` as the checkpoint (no .prev beside it) and asserts the
  // typed load error.
  void ExpectLoadError(const std::string& bytes, CheckpointError want) {
    RemoveCheckpointFiles(path_);
    WriteFileBytes(path_, bytes);
    ResumeResult rr = ResumeFromCheckpoint(cfg_, path_);
    EXPECT_FALSE(rr.ok());
    EXPECT_EQ(rr.error, want)
        << "got " << CheckpointErrorName(rr.error) << ", want "
        << CheckpointErrorName(want);
    EXPECT_EQ(rr.sim, nullptr);
  }

  std::shared_ptr<const Trace> trace_;
  SimConfig cfg_;
  std::string path_;
  std::string good_;  // a pristine checkpoint image
};

TEST_F(CorruptCheckpointTest, TruncatedShortFile) {
  ExpectLoadError(good_.substr(0, 10), CheckpointError::kTruncated);
}

TEST_F(CorruptCheckpointTest, TruncatedMidPayload) {
  ExpectLoadError(good_.substr(0, good_.size() / 2),
                  CheckpointError::kTruncated);
}

TEST_F(CorruptCheckpointTest, WrongMagic) {
  std::string bad = good_;
  bad.replace(0, 8, "NOTACKPT");
  ExpectLoadError(bad, CheckpointError::kBadMagic);
}

TEST_F(CorruptCheckpointTest, HeaderBitFlip) {
  std::string bad = good_;
  bad[20] = static_cast<char>(bad[20] ^ 0x40);  // inside config_hash
  ExpectLoadError(bad, CheckpointError::kBadHeaderCrc);
}

TEST_F(CorruptCheckpointTest, StaleVersionWithValidCrcs) {
  // A legitimately written file from a future format version: patch the
  // version field and recompute the header CRC so only the version check
  // can reject it.
  std::string bad = good_;
  PatchU32(&bad, 8, kCheckpointVersion + 1);
  PatchU32(&bad, 44, Crc32(bad.data(), 44));
  ExpectLoadError(bad, CheckpointError::kBadVersion);
}

TEST_F(CorruptCheckpointTest, PreviousFormatVersionWithValidCrcs) {
  // v5 laid the result block out in a different field order; such a file
  // is rejected by version, never parsed.
  std::string bad = good_;
  PatchU32(&bad, 8, 5);
  PatchU32(&bad, 44, Crc32(bad.data(), 44));
  ExpectLoadError(bad, CheckpointError::kBadVersion);
}

TEST_F(CorruptCheckpointTest, PayloadBitFlip) {
  std::string bad = good_;
  bad[kHeaderSize + 5] = static_cast<char>(bad[kHeaderSize + 5] ^ 0x01);
  ExpectLoadError(bad, CheckpointError::kBadPayloadCrc);
}

TEST_F(CorruptCheckpointTest, TornFooter) {
  std::string bad = good_;
  bad[bad.size() - 1] = static_cast<char>(bad[bad.size() - 1] ^ 0x80);
  ExpectLoadError(bad, CheckpointError::kBadPayloadCrc);
}

TEST_F(CorruptCheckpointTest, ConfigMismatch) {
  SimConfig other = cfg_;
  other.saio_frac = 0.42;
  ResumeResult rr = ResumeFromCheckpoint(other, path_);
  EXPECT_FALSE(rr.ok());
  EXPECT_EQ(rr.error, CheckpointError::kConfigMismatch);
}

TEST_F(CorruptCheckpointTest, ErrorNamesAreStable) {
  EXPECT_STREQ(CheckpointErrorName(CheckpointError::kNone), "none");
  EXPECT_STREQ(CheckpointErrorName(CheckpointError::kBadMagic), "bad_magic");
  EXPECT_STREQ(CheckpointErrorName(CheckpointError::kConfigMismatch),
               "config_mismatch");
}

// --- .prev fallback -------------------------------------------------------

TEST(CheckpointTest, FallsBackToPrevWhenPrimaryIsCorrupt) {
  const Oo7Params params = Oo7Params::Tiny();
  std::shared_ptr<const Trace> trace = GenerateOo7Trace(params, 9);
  SimConfig cfg = TinySagaConfig();
  ApplyRunSeeds(&cfg, 9);

  const std::string golden = SimResultToJson(Simulation(cfg).Run(*trace));

  const std::string ckpt = TempPath("fallback.ckpt");
  RemoveCheckpointFiles(ckpt);
  const uint64_t k1 = trace->size() / 3;
  const uint64_t k2 = 2 * trace->size() / 3;

  Simulation sim(cfg);
  for (uint64_t i = 0; i < k1; ++i) sim.Apply((*trace)[i]);
  ASSERT_EQ(WriteCheckpoint(sim, ckpt), CheckpointError::kNone);
  for (uint64_t i = k1; i < k2; ++i) sim.Apply((*trace)[i]);
  ASSERT_EQ(WriteCheckpoint(sim, ckpt), CheckpointError::kNone);
  // The atomic-write protocol left the k1 image at `.prev`.

  std::string primary = ReadFileBytes(ckpt);
  primary[kHeaderSize + 3] = static_cast<char>(primary[kHeaderSize + 3] ^ 1);
  WriteFileBytes(ckpt, primary);

  ResumeResult rr = ResumeFromCheckpoint(cfg, ckpt);
  ASSERT_TRUE(rr.ok()) << CheckpointErrorName(rr.error);
  EXPECT_TRUE(rr.used_fallback);
  EXPECT_EQ(rr.primary_error, CheckpointError::kBadPayloadCrc);
  EXPECT_EQ(rr.loaded_path, ckpt + ".prev");
  EXPECT_EQ(rr.events_applied, k1);

  SimResult resumed = rr.sim->RunFrom(*trace, "", 0);
  EXPECT_EQ(SimResultToJson(resumed), golden);
  RemoveCheckpointFiles(ckpt);
}

// --- wall-clock watchdog --------------------------------------------------

TEST(CheckpointTest, DeadlineExceededIsTransient) {
  const Oo7Params params = Oo7Params::Tiny();
  std::shared_ptr<const Trace> trace = GenerateOo7Trace(params, 13);
  if (trace->size() <= 4096) {
    GTEST_SKIP() << "trace too short to hit the 4096-event deadline check";
  }
  SimConfig cfg = TinySaioConfig();
  ApplyRunSeeds(&cfg, 13);
  cfg.deadline_ms = 1e-6;  // expires before the first check
  Simulation sim(cfg);
  bool threw = false;
  try {
    sim.RunFrom(*trace, "", 0);
  } catch (const SimDeadlineExceeded& e) {
    threw = true;
    EXPECT_TRUE(e.transient());
    EXPECT_EQ(e.kind(), SimErrorKind::kDeadlineExceeded);
  }
  EXPECT_TRUE(threw);
}

}  // namespace
}  // namespace odbgc
