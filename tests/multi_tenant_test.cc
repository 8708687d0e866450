#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gc/collector.h"
#include "sim/errors.h"
#include "sim/multi_tenant.h"
#include "sim/report.h"
#include "storage/reachability.h"
#include "tests/golden_util.h"
#include "workloads/streaming.h"

namespace odbgc {
namespace {

SimConfig ShardConfig() {
  SimConfig cfg;
  cfg.store.partition_bytes = 16 * 1024;
  cfg.store.page_bytes = 2 * 1024;
  cfg.store.buffer_pages = 8;
  cfg.policy = PolicyKind::kSaio;
  cfg.saio_frac = 0.10;
  cfg.saio_bootstrap_app_io = 200;
  cfg.preamble_collections = 2;
  return cfg;
}

MultiTenantOptions SmallFleet(uint32_t shards, int threads) {
  MultiTenantOptions opt;
  opt.num_shards = shards;
  opt.threads = threads;
  opt.epoch_events = 512;
  opt.catalog_per_shard = 3;
  opt.share_prob = 0.10;
  opt.seed = 7;
  opt.coordinator_period = 4;
  opt.shard_config = ShardConfig();
  return opt;
}

void AddChurnClients(MultiTenantEngine& engine, size_t count,
                     uint64_t cycles) {
  for (size_t c = 0; c < count; ++c) {
    StreamingChurnOptions o;
    o.seed = 100 + c;
    o.cycles = cycles;
    MuxClientOptions m;
    m.base_chunk = 16;
    m.chunk_jitter = 5;
    m.think_time = 2;
    m.seed = 300 + c;
    engine.AddClient(std::make_unique<StreamingChurnSource>(o), m);
  }
}

MultiTenantReport RunFleet(uint32_t shards, int threads, size_t clients,
                           uint64_t cycles) {
  MultiTenantEngine engine(SmallFleet(shards, threads));
  AddChurnClients(engine, clients, cycles);
  return engine.Run();
}

TEST(MultiTenantTest, ReportIsByteIdenticalAcrossThreadCounts) {
  MultiTenantReport one = RunFleet(3, 1, 9, 600);
  MultiTenantReport three = RunFleet(3, 3, 9, 600);
  MultiTenantReport eight = RunFleet(3, 8, 9, 600);

  EXPECT_EQ(one.FleetChecksum(), three.FleetChecksum());
  EXPECT_EQ(one.FleetChecksum(), eight.FleetChecksum());
  ASSERT_EQ(one.shards.size(), three.shards.size());
  for (size_t s = 0; s < one.shards.size(); ++s) {
    EXPECT_EQ(one.shards[s].clock.app_io, three.shards[s].clock.app_io);
    EXPECT_EQ(one.shards[s].clock.gc_io, three.shards[s].clock.gc_io);
    EXPECT_EQ(one.shards[s].collections, three.shards[s].collections);
    EXPECT_EQ(one.shards[s].total_reclaimed_bytes,
              three.shards[s].total_reclaimed_bytes);
  }
  EXPECT_EQ(one.coordinator_decisions.size(),
            three.coordinator_decisions.size());
}

TEST(MultiTenantTest, EveryClientEventIsApplied) {
  MultiTenantReport r = RunFleet(4, 2, 8, 500);
  EXPECT_EQ(r.clients, 8u);
  uint64_t shard_events = 0;
  for (const SimResult& s : r.shards) shard_events += s.clock.events;
  // Each shard additionally applied its catalog creations.
  EXPECT_EQ(shard_events, r.events + 4ull * 3ull);
  EXPECT_GT(r.epochs, 0u);
}

// A client that keeps rewriting one root slot between null and a live
// local object, `flips` times. Streaming churn never overwrites a slot
// it wrote null (a trimmed tail dies instead), so this is the client
// whose shared slots are revoked by overwrite rather than reconciled.
std::shared_ptr<const Trace> SlotFlipper(uint32_t flips) {
  auto t = std::make_shared<Trace>();
  t->Append(CreateEvent(1, 64, 2));
  t->Append(AddRootEvent(1));
  t->Append(CreateEvent(2, 64, 0));
  t->Append(WriteRefEvent(1, 1, 2));
  for (uint32_t i = 0; i < flips; ++i) {
    t->Append(WriteRefEvent(1, 0, 0));
    t->Append(WriteRefEvent(1, 0, 2));
  }
  return t;
}

TEST(MultiTenantTest, CrossShardPinsBalanceAndKeepStoresConsistent) {
  MultiTenantOptions opt = SmallFleet(2, 2);
  opt.share_prob = 1.0;  // every null write becomes a shared reference
  MultiTenantEngine engine(opt);
  // Churn clients release their shared slots when the source dies
  // (reconciled); the slot flippers release theirs by overwrite
  // (revoked), so both revoke paths run.
  AddChurnClients(engine, 6, 400);
  MuxClientOptions m;
  m.base_chunk = 16;
  for (size_t c = 0; c < 3; ++c) engine.AddClient(SlotFlipper(300), m);
  MultiTenantReport r = engine.Run();

  EXPECT_GT(r.xshard_writes, 0u);
  EXPECT_GT(r.pins_granted, 0u);
  EXPECT_GT(r.pins_revoked, 0u);
  EXPECT_GT(r.pins_reconciled, 0u);
  EXPECT_GT(r.exchange_batches, 0u);

  // Each shard's heap stays internally consistent: pinned catalog
  // objects alive, oracle == reachability at quiescence. Every pin
  // above the engine's own directory pin is a live remote reference.
  uint64_t live = 0;
  for (size_t s = 0; s < engine.num_shards(); ++s) {
    const ObjectStore& store = engine.shard(s).store();
    for (uint32_t k = 1; k <= opt.catalog_per_shard; ++k) {
      EXPECT_TRUE(store.Exists(k)) << "shard " << s << " catalog " << k;
      EXPECT_TRUE(store.IsExternallyPinned(k));
    }
    for (const auto& [id, count] : store.external_pins()) {
      ASSERT_LE(id, opt.catalog_per_shard) << "shard " << s;
      live += count - 1;
    }
    ReachabilityResult scan = ScanReachability(store);
    EXPECT_EQ(scan.unreachable_bytes, store.actual_garbage_bytes())
        << "shard " << s;
  }
  // Conservation: every pin granted was revoked by an overwrite,
  // reconciled after its source died, or is still held.
  EXPECT_GT(live, 0u);
  EXPECT_EQ(r.pins_granted, r.pins_revoked + r.pins_reconciled + live);
}

TEST(MultiTenantTest, CoordinatorEmitsGrantsAndRevokes) {
  MultiTenantOptions opt = SmallFleet(2, 1);
  opt.coordinator_period = 2;
  opt.global_io_frac = 0.10;
  MultiTenantEngine engine(opt);
  // Unbalanced tenancy: client 0 (shard 0) churns hard, client 1
  // (shard 1) is a slow reader producing almost no garbage.
  StreamingChurnOptions hot;
  hot.seed = 1;
  hot.cycles = 1200;
  hot.target_length = 8;  // trims often -> garbage-heavy
  MuxClientOptions m;
  m.base_chunk = 32;
  engine.AddClient(std::make_unique<StreamingChurnSource>(hot), m);
  StreamingChurnOptions cold;
  cold.seed = 2;
  cold.cycles = 1200;
  cold.target_length = 1000000;  // never trims -> no garbage
  cold.read_factor = 4;
  engine.AddClient(std::make_unique<StreamingChurnSource>(cold), m);
  MultiTenantReport r = engine.Run();

  EXPECT_GT(r.budget_grants, 0u);
  EXPECT_GT(r.budget_revokes, 0u);
  ASSERT_FALSE(r.coordinator_decisions.empty());
  std::set<std::string> reasons;
  for (const obs::PolicyDecisionRecord& d : r.coordinator_decisions) {
    EXPECT_EQ(d.policy, "budget_coordinator");
    reasons.insert(obs::DecisionReasonName(d.reason));
    EXPECT_GT(d.target, 0.0);
  }
  EXPECT_TRUE(reasons.count("budget_grant"));
  EXPECT_TRUE(reasons.count("budget_revoke"));
}

TEST(MultiTenantTest, StallHistogramsMergeAcrossShards) {
  MultiTenantOptions opt = SmallFleet(2, 1);
  opt.shard_config.telemetry.enabled = true;
  MultiTenantEngine engine(opt);
  AddChurnClients(engine, 4, 600);
  MultiTenantReport r = engine.Run();
  EXPECT_EQ(r.stall_gc_copy.id, "stall.gc_copy_io");
  uint64_t per_shard = 0;
  for (const SimResult& s : r.shards) {
    for (const obs::HistogramSnapshot& h : s.telemetry.histograms) {
      if (h.id == "stall.gc_copy_io") per_shard += h.count;
    }
  }
  EXPECT_EQ(r.stall_gc_copy.count, per_shard);
}

// Capped shard stores with the governor off: a shard dies with
// SpaceExhaustedError inside its apply task while the calling thread
// drains the next epoch. Run() must rethrow the same error at any
// thread count, and only after every apply task has finished, so each
// shard stands exactly where the 1-thread run left it.
struct ExhaustedFleet {
  uint64_t used = 0;
  uint64_t committed = 0;
  uint64_t capacity = 0;
  size_t shard = 0;  // lowest shard whose store matches the error
  std::vector<uint64_t> shard_events;
  std::vector<uint64_t> shard_used;
};

ExhaustedFleet RunExhaustedFleet(int threads) {
  MultiTenantOptions opt = SmallFleet(4, threads);
  opt.shard_config.store.max_db_bytes = 3 * 16 * 1024;
  MultiTenantEngine engine(opt);
  AddChurnClients(engine, 8, 500);
  ExhaustedFleet out;
  try {
    engine.Run();
    ADD_FAILURE() << "the capped fleet did not run out of space";
  } catch (const SpaceExhaustedError& e) {
    out.used = e.used_bytes();
    out.committed = e.committed_bytes();
    out.capacity = e.max_db_bytes();
  }
  out.shard = engine.num_shards();
  for (size_t s = 0; s < engine.num_shards(); ++s) {
    const ObjectStore& store = engine.shard(s).store();
    if (out.shard == engine.num_shards() && store.used_bytes() == out.used &&
        store.committed_bytes() == out.committed) {
      out.shard = s;
    }
    out.shard_events.push_back(engine.shard(s).clock().events);
    out.shard_used.push_back(store.used_bytes());
  }
  return out;
}

TEST(MultiTenantTest, SpaceExhaustionRethrowsAfterEveryApplyTaskJoins) {
  const ExhaustedFleet one = RunExhaustedFleet(1);
  ASSERT_GT(one.capacity, 0u);
  ASSERT_LT(one.shard, one.shard_events.size());
  const ExhaustedFleet four = RunExhaustedFleet(4);
  EXPECT_EQ(four.used, one.used);
  EXPECT_EQ(four.committed, one.committed);
  EXPECT_EQ(four.capacity, one.capacity);
  EXPECT_EQ(four.shard, one.shard);
  EXPECT_EQ(four.shard_events, one.shard_events);
  EXPECT_EQ(four.shard_used, one.shard_used);
}

// A client whose Next() throws after `limit` events: an error on the
// calling thread, raised while it drains ahead of the apply.
struct SourceFailure {};

class FailingSource : public EventSource {
 public:
  FailingSource(std::unique_ptr<EventSource> inner, uint64_t limit)
      : inner_(std::move(inner)), limit_(limit) {}
  bool Next(TraceEvent* out) override {
    if (drawn_++ == limit_) throw SourceFailure{};
    return inner_->Next(out);
  }
  uint32_t max_object_id() const override {
    return inner_->max_object_id();
  }

 private:
  std::unique_ptr<EventSource> inner_;
  uint64_t limit_;
  uint64_t drawn_ = 0;
};

std::vector<uint64_t> ShardEventsAfterDrainFailure(int threads) {
  MultiTenantEngine engine(SmallFleet(3, threads));
  AddChurnClients(engine, 5, 400);
  StreamingChurnOptions o;
  o.seed = 99;
  o.cycles = 400;
  engine.AddClient(
      std::make_unique<FailingSource>(
          std::make_unique<StreamingChurnSource>(o), 1500),
      MuxClientOptions{});
  EXPECT_THROW(engine.Run(), SourceFailure);
  std::vector<uint64_t> events;
  for (size_t s = 0; s < engine.num_shards(); ++s) {
    events.push_back(engine.shard(s).clock().events);
  }
  return events;
}

TEST(MultiTenantTest, DrainExceptionRethrowsAfterTheApplyJoins) {
  // The epoch applying while the drain failed finishes on every shard
  // before Run() rethrows, at any thread count.
  const std::vector<uint64_t> one = ShardEventsAfterDrainFailure(1);
  uint64_t applied = 0;
  for (uint64_t events : one) applied += events;
  // At least the 3 x 3 catalog creations and one 512-event epoch: the
  // failure hit a drain that overlapped an apply, not the first drain.
  EXPECT_GE(applied, 9u + 512u);
  EXPECT_EQ(ShardEventsAfterDrainFailure(4), one);
}

// Governed fleet: capped shard stores with the pressure governor on,
// admission backpressure and the circuit breaker active. The defer gate
// runs in the serial drain and shard pressure only moves during the
// parallel apply phase, so the whole degradation cascade must stay
// byte-identical at any apply-lane count.
MultiTenantOptions GovernedFleet(int threads) {
  MultiTenantOptions opt = SmallFleet(2, threads);
  // Live set per shard (3 streaming-churn clients) is ~72 KB; 7
  // partitions of 16 KB put it above yellow, and garbage spikes push
  // red. Boost is disabled so shards actually reach the red watermark —
  // backpressure and the breaker both key off it — and the governor
  // checks often enough that one inter-check allocation burst cannot
  // blow through the red-to-ceiling headroom.
  opt.shard_config.store.max_db_bytes = 7 * 16 * 1024;
  opt.shard_config.governor.enabled = true;
  opt.shard_config.governor.boost_interval_overwrites = 1ull << 40;
  opt.shard_config.governor.check_interval_events = 16;
  opt.backpressure = true;
  opt.admission_defer_limit = 4;
  opt.breaker = true;
  return opt;
}

TEST(MultiTenantOverloadTest, GovernedFleetDeterministicAcrossThreads) {
  MultiTenantReport base;
  bool first = true;
  for (int threads : {1, 2, 4}) {
    MultiTenantEngine engine(GovernedFleet(threads));
    AddChurnClients(engine, 6, 500);
    MultiTenantReport r = engine.Run();
    if (first) {
      base = r;
      first = false;
      // The cell is only meaningful if the degradation path actually
      // ran: shards must have come under enough pressure to defer.
      EXPECT_GT(r.admission_deferrals, 0u);
    } else {
      EXPECT_EQ(r.FleetChecksum(), base.FleetChecksum())
          << "threads=" << threads;
      EXPECT_EQ(r.admission_deferrals, base.admission_deferrals);
      EXPECT_EQ(r.breaker_opens, base.breaker_opens);
    }
  }
}

TEST(MultiTenantOverloadTest, BackpressureStillDrainsEveryEvent) {
  // Deferral reschedules turns, it never drops them: all client events
  // must reach their shards.
  MultiTenantEngine engine(GovernedFleet(2));
  AddChurnClients(engine, 6, 300);
  MultiTenantReport r = engine.Run();
  uint64_t applied = 0;
  for (const SimResult& s : r.shards) applied += s.clock.events;
  // Each shard additionally applied its catalog creations.
  EXPECT_EQ(applied, r.events + 2ull * 3ull);
  EXPECT_GT(r.events, 0u);
}

TEST(MultiTenantOverloadTest, GateInstalledOnMuxKeepsTheDrainSerial) {
  // A gate installed directly on mux() may read any shard state, so the
  // engine must drain after the barrier for it too; drained during the
  // apply, this gate would race the shards it reads.
  auto run = [](int threads) {
    MultiTenantEngine engine(SmallFleet(3, threads));
    AddChurnClients(engine, 9, 300);
    engine.mux().SetAdmissionGate(
        [&engine](uint32_t client) {
          return engine.shard(client % 3).clock().events % 2 == 1;
        },
        2);
    return engine.Run();
  };
  const MultiTenantReport one = run(1);
  EXPECT_GT(one.admission_deferrals, 0u);
  for (int threads : {2, 4}) {
    const MultiTenantReport r = run(threads);
    EXPECT_EQ(r.FleetChecksum(), one.FleetChecksum())
        << "threads=" << threads;
  }
}

TEST(MultiTenantOverloadTest, UngovernedFleetUnchangedByOverloadKnobs) {
  // With backpressure/breaker off, the new fields must not disturb the
  // established fleet checksum path: two identical runs agree and the
  // overload counters stay zero.
  MultiTenantReport a = RunFleet(2, 1, 4, 300);
  MultiTenantReport b = RunFleet(2, 2, 4, 300);
  EXPECT_EQ(a.FleetChecksum(), b.FleetChecksum());
  EXPECT_EQ(a.admission_deferrals, 0u);
  EXPECT_EQ(a.breaker_opens, 0u);
  EXPECT_EQ(a.breaker_closes, 0u);
}

// Cross-commit pins. The tests above compare thread counts within one
// build, so a change that is wrong the same way at every thread count
// passes them; these compare against outputs committed to
// tests/golden/: the fleet checksum, then every coordinator, breaker
// and admission record as decision JSONL.
std::string FleetPin(const MultiTenantReport& r) {
  SimResult holder;
  holder.decisions = r.coordinator_decisions;
  return "{\"fleet_checksum\":" + std::to_string(r.FleetChecksum()) +
         "}\n" + DecisionsToJsonl(holder);
}

TEST(MultiTenantPinTest, SmallFleetMatchesGolden) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    MultiTenantReport r = RunFleet(3, threads, 9, 600);
    ASSERT_FALSE(r.coordinator_decisions.empty());
    CheckAgainstGolden("fleet_small.jsonl", FleetPin(r));
  }
}

TEST(MultiTenantPinTest, GovernedFleetMatchesGolden) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    MultiTenantEngine engine(GovernedFleet(threads));
    AddChurnClients(engine, 6, 500);
    MultiTenantReport r = engine.Run();
    std::set<std::string> policies;
    for (const obs::PolicyDecisionRecord& d : r.coordinator_decisions) {
      policies.insert(d.policy);
    }
    // The pin must cover all three record sources.
    EXPECT_TRUE(policies.count("admission"));
    EXPECT_TRUE(policies.count("breaker"));
    EXPECT_TRUE(policies.count("budget_coordinator"));
    CheckAgainstGolden("fleet_governed.jsonl", FleetPin(r));
  }
}

TEST(MultiTenantTest, IdRangeOverflowIsRejected) {
  // The mux's global check fires first for a client claiming every id;
  // one id less passes it but not the shard-local check, whose range
  // starts past the catalog.
  auto add = [](uint32_t max_id) {
    MultiTenantEngine engine(SmallFleet(2, 1));
    engine.AddClient(std::make_unique<TraceCursorSource>(nullptr, max_id),
                     MuxClientOptions{});
  };
  EXPECT_DEATH(add(UINT32_MAX),
               "client id ranges overflow the 32-bit id space");
  EXPECT_DEATH(add(UINT32_MAX - 1),
               "shard-local id ranges overflow the 32-bit id space");
}

TEST(ExternalPinTest, PinKeepsUnrootedObjectAliveUntilReleased) {
  StoreConfig cfg;
  cfg.partition_bytes = 4096;
  cfg.page_bytes = 1024;
  cfg.buffer_pages = 4;
  ObjectStore store(cfg);
  store.CreateObject(1, 200, 0);  // unrooted, would be garbage
  store.CreateObject(2, 100, 0);  // newest-allocation pin holder
  ASSERT_EQ(store.object(1).partition, 0u);

  store.AddExternalPin(1);
  store.AddExternalPin(1);  // refcounted
  Collector gc;
  gc.Collect(store, 0);
  EXPECT_TRUE(store.Exists(1));

  store.RemoveExternalPin(1);
  gc.Collect(store, 0);
  EXPECT_TRUE(store.Exists(1));  // one refcount still held

  store.RemoveExternalPin(1);
  EXPECT_FALSE(store.IsExternallyPinned(1));
  gc.Collect(store, 0);
  EXPECT_FALSE(store.Exists(1));
}

}  // namespace
}  // namespace odbgc
