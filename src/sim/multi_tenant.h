#ifndef ODBGC_SIM_MULTI_TENANT_H_
#define ODBGC_SIM_MULTI_TENANT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/decision_ledger.h"
#include "obs/metrics.h"
#include "sim/client_mux.h"
#include "sim/config.h"
#include "sim/metrics.h"
#include "sim/simulation.h"
#include "trace/event_source.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace odbgc {

// Sharded multi-tenant scale-out: partitions the client fleet across
// independent shards — each with its own ObjectStore, BufferPool and
// RatePolicy — applies per-shard event batches on a thread pool, and
// rebalances a global GC I/O budget across the shard policies from
// observed garbage shares. See DESIGN.md ("Sharded multi-tenant
// scale-out") for the commit-order determinism argument and the
// cross-shard exchange protocol.
struct MultiTenantOptions {
  uint32_t num_shards = 4;
  // Apply-lane thread pool size (<= 0 selects the hardware default).
  // Output is byte-identical at any value: shards share no mutable
  // state during the parallel phase and everything order-sensitive
  // happens in the serial epoch barrier.
  int threads = 1;
  // Events drained from the mux per epoch — the serial commit grain.
  // Larger epochs amortize the barrier; smaller ones tighten the
  // remembered-set exchange lag (which is <= 1 epoch either way).
  uint32_t epoch_events = 4096;
  // Shared catalog: immortal directory objects per shard that remote
  // tenants may reference. 0 disables all cross-shard machinery.
  uint32_t catalog_per_shard = 4;
  // Probability that a null-target pointer write is redirected at a
  // random catalog object (the cross-shard reference generator). Only
  // null-target writes are rewritten: the old-target detach is a no-op
  // either way and catalog objects are immortal, so the clients'
  // kGarbageMark ground truth is untouched.
  double share_prob = 0.02;
  // Engine RNG seed (share draws, contention jitter) — independent of
  // every per-client and per-shard stream.
  uint64_t seed = 1;
  // Budget coordinator cadence in epochs; 0 disables it.
  uint32_t coordinator_period = 8;
  // Fleet-wide GC I/O budget: the mean per-shard io fraction the
  // coordinator redistributes (each grant clamped per shard, see
  // CoordinatorTick).
  double global_io_frac = 0.10;
  // Overload protection across the fleet (both default-off; the
  // backpressure gate reads shard pressure, so it needs
  // shard_config.governor.enabled to ever fire).
  //
  // Admission backpressure: while a shard sits at the red watermark, its
  // clients' turns are deferred at mux safe points — the fleet stops
  // feeding allocations to the tenant that is out of space. The valve
  // admits a client after admission_defer_limit consecutive deferrals,
  // because a shard only collects while events are applied: backpressure
  // throttles the backlog, it must never starve the GC out of existence.
  bool backpressure = false;
  uint32_t admission_defer_limit = 4;
  // Circuit breaker: a red-watermark or quarantine-heavy shard has its
  // GC I/O budget pinned to the per-shard floor until it has been healthy
  // for two consecutive coordinator ticks (BreakerClamp). The point is
  // fleet isolation, not space recovery — a sick shard's garbage share
  // would otherwise earn it an ever-larger slice of the global budget
  // while its collections abort against quarantined partitions; the
  // shard's own governor still runs emergency collections outside the
  // policy budget, so clamping never blocks the space path.
  bool breaker = false;
  // Template for every shard's Simulation; per-shard seeds are derived
  // from `seed` via ApplyRunSeeds so shard selectors decorrelate.
  SimConfig shard_config;
};

// Everything one multi-tenant run produces. Plain data; the bench and
// the determinism tests compare FleetChecksum() across thread counts.
struct MultiTenantReport {
  std::vector<SimResult> shards;

  uint64_t clients = 0;
  uint64_t events = 0;  // total events drained from the mux
  uint64_t epochs = 0;

  // Cross-shard remembered-set exchange.
  uint64_t xshard_writes = 0;     // writes redirected across shards
  uint64_t pins_granted = 0;      // +1 pin messages enqueued
  uint64_t pins_revoked = 0;      // -1 from slot overwrites
  uint64_t pins_reconciled = 0;   // -1 from dead source objects
  uint64_t exchange_batches = 0;  // non-empty per-shard buffers applied

  // Budget coordinator.
  uint64_t budget_grants = 0;
  uint64_t budget_revokes = 0;
  std::vector<obs::PolicyDecisionRecord> coordinator_decisions;

  // Overload protection (zero unless the options enable it and some
  // shard actually came under pressure).
  uint64_t admission_deferrals = 0;
  uint64_t breaker_opens = 0;
  uint64_t breaker_closes = 0;

  // Contention model: seeded latch-queueing delay counted for shards
  // drawing more than twice the fair share of an epoch's cost.
  uint64_t contention_events = 0;
  uint64_t contention_delay_units = 0;

  // Fleet-wide app-visible GC stall distribution: every shard's
  // stall.gc_copy_io histogram merged (empty id when telemetry was off).
  obs::HistogramSnapshot stall_gc_copy;

  // FNV-1a over every order-sensitive counter above plus each shard's
  // final clock — the cross-thread byte-identity witness.
  uint64_t FleetChecksum() const;
};

// The sharded engine. Usage:
//
//   MultiTenantEngine engine(options);
//   engine.AddClient(std::make_unique<StreamingChurnSource>(...), mux_opts);
//   ...
//   MultiTenantReport report = engine.Run();
//
// Clients are assigned to shards round-robin (client index % num_shards)
// and their mux-global object ids are re-remapped into the owning
// shard's private id space as they are drained, so each shard's store
// sees a dense id range it alone owns.
//
// Epoch loop (Run), pipelined: the calling thread serially delivers the
// previous epoch's exchanged pin deltas shard by shard, resolves the
// epoch's pointer writes (intercepting cross-shard writes), and hands
// the shard batches to the pool. While the pool applies them, the
// calling thread drains the next epoch: it pulls up to epoch_events
// events from the mux a turn at a time, remaps each into its shard's
// next batch, and records the (shard, index) of every WriteRef. After
// the join it closes the epoch serially: contention, reconciliation of
// dead remote sources, and the budget coordinator.
//
// Determinism: every rng_ draw, remembered-set lookup and pin delta
// happens in the serial resolve and barrier. Only WriteRefs touch that
// state, and the resolve walks them in the order the mux drew them, so
// the report is a pure function of (options, clients) at any thread
// count. Draining ahead is sound because without an admission gate the
// mux stream depends only on registration order and options, never on
// shard state. With a gate (backpressure, or any gate installed on
// mux()) the drain falls back to the serial position after the barrier,
// so the gate reads the pressure the barrier committed. Ledger records
// carry the number of events resolved so far, not the mux's position,
// which runs an epoch ahead. An exception from a shard (lowest shard
// first) or from the drain propagates only after every apply task has
// finished.
class MultiTenantEngine {
 public:
  explicit MultiTenantEngine(const MultiTenantOptions& options);

  MultiTenantEngine(const MultiTenantEngine&) = delete;
  MultiTenantEngine& operator=(const MultiTenantEngine&) = delete;

  // Registers a tenant; must precede Run(). Returns the client index.
  size_t AddClient(std::unique_ptr<EventSource> source,
                   const MuxClientOptions& mux_options);
  size_t AddClient(std::shared_ptr<const Trace> trace,
                   const MuxClientOptions& mux_options);

  // Drains every client to exhaustion and returns the fleet report.
  // Callable once.
  MultiTenantReport Run();

  const MultiTenantOptions& options() const { return options_; }
  size_t num_shards() const { return sims_.size(); }
  ClientMux& mux() { return mux_; }
  Simulation& shard(size_t s) { return *sims_[s]; }
  // Engine + mux + per-shard batch buffers (stores excluded; their size
  // tracks the live set, not the event count).
  size_t ApproxMemoryBytes() const;

 private:
  // A cross-shard remembered-set entry: (source shard, source local id,
  // slot) -> (target shard, target local id). std::map for deterministic
  // reconciliation order.
  using RefKey = std::tuple<uint32_t, uint32_t, uint32_t>;
  struct PinDelta {
    uint32_t id = 0;
    int32_t delta = 0;
  };

  // A pointer write in the drained stream: its shard and its index in
  // that shard's batch.
  struct WriteSite {
    uint32_t shard = 0;
    uint32_t index = 0;
  };

  void CreateCatalog();
  // Pulls up to epoch_events events from the mux, a turn at a time, into
  // the shards' next batches (remapped to shard-local ids) and records a
  // WriteSite per WriteRef. Touches only the mux and the next-epoch
  // buffers, so it may run while the pool applies the current batches.
  void DrainEpoch();
  // Applies (and clears) every shard's pending pin-delta buffer, in
  // shard order.
  void ApplyExchange();
  // Resolves the current batches' pointer writes in stream order for the
  // cross-shard reference model: revokes overwritten remote slots, draws
  // the share decisions, and patches redirected targets in place.
  void ResolveWrites();
  void EnqueuePinDelta(uint32_t shard, uint32_t id, int32_t delta);
  // Drops remembered-set entries whose source object died this epoch.
  void Reconcile();
  // Contention + reconciliation + coordinator.
  void EndEpoch();
  void CoordinatorTick();
  // Circuit-breaker state machine for shard `s`; returns the budget the
  // coordinator may grant (the per-shard floor while the breaker is open).
  double BreakerClamp(size_t s, double budget);
  // Stages shard s's clock and store figures as the ledger context of the
  // next record; `event` is the fleet stream position of the decision.
  void StageShardContext(size_t s, uint64_t event);
  // Stages shard context and appends a breaker/admission ledger record.
  void LedgerShardEvent(size_t s, uint64_t event, const char* who,
                        obs::DecisionReason reason, double target_frac);
  MultiTenantReport BuildReport();

  MultiTenantOptions options_;
  Rng rng_;
  ClientMux mux_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<Simulation>> sims_;

  // Per-client routing state (index == mux client index).
  std::vector<uint32_t> client_shard_;
  std::vector<uint32_t> client_delta_;  // local_offset - global_offset

  // Per-shard local id allocation cursor (catalog ids come first).
  std::vector<uint32_t> shard_next_offset_;

  // Epoch state. The drain fills next_batch_ and write_sites_ (drained_
  // events in all) while the pool applies epoch_batch_; after the
  // barrier the loop swaps the two batch sets and resolves write_sites_
  // against the new epoch_batch_. turn_ holds one Pull's events before
  // they are remapped. events_routed_ counts the events already
  // resolved.
  std::vector<TraceEvent> turn_;
  std::vector<std::vector<TraceEvent>> epoch_batch_;
  std::vector<std::vector<TraceEvent>> next_batch_;
  std::vector<WriteSite> write_sites_;
  uint32_t drained_ = 0;
  uint64_t events_routed_ = 0;
  std::vector<std::vector<PinDelta>> exchange_;
  std::vector<uint64_t> prev_io_;
  std::map<RefKey, std::pair<uint32_t, uint32_t>> remote_refs_;
  uint64_t epochs_ = 0;

  // Coordinator state.
  obs::DecisionLedger ledger_;
  std::vector<double> shard_budget_;

  // Circuit breaker / backpressure state.
  std::vector<uint8_t> breaker_open_;
  std::vector<uint32_t> breaker_clean_;     // consecutive healthy ticks
  std::vector<uint64_t> defer_ledger_epoch_;  // last epoch ledgered, 1-based

  // The fleet totals, counted in place; BuildReport fills in the rest.
  MultiTenantReport report_;

  bool finished_ = false;
};

}  // namespace odbgc

#endif  // ODBGC_SIM_MULTI_TENANT_H_
