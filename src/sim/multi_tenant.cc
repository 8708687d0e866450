#include "sim/multi_tenant.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "sim/multi_client.h"
#include "sim/runner.h"
#include "util/check.h"

namespace odbgc {

namespace {
// The per-shard clamp range the budget coordinator may grant any single
// tenant, and the budget an open circuit breaker pins a sick shard to.
constexpr double kMinShardFrac = 0.02;
constexpr double kMaxShardFrac = 0.40;
}  // namespace

uint64_t MultiTenantReport::FleetChecksum() const {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(clients);
  mix(events);
  mix(epochs);
  mix(xshard_writes);
  mix(pins_granted);
  mix(pins_revoked);
  mix(pins_reconciled);
  mix(exchange_batches);
  mix(budget_grants);
  mix(budget_revokes);
  mix(admission_deferrals);
  mix(breaker_opens);
  mix(breaker_closes);
  mix(contention_events);
  mix(contention_delay_units);
  for (const SimResult& s : shards) {
    mix(s.clock.app_io);
    mix(s.clock.gc_io);
    mix(s.clock.pointer_overwrites);
    mix(s.clock.events);
    mix(s.collections);
    mix(s.total_reclaimed_bytes);
    mix(s.final_db_used_bytes);
    mix(s.final_actual_garbage_bytes);
  }
  return h;
}

MultiTenantEngine::MultiTenantEngine(const MultiTenantOptions& options)
    : options_(options),
      rng_(options.seed),
      ledger_(1 << 12) {
  ODBGC_CHECK(options_.num_shards > 0);
  ODBGC_CHECK(options_.epoch_events > 0);
  pool_ = std::make_unique<ThreadPool>(options_.threads);
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    SimConfig cfg = options_.shard_config;
    // Decorrelate the shard selectors/fault streams from each other and
    // from every client RNG.
    ApplyRunSeeds(&cfg, options_.seed * 1000003ull + s);
    sims_.push_back(std::make_unique<Simulation>(cfg));
  }
  // Catalog ids occupy [1, catalog_per_shard] of every shard's local id
  // space; tenants get offsets past them.
  shard_next_offset_.assign(options_.num_shards, options_.catalog_per_shard);
  turn_.resize(options_.epoch_events);
  epoch_batch_.resize(options_.num_shards);
  next_batch_.resize(options_.num_shards);
  exchange_.resize(options_.num_shards);
  prev_io_.assign(options_.num_shards, 0);
  shard_budget_.assign(options_.num_shards, options_.global_io_frac);
  breaker_open_.assign(options_.num_shards, 0);
  breaker_clean_.assign(options_.num_shards, 0);
  defer_ledger_epoch_.assign(options_.num_shards, 0);
  CreateCatalog();
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    prev_io_[s] = sims_[s]->clock().total_io();
  }
}

void MultiTenantEngine::CreateCatalog() {
  // The catalog objects are unreachable from any root on purpose: their
  // liveness is carried entirely by external pins — the engine's
  // permanent "directory pin" here plus one refcount per live remote
  // reference. They carry no kGarbageMark and are never unpinned, so
  // they can never perturb a shard's garbage ground truth.
  constexpr uint32_t kCatalogObjectBytes = 512;
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    for (uint32_t k = 1; k <= options_.catalog_per_shard; ++k) {
      sims_[s]->Apply(CreateEvent(k, kCatalogObjectBytes, 0));
      sims_[s]->store().AddExternalPin(k);
    }
  }
}

size_t MultiTenantEngine::AddClient(std::unique_ptr<EventSource> source,
                                    const MuxClientOptions& mux_options) {
  ODBGC_CHECK(!finished_);
  ODBGC_CHECK(source != nullptr);
  const uint32_t max_id = source->max_object_id();
  const size_t c = mux_.AddClient(std::move(source), mux_options);
  ODBGC_CHECK(c == client_shard_.size());
  const uint32_t shard = static_cast<uint32_t>(c % sims_.size());
  const uint32_t local_offset = shard_next_offset_[shard];
  ODBGC_CHECK_MSG(
      local_offset <= UINT32_MAX - (max_id + 1),
      "shard-local id ranges overflow the 32-bit id space");
  shard_next_offset_[shard] = local_offset + max_id + 1;
  client_shard_.push_back(shard);
  // Composing the mux's global offset with this delta (mod 2^32) lands
  // the client's ids on [local_offset + 1, local_offset + max_id].
  client_delta_.push_back(local_offset - mux_.client_offset(c));
  return c;
}

size_t MultiTenantEngine::AddClient(std::shared_ptr<const Trace> trace,
                                    const MuxClientOptions& mux_options) {
  ODBGC_CHECK(trace != nullptr);
  const uint32_t max_id = MaxObjectId(*trace);
  return AddClient(
      std::make_unique<TraceCursorSource>(std::move(trace), max_id),
      mux_options);
}

void MultiTenantEngine::EnqueuePinDelta(uint32_t shard, uint32_t id,
                                        int32_t delta) {
  exchange_[shard].push_back(PinDelta{id, delta});
}

void MultiTenantEngine::ApplyExchange() {
  for (size_t s = 0; s < sims_.size(); ++s) {
    if (exchange_[s].empty()) continue;
    ++report_.exchange_batches;
    ObjectStore& store = sims_[s]->store();
    for (const PinDelta& d : exchange_[s]) {
      if (d.delta > 0) {
        store.AddExternalPin(d.id);
      } else {
        store.RemoveExternalPin(d.id);
      }
    }
    exchange_[s].clear();
  }
}

void MultiTenantEngine::DrainEpoch() {
  const bool cross_shard = options_.catalog_per_shard > 0;
  while (drained_ < options_.epoch_events) {
    uint32_t client = 0;
    const size_t n =
        mux_.Pull(turn_.data(), options_.epoch_events - drained_, &client);
    if (n == 0) break;
    const uint32_t s = client_shard_[client];
    const uint32_t delta = client_delta_[client];
    std::vector<TraceEvent>& batch = next_batch_[s];
    const size_t first = batch.size();
    batch.insert(batch.end(), turn_.begin(), turn_.begin() + n);
    for (size_t i = first; i < batch.size(); ++i) {
      TraceEvent& e = batch[i];
      RemapEventIds(&e, delta);
      if (e.kind == EventKind::kWriteRef && cross_shard) {
        write_sites_.push_back({s, static_cast<uint32_t>(i)});
      }
    }
    drained_ += static_cast<uint32_t>(n);
  }
}

void MultiTenantEngine::ResolveWrites() {
  const uint64_t total_catalog =
      static_cast<uint64_t>(sims_.size()) * options_.catalog_per_shard;
  for (const WriteSite& site : write_sites_) {
    const uint32_t s = site.shard;
    TraceEvent& e = epoch_batch_[s][site.index];
    const RefKey key{s, e.a, e.b};
    auto it = remote_refs_.find(key);
    if (it != remote_refs_.end()) {
      // The slot is being overwritten: the old remote target loses one
      // refcount (delivered at the next epoch start; the target stays
      // alive meanwhile under the engine's directory pin).
      EnqueuePinDelta(it->second.first, it->second.second, -1);
      ++report_.pins_revoked;
      remote_refs_.erase(it);
    }
    // Only null-target writes are redirected: the local apply then
    // detaches nothing it would not have detached anyway, so the
    // clients' garbage ground truth is untouched.
    if (e.c == 0 && options_.share_prob > 0.0 &&
        rng_.NextDouble() < options_.share_prob) {
      const uint64_t pick = rng_.NextBelow(total_catalog);
      const uint32_t target_shard =
          static_cast<uint32_t>(pick / options_.catalog_per_shard);
      const uint32_t target_id =
          1 + static_cast<uint32_t>(pick % options_.catalog_per_shard);
      if (target_shard == s) {
        // Same shard: an ordinary local reference.
        e.c = target_id;
      } else {
        // Cross-shard: the local store keeps the null slot (shard
        // stores never hold foreign ids); the reference lives in the
        // engine's remembered set, backed by a +1 pin on the target.
        remote_refs_[key] = {target_shard, target_id};
        EnqueuePinDelta(target_shard, target_id, +1);
        ++report_.pins_granted;
        ++report_.xshard_writes;
      }
    }
  }
  write_sites_.clear();
}

void MultiTenantEngine::Reconcile() {
  for (auto it = remote_refs_.begin(); it != remote_refs_.end();) {
    const uint32_t src_shard = std::get<0>(it->first);
    const uint32_t src_id = std::get<1>(it->first);
    if (!sims_[src_shard]->store().Exists(src_id)) {
      EnqueuePinDelta(it->second.first, it->second.second, -1);
      ++report_.pins_reconciled;
      it = remote_refs_.erase(it);
    } else {
      ++it;
    }
  }
}

void MultiTenantEngine::EndEpoch() {
  const size_t n = sims_.size();
  // Per-shard epoch cost: events applied plus this epoch's simulated
  // I/O.
  std::vector<uint64_t> cost(n, 0);
  uint64_t total = 0;
  for (size_t s = 0; s < n; ++s) {
    const uint64_t io = sims_[s]->clock().total_io();
    cost[s] = epoch_batch_[s].size() + (io - prev_io_[s]);
    prev_io_[s] = io;
    total += cost[s];
  }
  // Contention: a shard drawing more than twice the fair share of the
  // epoch queues behind the shared commit latch. The delay grows with
  // the excess and carries seeded jitter; it is counted in the report,
  // never charged to real state.
  for (size_t s = 0; s < n; ++s) {
    if (n > 1 && cost[s] * n > 2 * total) {
      const uint64_t excess = cost[s] * n - 2 * total;
      const uint64_t delay =
          excess / (2 * n) + rng_.NextBelow(cost[s] / 16 + 1);
      report_.contention_delay_units += delay;
      ++report_.contention_events;
    }
  }
  Reconcile();
  if (options_.coordinator_period > 0 &&
      epochs_ % options_.coordinator_period == 0) {
    CoordinatorTick();
  }
}

double MultiTenantEngine::BreakerClamp(size_t s, double budget) {
  // Unhealthy = red-watermark pressure or a store with at least half its
  // partitions quarantined. Open the breaker on the first unhealthy tick;
  // close it only after two consecutive healthy ones.
  constexpr double kQuarantineFracToOpen = 0.5;
  constexpr uint32_t kHealthyTicksToClose = 2;
  const ObjectStore& store = sims_[s]->store();
  const size_t parts = store.partition_count();
  const double qfrac =
      parts > 0 ? static_cast<double>(store.quarantined_count()) /
                      static_cast<double>(parts)
                : 0.0;
  const bool unhealthy =
      sims_[s]->pressure_level() == PressureLevel::kRed ||
      qfrac >= kQuarantineFracToOpen;
  if (breaker_open_[s] == 0) {
    if (unhealthy) {
      breaker_open_[s] = 1;
      breaker_clean_[s] = 0;
      ++report_.breaker_opens;
      LedgerShardEvent(s, events_routed_, "breaker",
                       obs::DecisionReason::kBreakerOpen, kMinShardFrac);
    }
  } else if (unhealthy) {
    breaker_clean_[s] = 0;
  } else if (++breaker_clean_[s] >= kHealthyTicksToClose) {
    breaker_open_[s] = 0;
    breaker_clean_[s] = 0;
    ++report_.breaker_closes;
    LedgerShardEvent(s, events_routed_, "breaker",
                     obs::DecisionReason::kBreakerClose, budget);
  }
  return breaker_open_[s] != 0 ? kMinShardFrac : budget;
}

void MultiTenantEngine::StageShardContext(size_t s, uint64_t event) {
  const SimClock& ck = sims_[s]->clock();
  obs::PolicyDecisionRecord ctx;
  ctx.event = event;
  ctx.app_io = ck.app_io;
  ctx.gc_io = ck.gc_io;
  ctx.io_pct = ck.total_io() > 0
                   ? 100.0 * static_cast<double>(ck.gc_io) /
                         static_cast<double>(ck.total_io())
                   : 0.0;
  ctx.db_used_bytes = ck.db_used_bytes;
  ctx.actual_garbage_bytes = sims_[s]->store().actual_garbage_bytes();
  ctx.garbage_pct = ck.db_used_bytes > 0
                        ? 100.0 * static_cast<double>(
                                      ctx.actual_garbage_bytes) /
                              static_cast<double>(ck.db_used_bytes)
                        : 0.0;
  ctx.collection = sims_[s]->collections();
  ledger_.SetContext(ctx);
}

void MultiTenantEngine::LedgerShardEvent(size_t s, uint64_t event,
                                         const char* who,
                                         obs::DecisionReason reason,
                                         double target_frac) {
  StageShardContext(s, event);
  // Same field semantics as the coordinator's budget records:
  // next_threshold carries the shard index, target the fraction in
  // percent (docs/POLICIES.md).
  ledger_.Append(who, reason, 0.0, s, 100.0 * target_frac);
}

void MultiTenantEngine::CoordinatorTick() {
  const size_t n = sims_.size();
  // Redistribute the fleet budget by observed garbage share: tenants
  // sitting on more uncollected garbage earn a larger io fraction, each
  // grant clamped to [kMinShardFrac, kMaxShardFrac].
  std::vector<uint64_t> garbage(n, 0);
  uint64_t total_garbage = 0;
  for (size_t s = 0; s < n; ++s) {
    garbage[s] = sims_[s]->store().actual_garbage_bytes();
    total_garbage += garbage[s];
  }
  for (size_t s = 0; s < n; ++s) {
    const double weight =
        total_garbage > 0
            ? static_cast<double>(garbage[s]) /
                  static_cast<double>(total_garbage)
            : 1.0 / static_cast<double>(n);
    double budget = options_.global_io_frac *
                    static_cast<double>(n) * weight;
    budget = std::min(std::max(budget, kMinShardFrac), kMaxShardFrac);
    if (options_.breaker) {
      budget = BreakerClamp(s, budget);
    }
    const double old = shard_budget_[s];
    if (std::fabs(budget - old) < 1e-9) continue;
    sims_[s]->policy().SetIoBudget(budget);
    shard_budget_[s] = budget;
    StageShardContext(s, events_routed_);
    // chosen_interval carries the budget delta, next_threshold the shard
    // index, target the granted fraction in percent (docs/POLICIES.md).
    const bool grant = budget > old;
    ledger_.Append("budget_coordinator",
                   grant ? obs::DecisionReason::kBudgetGrant
                         : obs::DecisionReason::kBudgetRevoke,
                   budget - old, s, 100.0 * budget);
    if (grant) {
      ++report_.budget_grants;
    } else {
      ++report_.budget_revokes;
    }
  }
}

MultiTenantReport MultiTenantEngine::Run() {
  ODBGC_CHECK_MSG(!finished_, "MultiTenantEngine::Run is callable once");
  finished_ = true;
  if (options_.backpressure) {
    // The gate runs inside the serial drain; pressure levels only move
    // during the parallel apply, so within one drain the gate is a fixed
    // function of the shard states the barrier committed — deterministic
    // at any thread count.
    mux_.SetAdmissionGate(
        [this](uint32_t client) {
          const uint32_t s = client_shard_[client];
          if (sims_[s]->pressure_level() != PressureLevel::kRed) {
            return false;
          }
          if (defer_ledger_epoch_[s] != epochs_) {
            // First deferral this epoch for this shard (epochs_ is the
            // 1-based current epoch inside the drain).
            defer_ledger_epoch_[s] = epochs_;
            // A gated drain never runs ahead of routing, so the mux's
            // position is the stream position of this decision.
            LedgerShardEvent(s, mux_.events_drawn(), "admission",
                             obs::DecisionReason::kAdmissionDefer,
                             shard_budget_[s]);
          }
          return true;
        },
        options_.admission_defer_limit);
  }
  // Without a gate the merged stream depends on nothing outside the mux,
  // so the next epoch is drained while this one applies. A gate may read
  // shard state (backpressure reads pressure), which the apply moves, so
  // a gated drain waits for the barrier.
  const bool overlap = !mux_.has_admission_gate();
  const std::function<void()> drain_next = [this] { DrainEpoch(); };
  if (overlap) DrainEpoch();
  for (;;) {
    ++epochs_;
    // 1. Serial: deliver the previous epoch's pin deltas, shard order.
    ApplyExchange();
    // 2. Serial: take the drained batches (a gated fleet drains them
    // here) and resolve their pointer writes, intercepting cross-shard
    // writes.
    if (!overlap) DrainEpoch();
    if (drained_ == 0) {
      --epochs_;  // nothing happened; do not close an empty epoch
      break;
    }
    const bool last = drained_ < options_.epoch_events;
    epoch_batch_.swap(next_batch_);
    for (auto& batch : next_batch_) batch.clear();
    ResolveWrites();
    events_routed_ += drained_;
    drained_ = 0;
    // 3. Parallel: apply each shard's batch. Shards share no mutable
    // state, so any thread count computes the same result. Meanwhile
    // this thread drains the next epoch into next_batch_, which touches
    // only the mux and buffers no apply task reads.
    pool_->ParallelFor(
        sims_.size(),
        [this](size_t s) {
          for (const TraceEvent& ev : epoch_batch_[s]) sims_[s]->Apply(ev);
        },
        overlap && !last ? drain_next : nullptr);
    // 4. Serial barrier: contention, reconciliation, coordinator.
    EndEpoch();
    if (last) break;
  }
  // Flush the last epoch's reconciliation/overwrite revokes so final
  // pin counts balance.
  ApplyExchange();
  return BuildReport();
}

MultiTenantReport MultiTenantEngine::BuildReport() {
  MultiTenantReport r = std::move(report_);
  r.clients = mux_.clients();
  r.events = events_routed_;
  r.epochs = epochs_;
  r.admission_deferrals = mux_.admission_deferrals();
  r.coordinator_decisions = ledger_.Records();
  obs::Histogram merged;
  bool any_tel = false;
  r.shards.reserve(sims_.size());
  for (auto& sim : sims_) {
    r.shards.push_back(sim->Finish());
    if (obs::Telemetry* tel = sim->telemetry()) {
      merged.Merge(*tel->metrics().GetHistogram("stall.gc_copy_io"));
      any_tel = true;
    }
  }
  if (any_tel) {
    r.stall_gc_copy.id = "stall.gc_copy_io";
    r.stall_gc_copy.count = merged.count();
    r.stall_gc_copy.min = merged.min();
    r.stall_gc_copy.max = merged.max();
    r.stall_gc_copy.mean = merged.mean();
    r.stall_gc_copy.p50 = merged.Percentile(50.0);
    r.stall_gc_copy.p95 = merged.Percentile(95.0);
    r.stall_gc_copy.p99 = merged.Percentile(99.0);
  }
  return r;
}

size_t MultiTenantEngine::ApproxMemoryBytes() const {
  size_t bytes = sizeof(*this) + mux_.ApproxMemoryBytes() +
                 turn_.capacity() * sizeof(TraceEvent) +
                 write_sites_.capacity() * sizeof(WriteSite);
  for (const auto& batch : epoch_batch_) {
    bytes += batch.capacity() * sizeof(TraceEvent);
  }
  for (const auto& batch : next_batch_) {
    bytes += batch.capacity() * sizeof(TraceEvent);
  }
  for (const auto& ex : exchange_) {
    bytes += ex.capacity() * sizeof(PinDelta);
  }
  bytes += remote_refs_.size() *
           (sizeof(RefKey) + sizeof(std::pair<uint32_t, uint32_t>) +
            4 * sizeof(void*));
  return bytes;
}

}  // namespace odbgc
