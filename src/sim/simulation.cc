#include "sim/simulation.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>

#include "core/alloc_triggered.h"
#include "core/coupled.h"
#include "core/fixed_rate.h"
#include "core/saio.h"
#include "core/saga.h"
#include "sim/checkpoint.h"
#include "sim/errors.h"
#include "storage/verifier.h"
#include "util/check.h"

namespace odbgc {

std::unique_ptr<RatePolicy> MakePolicy(const SimConfig& config,
                                       GarbageEstimator** estimator_hook) {
  *estimator_hook = nullptr;
  switch (config.policy) {
    case PolicyKind::kFixedRate:
      return std::make_unique<FixedRatePolicy>(config.fixed_rate_overwrites);
    case PolicyKind::kConnectivityHeuristic:
      return std::make_unique<ConnectivityHeuristicPolicy>(
          config.heuristic_connectivity, config.heuristic_object_bytes,
          config.store.partition_bytes);
    case PolicyKind::kSaio: {
      auto policy = std::make_unique<SaioPolicy>(
          config.saio_frac, config.saio_history,
          config.saio_bootstrap_app_io);
      policy->set_opportunism(config.saio_opportunism,
                              config.saio_min_idle_yield);
      return policy;
    }
    case PolicyKind::kSaga: {
      auto estimator =
          MakeEstimator(config.estimator, config.fgs_history_factor);
      *estimator_hook = estimator.get();
      return std::make_unique<SagaPolicy>(config.saga, std::move(estimator));
    }
    case PolicyKind::kCoupled: {
      auto estimator =
          MakeEstimator(config.estimator, config.fgs_history_factor);
      *estimator_hook = estimator.get();
      return std::make_unique<CoupledIoPolicy>(config.coupled,
                                               std::move(estimator));
    }
    case PolicyKind::kAllocationRate:
      return std::make_unique<AllocationRatePolicy>(
          config.allocation_rate_bytes);
    case PolicyKind::kAllocationTriggered:
      return std::make_unique<AllocationTriggeredPolicy>();
  }
  ODBGC_CHECK_MSG(false, "unknown policy kind");
  return nullptr;
}

Simulation::Simulation(const SimConfig& config,
                       std::unique_ptr<RatePolicy> policy,
                       std::unique_ptr<PartitionSelector> selector,
                       GarbageEstimator* estimator)
    : config_(config),
      store_(std::make_unique<ObjectStore>(config.store)),
      policy_(std::move(policy)),
      selector_(std::move(selector)),
      estimator_(estimator) {
  ODBGC_CHECK(policy_ != nullptr && selector_ != nullptr);
  ConfigureCollector();
  InitTelemetry();
  InitGovernor();
}

Simulation::Simulation(const SimConfig& config)
    : config_(config), store_(std::make_unique<ObjectStore>(config.store)) {
  policy_ = MakePolicy(config_, &estimator_);
  selector_ = MakeSelector(config_.selector, config_.selector_seed);
  ConfigureCollector();
  InitTelemetry();
  InitGovernor();
}

void Simulation::InitGovernor() {
  if (!config_.governor.enabled) return;
  governor_ = std::make_unique<PressureGovernor>(config_.governor);
  emergency_selector_ = std::make_unique<MostGarbageOracleSelector>();
}

void Simulation::InitTelemetry() {
#if ODBGC_TELEMETRY
  if (!config_.telemetry.any()) return;
  tel_ = std::make_unique<obs::Telemetry>(config_.telemetry);
  tel_garbage_pct_ = tel_->metrics().GetGauge("sim.garbage_pct");
  tel_est_garbage_pct_ =
      tel_->metrics().GetGauge("sim.estimator_garbage_pct");
  tel_est_err_ = tel_->metrics().GetHistogram("sim.estimator_error_pp_x100");
  tel_collection_io_ = tel_->metrics().GetHistogram("gc.collection_io_ops");
  tel_collection_reclaimed_ =
      tel_->metrics().GetHistogram("gc.collection_reclaimed_bytes");
  tel_collection_live_ =
      tel_->metrics().GetHistogram("gc.collection_live_bytes");
  tel_stall_gc_copy_ = tel_->metrics().GetHistogram("stall.gc_copy_io");
  tel_stall_scrub_ =
      tel_->metrics().GetHistogram("stall.scrub_read_through_io");
  tel_stall_repair_ =
      tel_->metrics().GetHistogram("stall.quarantine_repair_io");
  store_->buffer_pool().AttachTelemetry(tel_.get());
  collector_.AttachTelemetry(tel_.get());
  policy_->AttachTelemetry(tel_.get());
#endif
}

void Simulation::PublishRunTotals() const {
  const IoStats& io = store_->io_stats();
  const BufferPool& pool = store_->buffer_pool();
  const struct {
    const char* id;
    uint64_t value;
  } totals[] = {
      // Page transfers include retries, so they sum to app_io / gc_io.
      {"storage.page_reads.app", io.app_reads},
      {"storage.page_reads.gc", io.gc_reads},
      {"storage.page_writes.app", io.app_writes},
      {"storage.page_writes.gc", io.gc_writes},
      {"storage.buffer.hits", pool.hits()},
      {"storage.buffer.misses", pool.misses()},
      {"storage.fault.retries", io.retries_total()},
      {"storage.fault.permanent_failures",
       io.read_failures + io.write_failures},
      {"storage.fault.torn_writes", io.torn_writes},
      {"storage.fault.torn_repairs", io.torn_repairs},
      {"storage.checksum_failures", io.checksum_failures},
      {"storage.fault.bitflips", io.bitflips},
      {"storage.fault.device_faults", io.device_faults},
      {"gc.collections", collector_.collections_performed()},
      {"gc.crashes", collector_.crashes_injected()},
      {"gc.recoveries", result_.recoveries},
      {"gc.bytes_reclaimed", result_.total_reclaimed_bytes},
      {"storage.pages_scrubbed", result_.pages_scrubbed},
      {"gc.partitions_quarantined", result_.partitions_quarantined},
      {"repair.partitions_repaired", result_.partitions_repaired},
      {"repair.pages_rewritten", result_.repair_pages_rewritten},
  };
  for (const auto& total : totals) {
    tel_->metrics().GetCounter(total.id)->value = total.value;
  }
}

void Simulation::ConfigureCollector() {
  const FaultPlan& plan = config_.store.fault;
  collector_.set_commit_protocol(plan.commit_protocol);
  if (plan.crash_point != CrashPoint::kNone) {
    collector_.ScheduleCrash(plan.crash_point, plan.crash_at_collection);
  }
}

void Simulation::RunVerifier(const char* when) {
  ODBGC_TEL_SPAN(span, tel_.get(), "verifier", {{"after", when}});
  VerifierOptions opts;
  opts.check_reachability_agreement = config_.verify_reachability;
  VerifierReport vr = VerifyHeap(*store_, opts);
  ++result_.verifier_runs;
  ODBGC_CHECK_FMT(vr.ok(), "heap verifier after %s: %s", when,
                  vr.Summary().c_str());
}

void Simulation::DrainCorruption() {
  BufferPool& pool = store_->buffer_pool();
  if (pool.pending_corruption_count() == 0) return;
  for (const CorruptionEvent& ev : pool.TakeCorruptionEvents()) {
    if (ev.kind == CorruptionKind::kScrub) ++result_.scrub_detections;
    const PartitionId p = ev.page.partition;
    if (!store_->QuarantinePartition(p)) continue;  // already quarantined
    ++result_.partitions_quarantined;
    QuarantineEvent q;
    q.detected_event = clock_.events;
    q.partition = p;
    q.kind = ev.kind;
    result_.quarantine_log.push_back(q);
    ODBGC_IF_TEL(tel_.get()) {
      tel_->Instant("quarantine",
                    {{"partition", p},
                     {"page", ev.page.page_index},
                     {"kind", CorruptionKindName(ev.kind)}});
    }
  }
}

void Simulation::RepairQuarantined() {
  std::vector<PartitionId> damaged;
  for (const Partition& p : store_->partitions()) {
    if (store_->IsQuarantined(p.id())) damaged.push_back(p.id());
  }
  if (damaged.empty()) return;
  ODBGC_TEL_SPAN(repair_span, tel_.get(), "repair",
                 {{"partitions", static_cast<uint64_t>(damaged.size())}});
  // Heal the media (in a real system: remap to spare blocks or restore
  // the extent from a replica) and rewrite every used page from the
  // authoritative object state — the slot arena survives page damage in
  // this simulator, exactly as a redundant copy would. The rewrites are
  // charged as collector I/O; they also clear any still-armed decay on
  // the rewritten pages.
  FaultInjector* injector = store_->mutable_fault_injector();
  BufferPool& pool = store_->buffer_pool();
  const uint32_t page_bytes = store_->config().page_bytes;
  for (PartitionId pid : damaged) {
    if (injector != nullptr) injector->HealPartition(pid);
    const Partition& part = store_->partition(pid);
    const uint32_t used_pages = static_cast<uint32_t>(
        (static_cast<uint64_t>(part.used()) + page_bytes - 1) / page_bytes);
    for (uint32_t pg = 0; pg < used_pages; ++pg) {
      pool.WriteThrough(PageId{pid, pg}, IoContext::kCollector);
    }
    result_.repair_pages_rewritten += used_pages;
    ODBGC_IF_TEL(tel_.get()) { tel_stall_repair_->Record(used_pages); }
  }
  // One pass rebuilds every partition's derived state (reverse index,
  // backrefs, cross-partition counters, free-space index) from the
  // primary slot arena; batching it across this tick's repairs keeps
  // the pass O(heap) regardless of how many partitions were damaged.
  store_->RebuildDerivedState();
  for (PartitionId pid : damaged) {
    store_->ReleasePartition(pid);
    ++result_.partitions_repaired;
    for (auto it = result_.quarantine_log.rbegin();
         it != result_.quarantine_log.rend(); ++it) {
      if (it->partition == pid && it->repaired_event == 0) {
        it->repaired_event = clock_.events;
        break;
      }
    }
    if (config_.verify_after_repair) {
      VerifierReport vr = VerifyPartition(*store_, pid);
      ++result_.verifier_runs;
      ODBGC_CHECK_FMT(vr.ok(), "partition verifier after repair of %u: %s",
                      pid, vr.Summary().c_str());
    }
  }
}

void Simulation::SelfHealTick() {
  if (store_->partition_count() == 0) return;
  DrainCorruption();
  const uint32_t interval = config_.scrub_interval_events;
  const bool scrub_due =
      interval > 0 && clock_.events % interval == 0;
  if (scrub_due) {
    ScrubReport sr =
        scrubber_.ScrubQuantum(*store_, config_.scrub_pages_per_quantum);
    result_.pages_scrubbed += sr.pages_scrubbed;
    ODBGC_IF_TEL(tel_.get()) {
      if (sr.pages_scrubbed > 0) tel_stall_scrub_->Record(sr.pages_scrubbed);
    }
    DrainCorruption();
  }
  if (!config_.auto_repair) return;
  if (store_->quarantined_count() == 0) return;
  // With the scrubber on, repair rides its cadence so the quarantine
  // window is observable (selectors route around the partition in the
  // meantime); without it, repair synchronously.
  if (scrub_due || interval == 0) RepairQuarantined();
}

void Simulation::UpdateClock() {
  const IoStats& io = store_->io_stats();
  clock_.app_io = io.app_total();
  clock_.gc_io = io.gc_total();
  clock_.pointer_overwrites = store_->pointer_overwrites();
  // Quarantined partitions are out of service: their bytes do not feed
  // the policies' database-size view while repair owns them (exactly 0
  // unless something is quarantined right now).
  clock_.db_used_bytes =
      store_->used_bytes() - store_->quarantined_used_bytes();
  clock_.bytes_allocated = store_->allocated_bytes_total();
  clock_.partitions = store_->partition_count();
}

void Simulation::SampleGarbage() {
  if (store_->used_bytes() == 0) return;
  const double pct = GarbagePct();
  ODBGC_IF_TEL(tel_.get()) { tel_garbage_pct_->Set(pct); }
  whole_run_garbage_pct_.Add(pct);
  if (result_.window_opened) result_.garbage_pct.Add(pct);
  if (phase_open_) phase_accum_.garbage_pct.Add(pct);
}

void Simulation::OpenPhaseSegment(Phase phase) {
  phase_open_ = true;
  phase_accum_ = PhaseStats{};
  phase_accum_.phase = phase;
  phase_base_clock_ = clock_;
  phase_base_collections_ = result_.collections;
  phase_base_reclaimed_ = result_.total_reclaimed_bytes;
}

void Simulation::ClosePhaseSegment() {
  if (!phase_open_) return;
  phase_accum_.events = clock_.events - phase_base_clock_.events;
  phase_accum_.app_io = clock_.app_io - phase_base_clock_.app_io;
  phase_accum_.gc_io = clock_.gc_io - phase_base_clock_.gc_io;
  phase_accum_.pointer_overwrites =
      clock_.pointer_overwrites - phase_base_clock_.pointer_overwrites;
  phase_accum_.collections = result_.collections - phase_base_collections_;
  phase_accum_.bytes_reclaimed =
      result_.total_reclaimed_bytes - phase_base_reclaimed_;
  result_.phase_stats.push_back(phase_accum_);
  phase_open_ = false;
}

void Simulation::OpenWindowIfReady() {
  if (result_.window_opened) return;
  if (result_.collections < config_.preamble_collections) return;
  // A SAGA run aiming at a garbage level well above the cold-start state
  // spends its first collections ramping up; keep that ramp in the
  // preamble (up to the 30-collection bound the paper reports).
  if (config_.policy == PolicyKind::kSaga &&
      result_.collections < config_.preamble_max_collections) {
    const double target_pct = 100.0 * config_.saga.garbage_frac;
    if (GarbagePct() < 0.9 * target_pct) return;
  }
  result_.window_opened = true;
  window_app_io_base_ = clock_.app_io;
  window_gc_io_base_ = clock_.gc_io;
  window_reclaimed_base_ = result_.total_reclaimed_bytes;
}

bool Simulation::CollectOne(PartitionSelector& selector,
                            CollectionReport* report) {
  const PartitionId pid = selector.Select(*store_);
  if (pid == kInvalidPartition) return false;  // everything quarantined
  *report = collector_.Collect(*store_, pid);
  if (report->aborted_corrupt) {
    // The collection backed out before its commit point; its detection
    // stays pending for the caller, its scan's I/O in the store's counters.
    ++result_.collections_aborted_corrupt;
    UpdateClock();
    return false;
  }
  if (report->skipped_quarantine) return false;
  if (report->crashed) {
    ++result_.crashes;
    const RecoveryReport rec = collector_.Recover(*store_);
    ++result_.recoveries;
    result_.recovery_redo_updates += rec.redo_external_updates;
    if (config_.verify_after_recovery) RunVerifier("recovery");
    if (!rec.rolled_forward) {
      // Rolled back: no collection, but its wasted I/O stays counted.
      ++result_.recovery_rollbacks;
      UpdateClock();
      return false;
    }
    ++result_.recovery_rollforwards;
    *report = rec.completed;
  }
  if (config_.verify_after_collection) RunVerifier("collection");

  EstimatorCollectionInfo info;
  info.partition = report->partition;
  info.bytes_reclaimed = report->bytes_reclaimed;
  info.partition_overwrites = report->overwrites_at_collection;
  info.partition_count = store_->partition_count();
  info.ground_truth_garbage_bytes = store_->actual_garbage_bytes();
  if (estimator_ != nullptr) estimator_->OnCollection(info);
  for (GarbageEstimator* passive : passive_estimators_) {
    passive->OnCollection(info);
  }

  ODBGC_IF_TEL(tel_.get()) {
    tel_collection_io_->Record(report->gc_io());
    tel_collection_reclaimed_->Record(report->bytes_reclaimed);
    tel_collection_live_->Record(report->bytes_live);
  }
  UpdateClock();
  result_.total_reclaimed_bytes += report->bytes_reclaimed;
  result_.total_reclaimed_objects += report->objects_reclaimed;
  return true;
}

void Simulation::MaybeCollect() {
  if (store_->partition_count() == 0) return;
  if (!ActivePolicy()->ShouldCollect(clock_)) return;
  // On a corrupt abort this event's SelfHealTick quarantines the
  // partition after the clock update, so clock().db_used_bytes, read by
  // the fleet between events, still counts it until the next event.
  CollectionReport report;
  if (!CollectOne(*selector_, &report)) return;
  ++clock_.collections;
  ++result_.collections;

  ODBGC_IF_TEL(tel_.get()) {
    // The collection's copy traffic is an app-visible stall regardless of
    // what the policy decides next.
    tel_stall_gc_copy_->Record(report.gc_io());
    if (obs::DecisionLedger* ledger = tel_->ledger()) {
      StageDecisionContext(*ledger, report, /*idle=*/false);
    }
  }

  ActivePolicy()->OnCollection(
      CollectionOutcome{report.gc_io(), report.bytes_reclaimed}, clock_);

  if (estimator_ != nullptr && store_->used_bytes() > 0) {
    const double est_pct = 100.0 * estimator_->Estimate() /
                           static_cast<double>(store_->used_bytes());
    last_estimate_valid_ = true;
    last_estimate_error_pp_ = est_pct - GarbagePct();
    ODBGC_IF_TEL(tel_.get()) {
      // Histograms hold integers; store hundredths of a percentage point.
      tel_est_err_->Record(static_cast<uint64_t>(
          std::llround(std::abs(last_estimate_error_pp_) * 100.0)));
      tel_est_garbage_pct_->Set(est_pct);
    }
  }

  // Feed the governor's oscillation/divergence signals from the policy's
  // own collections only — governor-forced collections never count, or
  // the interventions would mask the instability they respond to.
  if (governor_ != nullptr) {
    const bool divergence_valid =
        estimator_ != nullptr && store_->used_bytes() > 0;
    const double divergence_frac =
        divergence_valid ? std::abs(last_estimate_error_pp_) / 100.0 : 0.0;
    governor_->ObserveCollection(clock_.pointer_overwrites, divergence_valid,
                                 divergence_frac);
  }

  if (config_.record_collection_log) {
    CollectionRecord rec;
    rec.index = result_.collections;
    rec.overwrite_time = clock_.pointer_overwrites;
    rec.app_io = clock_.app_io;
    rec.gc_io_delta = report.gc_io();
    rec.partition = report.partition;
    rec.bytes_reclaimed = report.bytes_reclaimed;
    rec.bytes_live = report.bytes_live;
    rec.db_used_bytes = store_->used_bytes();
    rec.actual_garbage_pct = GarbagePct();
    if (estimator_ != nullptr && rec.db_used_bytes > 0) {
      rec.estimated_garbage_pct = 100.0 * estimator_->Estimate() /
                                  static_cast<double>(rec.db_used_bytes);
    }
    const PolicyState state = policy_->State();
    rec.target_garbage_pct = 100.0 * state.garbage_target_frac;
    rec.next_dt = state.last_interval;
    rec.phase = current_phase_;
    result_.log.push_back(rec);
  }

  OpenWindowIfReady();
}

void Simulation::StageDecisionContext(obs::DecisionLedger& ledger,
                                      const CollectionReport& report,
                                      bool idle) {
  obs::PolicyDecisionRecord ctx;
  ctx.tick = tel_->now();
  ctx.event = clock_.events;
  ctx.collection = idle ? 0 : result_.collections;
  ctx.app_io = clock_.app_io;
  ctx.gc_io = clock_.gc_io;
  const uint64_t total_io = clock_.total_io();
  if (total_io > 0) {
    ctx.io_pct = 100.0 * static_cast<double>(clock_.gc_io) /
                 static_cast<double>(total_io);
  }
  ctx.db_used_bytes = store_->used_bytes();
  ctx.actual_garbage_bytes = store_->actual_garbage_bytes();
  ctx.garbage_pct = GarbagePct();
  // Estimator panel: the policy's own estimate plus the spread across
  // every attached estimator (policy + passives) — the disagreement
  // signal the paper's Section 4 accuracy discussion is about.
  bool have_any = false;
  double est_min = 0.0;
  double est_max = 0.0;
  auto fold = [&](double est) {
    if (est < 0.0) est = 0.0;
    if (!have_any) {
      est_min = est_max = est;
      have_any = true;
    } else {
      if (est < est_min) est_min = est;
      if (est > est_max) est_max = est;
    }
  };
  if (estimator_ != nullptr) {
    const double est = std::max(0.0, estimator_->Estimate());
    ctx.estimate_bytes = static_cast<uint64_t>(std::llround(est));
    fold(est);
  }
  for (GarbageEstimator* passive : passive_estimators_) {
    fold(passive->Estimate());
  }
  if (have_any) {
    ctx.estimator_spread_bytes =
        static_cast<uint64_t>(std::llround(est_max - est_min));
  }
  ctx.collection_gc_io = report.gc_io();
  ctx.bytes_reclaimed = report.bytes_reclaimed;
  ledger.SetContext(ctx);
}

void Simulation::TakeTimeSeriesSample(obs::TimeSeriesSampler& sampler) {
  PublishRunTotals();
  sampler.Sample(clock_.events, tel_->now(), result_.collections,
                 tel_->metrics());
  tel_->Instant("timeseries_sample",
                {{"event", clock_.events}, {"frame", sampler.total() - 1}});
}

void Simulation::Apply(const TraceEvent& event) {
  // One logical-timebase tick per applied trace event (physical page
  // transfers add their own ticks inside the buffer pool).
  ODBGC_IF_TEL(tel_.get()) { tel_->Advance(); }
  switch (event.kind) {
    case EventKind::kCreate:
      store_->CreateObject(event.a, event.b, event.c, event.d);
      break;
    case EventKind::kRead:
      store_->ReadObject(event.a);
      break;
    case EventKind::kWriteRef: {
      PartitionId overwritten = store_->WriteRef(event.a, event.b, event.c);
      if (overwritten != kInvalidPartition) {
        if (estimator_ != nullptr) {
          estimator_->OnPointerOverwrite(overwritten);
        }
        for (GarbageEstimator* passive : passive_estimators_) {
          passive->OnPointerOverwrite(overwritten);
        }
      }
      break;
    }
    case EventKind::kAddRoot:
      store_->AddRoot(event.a);
      break;
    case EventKind::kRemoveRoot:
      store_->RemoveRoot(event.a);
      break;
    case EventKind::kGarbageMark:
      store_->RecordGarbageCreated(event.a, event.b);
      break;
    case EventKind::kPhaseMark:
      UpdateClock();
      ClosePhaseSegment();
      current_phase_ = static_cast<Phase>(event.a);
      result_.phases.push_back(PhaseTransition{current_phase_,
                                               result_.collections,
                                               clock_.events,
                                               clock_.pointer_overwrites});
      OpenPhaseSegment(current_phase_);
      ODBGC_IF_TEL(tel_.get()) {
        if (tel_phase_span_open_) tel_->End("phase");
        tel_->Begin("phase",
                    {{"name", PhaseName(current_phase_).c_str()}});
        tel_phase_span_open_ = true;
      }
      break;
    case EventKind::kIdleMark: {
      ODBGC_TEL_SPAN(idle_span, tel_.get(), "idle_period",
                     {{"max_collections", event.a}});
      RunIdlePeriod(event.a);
      break;
    }
    case EventKind::kUpdate:
      store_->UpdateObject(event.a);
      break;
  }
  ++clock_.events;
  UpdateClock();
  // The paper samples the garbage percentage at every database event
  // (Section 4.1); annotation events are not database events.
  if (event.kind == EventKind::kCreate || event.kind == EventKind::kRead ||
      event.kind == EventKind::kWriteRef ||
      event.kind == EventKind::kUpdate) {
    SampleGarbage();
  }
  MaybeCollect();
  // Self-healing acts only on a pending detection, a quarantined
  // partition or a scrub cadence; a healthy run without a scrubber skips
  // the call.
  if (config_.scrub_interval_events != 0 ||
      store_->quarantined_count() != 0 ||
      store_->buffer_pool().pending_corruption_count() != 0) {
    SelfHealTick();
  }
  if (governor_ != nullptr) GovernorTick();
  ODBGC_IF_TEL(tel_.get()) {
    if (obs::TimeSeriesSampler* sampler = tel_->sampler();
        sampler != nullptr && sampler->Due(clock_.events)) {
      TakeTimeSeriesSample(*sampler);
    }
  }
  // Offer the reporter a sample every 1024 events; it throttles on wall
  // time itself, so this only bounds how often we assemble a sample.
  if (progress_ != nullptr && (clock_.events & 1023u) == 0) {
    progress_->MaybeReport(MakeProgressSample());
  }
  // Whole-process crash injection: the event (and any collection it
  // triggered) is fully applied, then the "process dies". Raised after
  // the event so a checkpoint-every boundary at this event is never
  // written — resume replays from the previous checkpoint.
  const uint64_t crash_at = config_.store.fault.crash_at_event;
  if (crash_at != 0 && clock_.events == crash_at) {
    throw SimCrashInjected(crash_at);
  }
}

obs::ProgressSample Simulation::MakeProgressSample() const {
  obs::ProgressSample s;
  s.events = clock_.events;
  s.total_events = progress_total_events_;
  s.collections = result_.collections;
  s.app_io = clock_.app_io;
  s.gc_io = clock_.gc_io;
  s.has_estimate = last_estimate_valid_;
  s.estimate_error_pp = last_estimate_error_pp_;
  s.pages_scrubbed = result_.pages_scrubbed;
  s.scrub_cursor_partition = scrubber_.cursor_partition();
  s.quarantined_partitions = store_->quarantined_count();
  s.pending_corruption = store_->buffer_pool().pending_corruption_count();
  return s;
}

SimResult Simulation::Finish() {
  // End-of-run self-heal drain: quarantine any detection still pending
  // and repair outstanding quarantines so the run ends with a fully
  // healthy store (repair here is unconditional on the scrub cadence —
  // there are no more events for it to ride on).
  DrainCorruption();
  if (config_.auto_repair && store_->quarantined_count() > 0) {
    RepairQuarantined();
  }
  UpdateClock();
  ClosePhaseSegment();
  result_.clock = clock_;
  if (!result_.window_opened) {
    // The run ended before the preamble's collection count was reached
    // (e.g. a policy with a very coarse rate): fall back to whole-run
    // measurements rather than reporting nothing.
    window_app_io_base_ = 0;
    window_gc_io_base_ = 0;
    window_reclaimed_base_ = 0;
    result_.garbage_pct = whole_run_garbage_pct_;
  }
  result_.measured_app_io = clock_.app_io - window_app_io_base_;
  result_.measured_gc_io = clock_.gc_io - window_gc_io_base_;
  uint64_t total = result_.measured_app_io + result_.measured_gc_io;
  if (total > 0) {
    result_.achieved_gc_io_pct =
        100.0 * static_cast<double>(result_.measured_gc_io) /
        static_cast<double>(total);
  }
  result_.window_reclaimed_bytes =
      result_.total_reclaimed_bytes - window_reclaimed_base_;
  result_.final_db_used_bytes = store_->used_bytes();
  result_.final_actual_garbage_bytes = store_->actual_garbage_bytes();
  result_.final_partition_count = store_->partition_count();
  result_.buffer_hits = store_->buffer_pool().hits();
  result_.buffer_misses = store_->buffer_pool().misses();
  if (const DiskModel* disk = store_->disk_model()) {
    result_.disk_app_ms = disk->app_ms();
    result_.disk_gc_ms = disk->gc_ms();
    result_.disk_sequential_transfers = disk->sequential_transfers();
    result_.disk_random_transfers = disk->random_transfers();
  }
  const PolicyState state = policy_->State();
  result_.dt_min_clamps = state.dt_min_clamps;
  result_.dt_max_clamps = state.dt_max_clamps;
  const IoStats& io = store_->io_stats();
  result_.io_retries = io.retries_total();
  result_.io_read_failures = io.read_failures;
  result_.io_write_failures = io.write_failures;
  result_.torn_writes = io.torn_writes;
  result_.torn_repairs = io.torn_repairs;
  result_.checksum_failures = io.checksum_failures;
  result_.bitflips_injected = io.bitflips;
  result_.decays_armed = io.decays_armed;
  result_.device_faults = io.device_faults;
  ODBGC_IF_TEL(tel_.get()) {
    if (tel_phase_span_open_) {
      tel_->End("phase");
      tel_phase_span_open_ = false;
    }
    PublishRunTotals();
    result_.telemetry = tel_->Snapshot();
    if (const obs::DecisionLedger* ledger = tel_->ledger()) {
      result_.decisions = ledger->Records();
      result_.decisions_dropped = ledger->dropped();
    }
    if (const obs::TimeSeriesSampler* sampler = tel_->sampler()) {
      result_.timeseries = sampler->Frames();
      result_.timeseries_dropped = sampler->dropped();
    }
  }
  if (progress_ != nullptr) progress_->Finish(MakeProgressSample());
  return result_;
}

void Simulation::RunIdlePeriod(uint32_t max_collections) {
  // Quiescence (Section 5 extension): the workload has paused; offer the
  // policy up to max_collections free collections. They are accounted
  // separately and do not feed the policy's active-workload scheduling.
  if (store_->partition_count() == 0) return;
  for (uint32_t i = 0; i < max_collections; ++i) {
    UpdateClock();
    if (!ActivePolicy()->ShouldCollectWhenIdle(clock_)) break;
    CollectionReport report;
    if (!CollectOne(*selector_, &report)) {
      if (report.partition == kInvalidPartition) break;  // all quarantined
      // Quarantine now: the loop re-selects within this event, so the
      // same damaged partition would otherwise be re-scanned until the
      // iteration bound.
      if (report.aborted_corrupt) DrainCorruption();
      continue;
    }
    ++result_.idle_collections;
    result_.idle_gc_io += report.gc_io();
    ODBGC_IF_TEL(tel_.get()) {
      if (obs::DecisionLedger* ledger = tel_->ledger()) {
        StageDecisionContext(*ledger, report, /*idle=*/true);
      }
    }
    ActivePolicy()->OnIdleCollection(
        CollectionOutcome{report.gc_io(), report.bytes_reclaimed}, clock_);
  }
}

void Simulation::GovernorTick() {
  const GovernorConfig& gov = config_.governor;
  if (clock_.events % gov.check_interval_events != 0) return;
  const double util = store_->utilization();
  const uint64_t util_x100 =
      static_cast<uint64_t>(std::llround(util * 10000.0));
  if (util_x100 > result_.peak_utilization_pct_x100) {
    result_.peak_utilization_pct_x100 = util_x100;
  }
  governor_->ObserveIo(clock_.app_io, clock_.gc_io);
  const PressureLevel before = governor_->level();
  const PressureLevel level = governor_->ObserveUtilization(util);
  if (level > before) {
    if (level == PressureLevel::kYellow) {
      ++result_.governor_yellow_entries;
    } else {
      ++result_.governor_red_entries;
    }
  }
  if (level == PressureLevel::kRed) {
    // Red: space is nearly gone. Collect the highest-garbage partitions
    // synchronously until the pressure breaks or the per-tick bound is
    // hit — regardless of I/O saturation, because exhausting capacity is
    // strictly worse than a stall.
    for (uint32_t i = 0; i < gov.emergency_max_collections; ++i) {
      if (store_->utilization() < gov.red_frac - gov.hysteresis_frac) break;
      if (!GovernorCollect(obs::DecisionReason::kEmergencyGc)) break;
      ++result_.governor_emergency_collections;
    }
    governor_->OnForcedCollection(clock_.pointer_overwrites);
    governor_->ObserveUtilization(store_->utilization());
  } else if (governor_->BoostDue(clock_.pointer_overwrites)) {
    // Yellow: one forced collection through the configured selector every
    // boost interval, on top of whatever the active policy schedules.
    // BoostDue holds off while the disk is GC-saturated — more GC I/O
    // would steal the bandwidth the backlog needs; backpressure (in the
    // multi-tenant engine) is the right lever there.
    if (GovernorCollect(obs::DecisionReason::kGovernorBoost)) {
      ++result_.governor_boost_collections;
    }
    governor_->OnForcedCollection(clock_.pointer_overwrites);
    governor_->ObserveUtilization(store_->utilization());
  }
  if (governor_->ShouldEnterSafeMode()) {
    EnterSafeMode();
  } else if (governor_->ShouldExitSafeMode()) {
    ExitSafeMode();
  }
}

bool Simulation::GovernorCollect(obs::DecisionReason reason) {
  if (store_->partition_count() == 0) return false;
  PartitionSelector& selector = reason == obs::DecisionReason::kEmergencyGc
                                    ? *emergency_selector_
                                    : *selector_;
  CollectionReport report;
  if (!CollectOne(selector, &report)) {
    // Quarantine now: the emergency loop re-selects within this tick, so
    // the same damaged partition would otherwise be re-scanned until the
    // iteration bound.
    if (report.aborted_corrupt) {
      DrainCorruption();
      UpdateClock();
    }
    return false;
  }
  // Governor-forced collections are outside the policy's schedule: like
  // idle collections they skip OnCollection (the policy's own threshold
  // stays armed) and are accounted in the governor_* counters, not
  // result_.collections.
  result_.governor_gc_io += report.gc_io();
  ODBGC_IF_TEL(tel_.get()) { tel_stall_gc_copy_->Record(report.gc_io()); }
  LedgerGovernorRecord(reason, report, 100.0 * store_->utilization());
  return true;
}

RatePolicy& Simulation::SafePolicy() {
  if (safe_policy_ == nullptr) {
    safe_policy_ = std::make_unique<FixedRatePolicy>(
        config_.governor.safe_mode_fixed_interval);
#if ODBGC_TELEMETRY
    if (tel_ != nullptr) safe_policy_->AttachTelemetry(tel_.get());
#endif
  }
  return *safe_policy_;
}

void Simulation::EnterSafeMode() {
  ++result_.safe_mode_entries;
  governor_->EnterSafeMode();
  // FixedRatePolicy's threshold semantics make the first safe-mode
  // collection fire at the next event — exactly the right reflex when
  // the configured policy has just been judged untrustworthy.
  SafePolicy();
  LedgerGovernorRecord(obs::DecisionReason::kSafeModeEnter,
                       CollectionReport{}, 100.0 * store_->utilization());
}

void Simulation::ExitSafeMode() {
  ++result_.safe_mode_exits;
  governor_->ExitSafeMode();
  LedgerGovernorRecord(obs::DecisionReason::kSafeModeExit,
                       CollectionReport{}, 100.0 * store_->utilization());
}

void Simulation::LedgerGovernorRecord(obs::DecisionReason reason,
                                      const CollectionReport& report,
                                      double target) {
  ODBGC_IF_TEL(tel_.get()) {
    obs::DecisionLedger* ledger = tel_->ledger();
    if (ledger == nullptr) return;
    StageDecisionContext(*ledger, report, /*idle=*/true);
    double interval = 0.0;
    if (reason == obs::DecisionReason::kGovernorBoost) {
      interval =
          static_cast<double>(config_.governor.boost_interval_overwrites);
    } else if (reason == obs::DecisionReason::kSafeModeEnter) {
      interval =
          static_cast<double>(config_.governor.safe_mode_fixed_interval);
    }
    ledger->Append("governor", reason, interval, 0, target);
  }
}

void Simulation::AddPassiveEstimator(GarbageEstimator* estimator) {
  ODBGC_CHECK(estimator != nullptr);
  passive_estimators_.push_back(estimator);
}

SimResult Simulation::Run(const Trace& trace) {
  return RunFrom(trace, std::string(), 0);
}

SimResult Simulation::RunFrom(const Trace& trace,
                              const std::string& checkpoint_path,
                              uint64_t checkpoint_every) {
  const std::vector<TraceEvent>& events = trace.events();
  ODBGC_CHECK_MSG(clock_.events <= events.size(),
                  "checkpoint lies beyond the end of this trace");
  progress_total_events_ = events.size();
  // A replay from the first event sizes the store once; a resumed one
  // restored its arrays from the checkpoint and grows them as it goes.
  if (clock_.events == 0) {
    store_->Reserve(trace.create_id_bound(), trace.created_slot_total());
  }
  const bool take_checkpoints =
      !checkpoint_path.empty() && checkpoint_every > 0;
  const bool deadline_armed = config_.deadline_ms > 0.0;
  const auto started = std::chrono::steady_clock::now();
  for (size_t i = clock_.events; i < events.size(); ++i) {
    Apply(events[i]);
    if (take_checkpoints && clock_.events % checkpoint_every == 0) {
      CheckpointError err = WriteCheckpoint(*this, checkpoint_path);
      if (err != CheckpointError::kNone) {
        throw SimCheckpointWriteError(std::string(CheckpointErrorName(err)) +
                                      " (" + checkpoint_path + ")");
      }
    }
    if (deadline_armed && (clock_.events & 4095u) == 0) {
      const double elapsed_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - started)
              .count();
      if (elapsed_ms > config_.deadline_ms) {
        throw SimDeadlineExceeded(elapsed_ms, config_.deadline_ms);
      }
    }
  }
  return Finish();
}

SimResult RunSimulation(const SimConfig& config, const Trace& trace) {
  Simulation sim(config);
  return sim.Run(trace);
}

SimResult RunSimulation(const SimConfig& config,
                        const std::shared_ptr<const Trace>& trace) {
  ODBGC_CHECK(trace != nullptr);
  return RunSimulation(config, *trace);
}

}  // namespace odbgc
