#include "core/saio.h"

#include <cmath>

#include "util/check.h"

namespace odbgc {

SaioWindow::Step SaioWindow::Solve(uint64_t app_io, uint64_t gc_io,
                                   double io_frac) {
  const uint64_t period_app_io = app_io - app_io_at_last_collection_;
  app_io_at_last_collection_ = app_io;
  // The current collection belongs to the history term
  // GCIO|_{c-c_hist}^{c} as well as serving as the estimate of the *next*
  // collection's cost.
  if (history_size_ > 0) {
    history_.push_back(PeriodRecord{period_app_io, gc_io});
    hist_app_io_sum_ += period_app_io;
    hist_gc_io_sum_ += gc_io;
    while (history_.size() > history_size_) {
      hist_app_io_sum_ -= history_.front().app_io;
      hist_gc_io_sum_ -= history_.front().gc_io;
      history_.pop_front();
    }
  }
  const double gc_term =
      static_cast<double>(hist_gc_io_sum_) + static_cast<double>(gc_io);
  double delta_app_io = gc_term * (1.0 - io_frac) / io_frac -
                        static_cast<double>(hist_app_io_sum_);
  const bool over_budget = delta_app_io < 1.0;
  if (over_budget) delta_app_io = 1.0;
  return Step{period_app_io, delta_app_io, over_budget};
}

SaioPolicy::SaioPolicy(double io_frac, size_t history_size,
                       uint64_t bootstrap_app_io)
    : io_frac_(io_frac),
      window_(history_size),
      next_app_io_threshold_(bootstrap_app_io) {
  ODBGC_CHECK_MSG(io_frac > 0.0 && io_frac < 1.0,
                  "SAIO_Frac must be in (0, 1)");
  ODBGC_CHECK(bootstrap_app_io > 0);
}

bool SaioPolicy::ShouldCollect(const SimClock& clock) {
  return clock.app_io >= next_app_io_threshold_;
}

void SaioPolicy::OnCollection(const CollectionOutcome& outcome,
                              const SimClock& clock) {
  const SaioWindow::Step step =
      window_.Solve(clock.app_io, outcome.gc_io_ops, io_frac_);
  last_delta_app_io_ = static_cast<uint64_t>(std::llround(step.delta_app_io));
  next_app_io_threshold_ = clock.app_io + last_delta_app_io_;
  // A scheduled collection under load means garbage is flowing again;
  // re-arm the idle probe.
  idle_yield_known_ = false;

  ODBGC_IF_TEL(tel_) {
    RecordDecision(step.period_app_io, outcome.gc_io_ops, step.over_budget);
  }
}

void SaioPolicy::RecordDecision(uint64_t period_app_io, uint64_t curr_gc_io,
                                bool over_budget) {
  tel_->Instant("policy_decision",
                {{"policy", "saio"},
                 {"delta_app_io", last_delta_app_io_},
                 {"period_app_io", period_app_io},
                 {"gc_io", curr_gc_io},
                 {"next_threshold", next_app_io_threshold_}});
  tel_->metrics().GetGauge("policy.saio.delta_app_io")->Set(
      static_cast<double>(last_delta_app_io_));
  if (obs::DecisionLedger* ledger = tel_->ledger()) {
    ledger->Append("saio",
                   over_budget ? obs::DecisionReason::kOverBudgetFloor
                               : obs::DecisionReason::kBudgetSolve,
                   static_cast<double>(last_delta_app_io_),
                   next_app_io_threshold_, 100.0 * io_frac_);
  }
}

void SaioPolicy::set_opportunism(bool enabled,
                                 uint64_t min_idle_yield_bytes) {
  opportunism_enabled_ = enabled;
  min_idle_yield_bytes_ = min_idle_yield_bytes;
}

bool SaioPolicy::ShouldCollectWhenIdle(const SimClock& /*clock*/) {
  if (!opportunism_enabled_) return false;
  // Collect until a collection stops finding a worthwhile yield; the
  // next *scheduled* collection resets the probe (garbage accumulates
  // again under load).
  return !idle_yield_known_ || last_idle_yield_ >= min_idle_yield_bytes_;
}

void SaioPolicy::OnIdleCollection(const CollectionOutcome& outcome,
                                  const SimClock& /*clock*/) {
  idle_yield_known_ = true;
  last_idle_yield_ = outcome.bytes_reclaimed;
}

std::string SaioPolicy::name() const {
  const size_t n = window_.history_size();
  std::string hist = n == kInfiniteHistory ? "inf" : std::to_string(n);
  return "SAIO(frac=" + std::to_string(io_frac_) + ",hist=" + hist + ")";
}

}  // namespace odbgc
