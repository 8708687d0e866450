#include "sim/governor.h"

#include "util/check.h"

namespace odbgc {

PressureGovernor::PressureGovernor(const GovernorConfig& config)
    : config_(config) {
  ODBGC_CHECK_MSG(config_.yellow_frac > 0.0 &&
                      config_.yellow_frac <= config_.red_frac,
                  "governor watermarks must satisfy 0 < yellow <= red");
  ODBGC_CHECK_MSG(config_.hysteresis_frac >= 0.0,
                  "governor hysteresis must be non-negative");
  ODBGC_CHECK_MSG(config_.check_interval_events > 0,
                  "governor check interval must be positive");
  ODBGC_CHECK_MSG(config_.safe_mode_window >= 3,
                  "flip fraction needs a window of at least 3 intervals");
  ODBGC_CHECK_MSG(config_.safe_mode_fixed_interval > 0,
                  "safe-mode fixed interval must be positive");
}

PressureLevel PressureGovernor::ObserveUtilization(double utilization) {
  // Escalation is immediate (the store is filling now); de-escalation
  // steps down one level at a time and only once utilization has fallen
  // `hysteresis_frac` below the level's entry watermark, so oscillation
  // around a watermark holds the level rather than flapping it.
  switch (level_) {
    case PressureLevel::kNormal:
      if (utilization >= config_.red_frac) {
        level_ = PressureLevel::kRed;
      } else if (utilization >= config_.yellow_frac) {
        level_ = PressureLevel::kYellow;
      }
      break;
    case PressureLevel::kYellow:
      if (utilization >= config_.red_frac) {
        level_ = PressureLevel::kRed;
      } else if (utilization <
                 config_.yellow_frac - config_.hysteresis_frac) {
        level_ = PressureLevel::kNormal;
      }
      break;
    case PressureLevel::kRed:
      if (utilization < config_.red_frac - config_.hysteresis_frac) {
        level_ = PressureLevel::kYellow;
      }
      break;
  }
  return level_;
}

void PressureGovernor::ObserveIo(uint64_t app_io, uint64_t gc_io) {
  const uint64_t total = app_io + gc_io;
  const uint64_t d_total = total - last_total_io_;
  if (d_total > 0) {
    const uint64_t d_gc = gc_io - last_gc_io_;
    io_saturated_ = static_cast<double>(d_gc) /
                        static_cast<double>(d_total) >
                    config_.io_saturation_frac;
  }
  last_total_io_ = total;
  last_gc_io_ = gc_io;
}

void PressureGovernor::ObserveCollection(uint64_t overwrite_clock,
                                         bool divergence_valid,
                                         double divergence_frac) {
  if (have_last_collection_) {
    const uint64_t gap = overwrite_clock - last_collection_overwrites_;
    gaps_.push_back(gap);
    if (gaps_.size() > config_.safe_mode_window) {
      gaps_.erase(gaps_.begin());
    }
  }
  have_last_collection_ = true;
  last_collection_overwrites_ = overwrite_clock;

  const bool divergence_breach =
      divergence_valid && divergence_frac > config_.safe_mode_divergence_frac;
  divergence_breaches_ = divergence_breach ? divergence_breaches_ + 1 : 0;

  const bool oscillating =
      gaps_.size() >= config_.safe_mode_window &&
      FlipFraction() >= config_.safe_mode_flip_frac;
  if (divergence_breach || oscillating) {
    clean_streak_ = 0;
  } else {
    ++clean_streak_;
  }
}

double PressureGovernor::FlipFraction() const {
  if (gaps_.size() < 3) return 0.0;
  // Sign changes between consecutive deltas of the interval series: a
  // controller that alternately over- and under-shoots flips on nearly
  // every step; a converging one settles to a run of same-sign (or
  // zero) deltas.
  size_t flips = 0;
  int prev_sign = 0;
  for (size_t i = 1; i < gaps_.size(); ++i) {
    const int sign = gaps_[i] > gaps_[i - 1]   ? 1
                     : gaps_[i] < gaps_[i - 1] ? -1
                                               : 0;
    if (sign != 0 && prev_sign != 0 && sign != prev_sign) ++flips;
    if (sign != 0) prev_sign = sign;
  }
  return static_cast<double>(flips) /
         static_cast<double>(gaps_.size() - 2);
}

bool PressureGovernor::BoostDue(uint64_t overwrite_clock) const {
  if (level_ < PressureLevel::kYellow) return false;
  if (io_saturated_) return false;
  if (!forced_once_) return true;
  return overwrite_clock - last_forced_overwrites_ >=
         config_.boost_interval_overwrites;
}

void PressureGovernor::OnForcedCollection(uint64_t overwrite_clock) {
  forced_once_ = true;
  last_forced_overwrites_ = overwrite_clock;
}

bool PressureGovernor::ShouldEnterSafeMode() const {
  if (safe_mode_) return false;
  if (divergence_breaches_ >= config_.safe_mode_divergence_count) return true;
  return gaps_.size() >= config_.safe_mode_window &&
         FlipFraction() >= config_.safe_mode_flip_frac;
}

bool PressureGovernor::ShouldExitSafeMode() const {
  return safe_mode_ && clean_streak_ >= config_.safe_mode_exit_clean;
}

void PressureGovernor::EnterSafeMode() {
  ODBGC_CHECK(!safe_mode_);
  safe_mode_ = true;
  divergence_breaches_ = 0;
  clean_streak_ = 0;
  // The oscillation window belongs to the policy that oscillated; the
  // fallback starts with a fresh one so stale flips cannot block exit.
  gaps_.clear();
  have_last_collection_ = false;
}

void PressureGovernor::ExitSafeMode() {
  ODBGC_CHECK(safe_mode_);
  safe_mode_ = false;
  divergence_breaches_ = 0;
  clean_streak_ = 0;
  gaps_.clear();
  have_last_collection_ = false;
}

}  // namespace odbgc
