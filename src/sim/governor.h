#ifndef ODBGC_SIM_GOVERNOR_H_
#define ODBGC_SIM_GOVERNOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/fields.h"
#include "util/snapshot.h"

namespace odbgc {

// Overload-protection knobs (SimConfig::governor). Default-disabled; an
// enabled governor with a store that never leaves the normal band is
// byte-identical to a disabled one (the governor only observes).
#define ODBGC_GOVERNOR_CONFIG_FIELDS(X)                                  \
  X(bool, enabled, false)                                                \
  /* Utilization watermarks: fraction of StoreConfig::max_db_bytes       \
     occupied by live + uncollected-garbage bytes. Uncapped stores       \
     (max_db_bytes == 0) report utilization 0, so only the safe-mode     \
     machinery is live for them. */                                      \
  X(double, yellow_frac, 0.70)                                           \
  X(double, red_frac, 0.85)                                              \
  /* De-escalation hysteresis: a level is left only after utilization    \
     drops this far below its entry watermark, so jitter around a        \
     watermark cannot flap the state machine. */                         \
  X(double, hysteresis_frac, 0.05)                                       \
  /* Events between governor evaluations (pressure is a slow signal; the \
     tick keeps the steady-state cost at one modulo per event). */       \
  X(uint32_t, check_interval_events, 64)                                 \
  /* Yellow actuator: rate boost — force a collection through the        \
     configured selector every `boost_interval_overwrites` pointer       \
     overwrites, on top of whatever the active policy schedules. Skipped \
     while the recent GC share of I/O exceeds `io_saturation_frac` (the  \
     disk is already collection-bound; more GC I/O would only deepen     \
     application stalls — red-level emergency collection ignores this,   \
     space being existential). */                                        \
  X(uint64_t, boost_interval_overwrites, 128)                            \
  X(double, io_saturation_frac, 0.50)                                    \
  /* Red actuator: per tick, synchronously collect up to this many of    \
     the highest-garbage partitions (oracle selection) until utilization \
     falls back below red_frac - hysteresis_frac. */                     \
  X(uint32_t, emergency_max_collections, 4)                              \
  /* Safe-mode triggers. Estimator/oracle divergence is measured per     \
     policy-driven collection as |estimate - actual| / used_bytes; a     \
     breach sustained for `safe_mode_divergence_count` consecutive       \
     collections enters safe mode. Independently, the flip fraction of   \
     the inter-collection interval series (the decision-ledger           \
     oscillation signal, recomputed here so it works with telemetry off) \
     over the last `safe_mode_window` collections entering at            \
     `safe_mode_flip_frac` means the controller is oscillating, not      \
     converging. */                                                      \
  X(double, safe_mode_divergence_frac, 0.25)                             \
  X(uint32_t, safe_mode_divergence_count, 3)                             \
  X(double, safe_mode_flip_frac, 0.75)                                   \
  X(uint32_t, safe_mode_window, 8)                                       \
  /* Hysteresis-gated re-entry: this many consecutive healthy            \
     collections (no divergence breach, no oscillating window) before    \
     control returns to the configured policy. */                        \
  X(uint32_t, safe_mode_exit_clean, 16)                                  \
  /* The conservative fixed-rate fallback: overwrites per collection     \
     while safe mode holds. */                                           \
  X(uint64_t, safe_mode_fixed_interval, 64)

struct GovernorConfig {
  ODBGC_FIELD_TABLE(ODBGC_GOVERNOR_CONFIG_FIELDS)
};

enum class PressureLevel : uint8_t { kNormal = 0, kYellow = 1, kRed = 2 };

template <>
struct EnumTraits<PressureLevel> {
  static constexpr PressureLevel kLast = PressureLevel::kRed;
};

// Deterministic overload state machine. The governor is pure state — it
// is fed utilization / I/O / per-collection signals from the
// simulation's serial sections and answers actuator queries; the
// simulation performs the actual interventions (forced collections,
// policy swap) so that all accounting stays in one place. Everything
// here is a function of the fed signals, so governor-driven runs stay
// byte-identical at any thread count and across checkpoint/resume (the
// full state round-trips through Save/RestoreState).
class PressureGovernor {
 public:
  explicit PressureGovernor(const GovernorConfig& config);

  // --- signal feeds ---

  // Per-tick utilization observation; applies the watermark/hysteresis
  // transition and returns the new level.
  PressureLevel ObserveUtilization(double utilization);
  // Per-tick I/O observation (cumulative counters); updates the
  // saturation flag from the share of GC I/O since the previous tick.
  void ObserveIo(uint64_t app_io, uint64_t gc_io);
  // Per-policy-collection feed: the overwrite clock (for the interval
  // oscillation window) and the estimator/oracle divergence as a
  // fraction of used bytes (divergence_valid is false for estimator-less
  // policies; such runs can only enter safe mode via the flip fraction).
  void ObserveCollection(uint64_t overwrite_clock, bool divergence_valid,
                         double divergence_frac);

  // --- actuator queries ---

  PressureLevel level() const { return level_; }
  bool safe_mode() const { return safe_mode_; }
  bool io_saturated() const { return io_saturated_; }

  // True when yellow(+) pressure holds, the boost interval has elapsed
  // since the last governor-forced collection, and the disk is not
  // already GC-saturated.
  bool BoostDue(uint64_t overwrite_clock) const;
  void OnForcedCollection(uint64_t overwrite_clock);

  // Safe-mode transition polls; the simulation performs the swap and
  // calls Enter/ExitSafeMode to commit it.
  bool ShouldEnterSafeMode() const;
  bool ShouldExitSafeMode() const;
  void EnterSafeMode();
  void ExitSafeMode();

  // Flip fraction of the current interval window (diagnostic; also the
  // safe-mode oscillation trigger). 0 until the window fills.
  double FlipFraction() const;

  void SaveState(SnapshotWriter& w) const { Checkpoint(w, *this); }
  void RestoreState(SnapshotReader& r) { Checkpoint(r, *this); }

 private:
  template <class Io, class Self>
  static void Checkpoint(Io& io, Self& self) {
    Persist(io, SectionTag{"GOV0"}, self.level_, self.safe_mode_,
            self.io_saturated_, self.last_total_io_, self.last_gc_io_,
            self.last_forced_overwrites_, self.forced_once_,
            self.divergence_breaches_, self.clean_streak_,
            self.have_last_collection_, self.last_collection_overwrites_,
            self.gaps_, SectionTag{"GOVE"});
  }

  GovernorConfig config_;

  PressureLevel level_ = PressureLevel::kNormal;
  bool safe_mode_ = false;
  bool io_saturated_ = false;
  uint64_t last_total_io_ = 0;
  uint64_t last_gc_io_ = 0;
  uint64_t last_forced_overwrites_ = 0;
  bool forced_once_ = false;

  // Safe-mode signal state.
  uint32_t divergence_breaches_ = 0;  // consecutive breaching collections
  uint32_t clean_streak_ = 0;         // consecutive healthy collections
  bool have_last_collection_ = false;
  uint64_t last_collection_overwrites_ = 0;
  std::vector<uint64_t> gaps_;  // bounded window of inter-collection gaps
};

}  // namespace odbgc

#endif  // ODBGC_SIM_GOVERNOR_H_
