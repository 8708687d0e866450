#ifndef ODBGC_CORE_SAIO_H_
#define ODBGC_CORE_SAIO_H_

#include <cstdint>
#include <deque>
#include <limits>

#include "core/rate_policy.h"
#include "util/fields.h"

namespace odbgc {

// SAIO — the Semi-Automatic I/O policy (Section 2.2).
//
// The user asks that garbage collection consume a fraction SAIO_Frac of
// all I/O operations. After each collection the policy schedules the next
// one Delta_AppIO application I/O operations away, chosen so that over the
// history window (the last c_hist inter-collection periods plus the
// predicted next one) the GC share of I/O equals SAIO_Frac:
//
//   (HistGCIO + CurrGCIO) /
//   (HistAppIO + Delta_AppIO + HistGCIO + CurrGCIO)  =  SAIO_Frac
//
// under the assumption Delta_GCIO ~= CurrGCIO (successive collections
// cost about the same I/O). With c_hist = 0 this reduces to
// Delta_AppIO = CurrGCIO * (1 - f) / f.
//
// SaioWindow keeps the window of (period application I/O, collection GC
// I/O) and solves the equation; SaioPolicy and CoupledIoPolicy
// (core/coupled.h) each hold one.
//
// One closed period of the window: the application I/O between two
// collections, and the I/O of the collection that closed it.
#define ODBGC_SAIO_PERIOD_FIELDS(X) \
  X(uint64_t, app_io, 0)            \
  X(uint64_t, gc_io, 0)

class SaioWindow {
 public:
  explicit SaioWindow(size_t history_size) : history_size_(history_size) {}

  // Closes the period of the collection that just finished at
  // application I/O `app_io`, costing `gc_io`, and solves for the next
  // interval at GC share `io_frac`. An over-budget window floors the
  // interval at one application I/O, the soonest a policy can act.
  struct Step {
    uint64_t period_app_io;  // application I/O since the last collection
    double delta_app_io;     // the solved interval, at least 1
    bool over_budget;        // the floor applied
  };
  Step Solve(uint64_t app_io, uint64_t gc_io, double io_frac);

  size_t history_size() const { return history_size_; }

  void SaveState(SnapshotWriter& w) const { Checkpoint(w, *this); }
  void RestoreState(SnapshotReader& r) { Checkpoint(r, *this); }

 private:
  struct PeriodRecord {
    ODBGC_FIELD_TABLE(ODBGC_SAIO_PERIOD_FIELDS)
  };

  template <class Io, class Self>
  static void Checkpoint(Io& io, Self& self) {
    Persist(io, self.history_, self.hist_app_io_sum_, self.hist_gc_io_sum_,
            self.app_io_at_last_collection_);
  }

  size_t history_size_;
  std::deque<PeriodRecord> history_;
  uint64_t hist_app_io_sum_ = 0;
  uint64_t hist_gc_io_sum_ = 0;
  uint64_t app_io_at_last_collection_ = 0;
};

class SaioPolicy : public RatePolicy {
 public:
  static constexpr size_t kInfiniteHistory =
      std::numeric_limits<size_t>::max();

  // io_frac in (0, 1): requested collector share of total I/O.
  // history_size is the paper's c_hist (number of past collections used).
  // bootstrap_app_io schedules the very first collection (the paper uses
  // an oracle-driven preamble; any sane bootstrap is excluded from
  // measurement by the preamble convention).
  SaioPolicy(double io_frac, size_t history_size = 0,
             uint64_t bootstrap_app_io = 2000);

  bool ShouldCollect(const SimClock& clock) override;
  void OnCollection(const CollectionOutcome& outcome,
                    const SimClock& clock) override;
  std::string name() const override;

  // Quiescence extension: idle I/O is free, so keep collecting while
  // collections still find a worthwhile amount of garbage. Idle
  // collections are excluded from the c_hist window — they must not
  // stretch the active-workload schedule.
  bool ShouldCollectWhenIdle(const SimClock& clock) override;
  void OnIdleCollection(const CollectionOutcome& outcome,
                        const SimClock& clock) override;

  // Enables/configures opportunism (disabled yields base-paper behavior).
  void set_opportunism(bool enabled, uint64_t min_idle_yield_bytes = 4096);

  // Budget coordination: clamps to (0, 1) open interval; the new
  // fraction feeds the next OnCollection solve.
  void SetIoBudget(double io_frac) override {
    if (io_frac > 0.0 && io_frac < 1.0) io_frac_ = io_frac;
  }

  uint64_t next_app_io_threshold() const { return next_app_io_threshold_; }
  uint64_t last_delta_app_io() const { return last_delta_app_io_; }

  void SaveState(SnapshotWriter& w) const override { Checkpoint(w, *this); }
  void RestoreState(SnapshotReader& r) override { Checkpoint(r, *this); }

 private:
  // Out of line so OnCollection's hot path pays only a predicted-not-
  // taken branch, not the trace-argument stack frame.
  void RecordDecision(uint64_t period_app_io, uint64_t curr_gc_io,
                      bool over_budget);

  template <class Io, class Self>
  static void Checkpoint(Io& io, Self& self) {
    Persist(io, self.window_, self.next_app_io_threshold_,
            self.last_delta_app_io_, self.idle_yield_known_,
            self.last_idle_yield_);
  }

  double io_frac_;
  SaioWindow window_;
  uint64_t next_app_io_threshold_;
  uint64_t last_delta_app_io_ = 0;

  bool opportunism_enabled_ = false;
  uint64_t min_idle_yield_bytes_ = 4096;
  bool idle_yield_known_ = false;
  uint64_t last_idle_yield_ = 0;
};

}  // namespace odbgc

#endif  // ODBGC_CORE_SAIO_H_
