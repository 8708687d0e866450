#include "sim/client_mux.h"

#include <limits>
#include <utility>

#include "sim/multi_client.h"
#include "util/check.h"

namespace odbgc {

size_t ClientMux::AddClient(std::unique_ptr<EventSource> source,
                            const MuxClientOptions& options) {
  ODBGC_CHECK(source != nullptr);
  ODBGC_CHECK(options.base_chunk > 0);
  ODBGC_CHECK_MSG(events_drawn_ == 0 && !turn_active_,
                  "AddClient after the first Next()");
  Client c;
  c.offset = next_offset_;
  // In 64 bits: max_id + 1 wraps to 0 in 32 when max_id is UINT32_MAX.
  const uint64_t next =
      uint64_t{next_offset_} + source->max_object_id() + 1;
  ODBGC_CHECK_MSG(next <= std::numeric_limits<uint32_t>::max(),
                  "client id ranges overflow the 32-bit id space");
  next_offset_ = static_cast<uint32_t>(next);
  c.source = std::move(source);
  c.rng = Rng(options.seed);
  c.options = options;
  clients_.push_back(std::move(c));
  ++alive_;
  return clients_.size() - 1;
}

size_t ClientMux::AddClient(std::shared_ptr<const Trace> trace,
                            const MuxClientOptions& options) {
  ODBGC_CHECK(trace != nullptr);
  const uint32_t max_id = MaxObjectId(*trace);
  return AddClient(
      std::make_unique<TraceCursorSource>(std::move(trace), max_id),
      options);
}

void ClientMux::SetAdmissionGate(AdmissionGate gate, uint32_t defer_limit) {
  gate_ = std::move(gate);
  defer_limit_ = defer_limit;
  if (!gate_) {
    for (Client& c : clients_) c.defer_streak = 0;
  }
}

bool ClientMux::StartTurn() {
  // Round-robin from cursor_; a pass that finds only sleeping clients
  // fast-forwards round_ to the earliest wake-up instead of spinning.
  while (alive_ > 0) {
    uint64_t earliest_wake = std::numeric_limits<uint64_t>::max();
    const size_t n = clients_.size();
    for (size_t scanned = 0; scanned < n; ++scanned) {
      if (cursor_ >= n) {
        cursor_ = 0;
        ++round_;
      }
      const size_t idx = cursor_++;
      Client& c = clients_[idx];
      if (c.exhausted) continue;
      if (c.sleep_until_round > round_) {
        if (c.sleep_until_round < earliest_wake) {
          earliest_wake = c.sleep_until_round;
        }
        continue;
      }
      // Admission gate: a deferred client sits this round out, exactly
      // like think time. The valve admits after defer_limit_ consecutive
      // deferrals so a persistently red gate throttles rather than
      // starves.
      if (gate_ && gate_(static_cast<uint32_t>(idx)) &&
          (defer_limit_ == 0 || c.defer_streak < defer_limit_)) {
        ++c.defer_streak;
        ++admission_deferrals_;
        c.sleep_until_round = round_ + 1;
        if (c.sleep_until_round < earliest_wake) {
          earliest_wake = c.sleep_until_round;
        }
        continue;
      }
      c.defer_streak = 0;
      // Found a turn: arm the budget (chunk plus seeded jitter).
      current_ = idx;
      turn_budget_ = c.options.base_chunk;
      if (c.options.chunk_jitter > 0) {
        turn_budget_ += static_cast<uint32_t>(
            c.rng.NextBelow(c.options.chunk_jitter + 1));
      }
      turn_active_ = true;
      return true;
    }
    // Every alive client is thinking: jump time forward.
    if (earliest_wake == std::numeric_limits<uint64_t>::max()) {
      return false;  // defensive; alive_ should have been 0
    }
    round_ = earliest_wake;
  }
  return false;
}

void ClientMux::EndTurn() {
  Client& c = clients_[current_];
  if (!c.exhausted && c.options.think_time > 0) {
    const uint64_t rest = c.rng.NextBelow(c.options.think_time + 1);
    if (rest > 0) c.sleep_until_round = round_ + 1 + (rest - 1);
  }
  turn_active_ = false;
  turn_budget_ = 0;
}

size_t ClientMux::Pull(TraceEvent* out, size_t max, uint32_t* client) {
  ODBGC_CHECK(max > 0);
  while (alive_ > 0) {
    if (!turn_active_ && !StartTurn()) return 0;
    const size_t idx = current_;
    Client& c = clients_[idx];
    size_t n = 0;
    while (n < max) {
      TraceEvent& e = out[n];
      if (!c.source->Next(&e)) {
        // Exhausted clients drop out of the rotation for good. A source
        // may not run dry mid create->link window (its own stream always
        // links what it creates), so no pending state needs unwinding.
        c.exhausted = true;
        --alive_;
        EndTurn();
        break;
      }
      RemapEventIds(&e, c.offset);
      if (e.kind == EventKind::kCreate) {
        c.pending_unlinked = e.a;
      } else if (c.pending_unlinked != 0 &&
                 ((e.kind == EventKind::kWriteRef &&
                   e.c == c.pending_unlinked) ||
                  (e.kind == EventKind::kAddRoot &&
                   e.a == c.pending_unlinked))) {
        c.pending_unlinked = 0;
      }
      // Counted before the next source draw, so a source sees the mux's
      // position advance one event at a time.
      ++events_drawn_;
      ++n;
      if (turn_budget_ > 0) --turn_budget_;
      if (turn_budget_ == 0 && c.pending_unlinked == 0) {
        EndTurn();
        break;
      }
    }
    if (n > 0) {
      if (client != nullptr) *client = static_cast<uint32_t>(idx);
      return n;
    }
    // The turn's client was already dry: on to the next turn.
  }
  return 0;
}

size_t ClientMux::ApproxMemoryBytes() const {
  size_t bytes = sizeof(*this) + clients_.capacity() * sizeof(Client);
  for (const Client& c : clients_) {
    if (c.source != nullptr) bytes += c.source->ApproxMemoryBytes();
  }
  return bytes;
}

}  // namespace odbgc
