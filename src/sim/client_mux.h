#ifndef ODBGC_SIM_CLIENT_MUX_H_
#define ODBGC_SIM_CLIENT_MUX_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "trace/event_source.h"
#include "util/random.h"

namespace odbgc {

// Per-client scheduling knobs for the mux. All randomness comes from the
// client's own seeded RNG, drawn inside the mux's serial state machine,
// so the merged stream is a pure function of (clients, options, seeds).
struct MuxClientOptions {
  // Baseline events per turn (InterleaveClients' `chunk`).
  uint32_t base_chunk = 64;
  // Turn length becomes base_chunk + uniform[0, chunk_jitter]; 0 draws
  // no randomness (keeps the stream bit-identical to the jitter-free
  // schedule).
  uint32_t chunk_jitter = 0;
  // After a turn the client thinks for uniform[0, think_time] rounds —
  // it skips that many of its round-robin slots; 0 draws no randomness.
  uint32_t think_time = 0;
  // Seed of the client's private scheduling RNG.
  uint64_t seed = 1;
};

// Streaming multi-client composition: merges events from per-client
// EventSources into one deterministic stream, drawing lazily. It is the
// only merge engine: the sharded fleet pulls whole turns from it, and
// InterleaveClients (sim/multi_client.h) drains a jitter-free one into a
// materialized trace. 10,000 clients x millions of events cost
// O(clients) memory: per client the mux holds a source cursor, an id
// offset, an RNG and a few counters.
//
// Semantics: deterministic round-robin in client-registration order.
// Each turn draws a chunk of events (base_chunk plus seeded jitter)
// from one client, extended past the chunk while the client's most
// recent allocation is still unlinked (the safe-point rule: the store's
// newest-allocation pin protects exactly one in-flight object, so a
// client may not be preempted inside its create->link window;
// multi-event operations protect themselves with explicit workspace
// roots). Think time makes a client sit out whole rounds. Exhausted
// clients drop out. Id remapping is an arithmetic offset per client
// applied at draw time (RemapEventIds), assigning each client the
// disjoint range [offset + 1, offset + max_object_id].
//
// The merged stream depends only on registration order and the options;
// it is byte-identical however the consumer mixes and sizes its Pull()
// and Next() calls. Next() is Pull() of one event, so the turn and
// safe-point logic exists once. With zero jitter and zero think time it
// is plain chunked round-robin (tests/client_mux_test.cc checks it
// against an independent reference merge).
class ClientMux {
 public:
  ClientMux() = default;
  ClientMux(const ClientMux&) = delete;
  ClientMux& operator=(const ClientMux&) = delete;

  // Registers a client; draws come in registration order. Returns the
  // client's index. All registration must happen before the first
  // draw. Dies if the client's id range would run past the
  // 32-bit id space.
  size_t AddClient(std::unique_ptr<EventSource> source,
                   const MuxClientOptions& options);

  // Convenience: replay a (typically cache-shared) trace. Computes the
  // trace's max id once here; use the EventSource overload with a
  // precomputed TraceCursorSource to share that scan across clients.
  size_t AddClient(std::shared_ptr<const Trace> trace,
                   const MuxClientOptions& options);

  // Draws up to `max` (> 0) merged events into out[0, n) and returns n,
  // or 0 once every client is exhausted. The n events are one turn's, or
  // the part of it that fits: the call stops at the turn's safe point,
  // at `max`, or where the turn's client runs dry, and the next call
  // resumes the same turn. When `client` is non-null it receives the
  // index of the client that produced them — the sharded engine routes
  // on it (annotation events carry no object id to route by). Each
  // event costs one EventSource::Next call, and events_drawn() advances
  // before the next one, so a source sees the mux's position move one
  // event at a time.
  size_t Pull(TraceEvent* out, size_t max, uint32_t* client);

  // Draws the next merged event; false when every client is exhausted.
  bool Next(TraceEvent* out, uint32_t* client = nullptr) {
    return Pull(out, 1, client) == 1;
  }

  // Admission backpressure. When a gate is installed, StartTurn consults
  // it at each turn boundary (the same safe points that bound create->
  // link windows): a gate returning true defers the client's whole turn
  // by one round instead of admitting it. A per-client valve admits
  // unconditionally after `defer_limit` consecutive deferrals, so
  // admission can never starve the collections that need events applied
  // to make progress. The gate MUST be a deterministic function of
  // (client, state updated only between Pull() calls) — the merged
  // stream stays a pure function of registration order, options and the
  // gate's decisions, byte-identical across consumers and thread counts.
  // Passing a null gate uninstalls it. defer_limit == 0 disables the
  // valve — then the caller must guarantee the gate eventually admits,
  // or a universally-deferred fleet spins forever.
  using AdmissionGate = std::function<bool(uint32_t client)>;
  void SetAdmissionGate(AdmissionGate gate, uint32_t defer_limit);
  // True while a gate is installed: only then can the stream depend on
  // state outside the mux.
  bool has_admission_gate() const { return static_cast<bool>(gate_); }
  // Total turns deferred by the gate since construction.
  uint64_t admission_deferrals() const { return admission_deferrals_; }

  size_t clients() const { return clients_.size(); }
  size_t alive() const { return alive_; }
  uint64_t events_drawn() const { return events_drawn_; }
  // The id offset assigned to client `c` (its ids occupy
  // [offset + 1, offset + max_object_id]).
  uint32_t client_offset(size_t c) const { return clients_[c].offset; }
  // One past the largest id any registered client can emit.
  uint32_t id_limit() const { return next_offset_; }

  // Resident bytes of the mux itself plus every client's source state
  // (shared cached traces excluded; see EventSource::ApproxMemoryBytes).
  size_t ApproxMemoryBytes() const;

 private:
  struct Client {
    std::unique_ptr<EventSource> source;
    uint32_t offset = 0;
    Rng rng{1};
    MuxClientOptions options;
    uint64_t sleep_until_round = 0;
    uint32_t pending_unlinked = 0;  // remapped id of an unlinked create
    uint32_t defer_streak = 0;      // consecutive gate deferrals
    bool exhausted = false;
  };

  // Picks the next client with an eligible turn (round-robin from
  // cursor_, fast-forwarding rounds past universal think time). Returns
  // false when no client remains.
  bool StartTurn();
  void EndTurn();

  std::vector<Client> clients_;
  size_t alive_ = 0;
  uint64_t events_drawn_ = 0;
  uint32_t next_offset_ = 0;

  // Admission backpressure (null = admit everything).
  AdmissionGate gate_;
  uint32_t defer_limit_ = 0;
  uint64_t admission_deferrals_ = 0;

  // Turn state.
  bool turn_active_ = false;
  size_t current_ = 0;       // client owning the active turn
  uint32_t turn_budget_ = 0; // events left before the next safe point
  size_t cursor_ = 0;        // next client index to consider
  uint64_t round_ = 0;       // completed round-robin passes
};

}  // namespace odbgc

#endif  // ODBGC_SIM_CLIENT_MUX_H_
