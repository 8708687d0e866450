#ifndef ODBGC_SIM_MULTI_CLIENT_H_
#define ODBGC_SIM_MULTI_CLIENT_H_

#include <cstdint>
#include <vector>

#include "trace/trace.h"

namespace odbgc {

// Multi-client composition: several applications manipulating the same
// database. The paper's Section 1 motivates semi-automatic control
// precisely because a rate hand-tuned from one application's profile
// "may be in conflict with other applications manipulating the same
// database"; these helpers build that situation from per-client traces.
//
// The merge itself lives in one place, sim/client_mux.h, which draws
// events lazily and remaps ids per event at draw time. InterleaveClients
// below is the materialized form for a handful of recorded traces
// (ext_multi_client): it drains a jitter-free ClientMux into one trace.

// Adds `offset` (mod 2^32) to every object id field of one event in
// place, by event kind (null ids and annotation events are untouched).
// The single definition of "which fields hold ids" — used by the
// trace-copy remap below, by ClientMux's draw-time remap and by the
// sharded engine's shard-local remap. Inline: both draw paths run it
// on every event.
inline void RemapEventIds(TraceEvent* e, uint32_t offset) {
  auto shift = [offset](uint32_t id) {
    return id == 0 ? 0u : id + offset;
  };
  switch (e->kind) {
    case EventKind::kCreate:
      e->a = shift(e->a);
      e->d = shift(e->d);  // clustering hint
      break;
    case EventKind::kRead:
    case EventKind::kUpdate:
    case EventKind::kAddRoot:
    case EventKind::kRemoveRoot:
      e->a = shift(e->a);
      break;
    case EventKind::kWriteRef:
      e->a = shift(e->a);
      e->c = shift(e->c);  // target (0 stays null)
      break;
    case EventKind::kGarbageMark:
    case EventKind::kPhaseMark:
    case EventKind::kIdleMark:
      break;
  }
}

// Rewrites every object id in `trace` by adding `offset`, so traces
// generated independently (each numbering its objects from 1) can share
// one store without collisions. Clustering hints are remapped too;
// annotation events are untouched.
Trace RemapObjectIds(const Trace& trace, uint32_t offset);

// The largest object id referenced by the trace (0 if none), in one
// pass over every id-bearing field including clustering hints.
uint32_t MaxObjectId(const Trace& trace);

// Interleaves the clients' traces into one stream against a shared
// database, remapping ids so the clients are disjoint. Events are drawn
// client by client in chunks of `chunk` events, round-robin, preserving
// each client's internal order (a simple model of time-sliced clients;
// the paper's setup serializes access — the database is locked during
// collection — so no finer concurrency model is needed). A turn runs
// past `chunk` while the client's newest allocation is still unlinked
// (ClientMux's safe-point rule). Exhausted clients drop out; the result
// carries every event of every client. Dies if the clients' id ranges
// do not fit the 32-bit id space together.
Trace InterleaveClients(const std::vector<Trace>& clients, uint32_t chunk);

}  // namespace odbgc

#endif  // ODBGC_SIM_MULTI_CLIENT_H_
