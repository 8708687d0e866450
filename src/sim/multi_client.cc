#include "sim/multi_client.h"

#include <algorithm>
#include <memory>

#include "sim/client_mux.h"
#include "util/check.h"

namespace odbgc {

uint32_t MaxObjectId(const Trace& trace) {
  uint32_t max_id = 0;
  for (const TraceEvent& e : trace.events()) {
    switch (e.kind) {
      case EventKind::kCreate:
        max_id = std::max({max_id, e.a, e.d});
        break;
      case EventKind::kRead:
      case EventKind::kUpdate:
      case EventKind::kAddRoot:
      case EventKind::kRemoveRoot:
        max_id = std::max(max_id, e.a);
        break;
      case EventKind::kWriteRef:
        max_id = std::max({max_id, e.a, e.c});
        break;
      default:
        break;
    }
  }
  return max_id;
}

Trace RemapObjectIds(const Trace& trace, uint32_t offset) {
  Trace out;
  out.Reserve(trace.size());
  for (TraceEvent e : trace.events()) {
    RemapEventIds(&e, offset);
    out.Append(e);
  }
  return out;
}

Trace InterleaveClients(const std::vector<Trace>& clients, uint32_t chunk) {
  ODBGC_CHECK(chunk > 0);
  MuxClientOptions options;
  options.base_chunk = chunk;
  ClientMux mux;
  size_t total = 0;
  for (const Trace& client : clients) {
    // Non-owning alias: the mux only reads the caller's trace, which
    // outlives it.
    mux.AddClient(std::shared_ptr<const Trace>(std::shared_ptr<void>(),
                                               &client),
                  options);
    total += client.size();
  }
  Trace out;
  out.Reserve(total);
  TraceEvent e;
  while (mux.Next(&e)) out.Append(e);
  return out;
}

}  // namespace odbgc
