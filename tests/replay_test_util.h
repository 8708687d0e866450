#ifndef ODBGC_TESTS_REPLAY_TEST_UTIL_H_
#define ODBGC_TESTS_REPLAY_TEST_UTIL_H_

// Test helpers: apply trace events to a bare ObjectStore with no garbage
// collection, so ground-truth markers can be checked against the
// reachability scanner (or collections interleaved by hand).

#include "storage/object_store.h"
#include "trace/trace.h"

namespace odbgc {

inline void ApplyToStore(const TraceEvent& e, ObjectStore* store) {
  switch (e.kind) {
    case EventKind::kCreate:
      store->CreateObject(e.a, e.b, e.c, e.d);
      break;
    case EventKind::kRead:
      store->ReadObject(e.a);
      break;
    case EventKind::kUpdate:
      store->UpdateObject(e.a);
      break;
    case EventKind::kWriteRef:
      store->WriteRef(e.a, e.b, e.c);
      break;
    case EventKind::kAddRoot:
      store->AddRoot(e.a);
      break;
    case EventKind::kRemoveRoot:
      store->RemoveRoot(e.a);
      break;
    case EventKind::kGarbageMark:
      store->RecordGarbageCreated(e.a, e.b);
      break;
    case EventKind::kPhaseMark:
    case EventKind::kIdleMark:
      break;
  }
}

inline void ReplayIntoStore(const Trace& trace, ObjectStore* store) {
  for (const TraceEvent& e : trace.events()) ApplyToStore(e, store);
}

}  // namespace odbgc

#endif  // ODBGC_TESTS_REPLAY_TEST_UTIL_H_
