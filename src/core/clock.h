#ifndef ODBGC_CORE_CLOCK_H_
#define ODBGC_CORE_CLOCK_H_

#include <cstdint>

#include "util/fields.h"

namespace odbgc {

// Snapshot of the observable counters a collection-rate policy may
// consult. Policies deliberately see only this view — not the store —
// so that the core library is independent of any particular ODBMS: a
// host system feeds counters in and triggers collections out. The run
// report opens with the first four rows; the rest are checkpointed only.
#define ODBGC_SIM_CLOCK_FIELDS(X)                                         \
  X(uint64_t, events, 0)              /* database events processed */     \
  X(uint64_t, pointer_overwrites, 0)  /* the paper's unit of "time" */    \
  X(uint64_t, app_io, 0)  /* application I/O operations so far */         \
  X(uint64_t, gc_io, 0)   /* collector I/O operations so far */           \
  X(uint64_t, collections, 0, .key = nullptr)      /* completed */        \
  X(uint64_t, db_used_bytes, 0, .key = nullptr)    /* current size */     \
  X(uint64_t, bytes_allocated, 0, .key = nullptr)  /* cumulative */       \
  X(uint64_t, partitions, 0, .key = nullptr)  /* partitions occupied */

struct SimClock {
  ODBGC_FIELD_TABLE(ODBGC_SIM_CLOCK_FIELDS)

  uint64_t total_io() const { return app_io + gc_io; }
};

// What a policy learns when a collection finishes.
struct CollectionOutcome {
  uint64_t gc_io_ops = 0;        // I/O operations this collection cost
  uint64_t bytes_reclaimed = 0;  // garbage bytes it recovered
};

}  // namespace odbgc

#endif  // ODBGC_CORE_CLOCK_H_
