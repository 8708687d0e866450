#ifndef ODBGC_STORAGE_SCRUBBER_H_
#define ODBGC_STORAGE_SCRUBBER_H_

#include <cstdint>

#include "storage/object_store.h"
#include "util/fields.h"
#include "util/snapshot.h"

namespace odbgc {

// Outcome of one scrub quantum.
struct ScrubReport {
  uint64_t pages_scrubbed = 0;   // media reads issued this quantum
  uint64_t corruption_found = 0; // detections surfaced by those reads
};

// Deterministic background media scrubber. Walks the used pages of every
// healthy partition in a fixed order (partition id, then page index),
// reading each page through the buffer pool's uncached read-through path
// so the stored image — not a cached RAM copy — is checked against its
// page checksum. Latent damage (silent bit-flips, materialized decay) is
// thereby found proactively, before a demand read or a collection scan
// consumes it; detections land in the pool's corruption-event queue for
// the host to quarantine.
//
// The walk is resumable: each quantum scrubs at most `budget` pages from
// a persistent cursor and wraps at the end of the database. Driven by
// Simulation at trace-event boundaries, so its reads interleave with the
// workload at deterministic points (byte-identical at any --threads).
// Quarantined partitions are skipped — repair, not the scrubber, owns
// them while they are out of service.
class Scrubber {
 public:
  Scrubber() = default;

  // Scrubs up to `budget` pages starting at the cursor. Empty partitions
  // and quarantined partitions are skipped without consuming budget.
  ScrubReport ScrubQuantum(ObjectStore& store, uint32_t budget);

  PartitionId cursor_partition() const { return part_; }
  uint32_t cursor_page() const { return page_; }

  // Checkpoint hooks (cursor only; the pool owns detection state).
  void SaveState(SnapshotWriter& w) const { Checkpoint(w, *this); }
  void RestoreState(SnapshotReader& r) { Checkpoint(r, *this); }

 private:
  template <class Io, class Self>
  static void Checkpoint(Io& io, Self& self) {
    Persist(io, self.part_, self.page_);
  }

  PartitionId part_ = 0;
  uint32_t page_ = 0;
};

}  // namespace odbgc

#endif  // ODBGC_STORAGE_SCRUBBER_H_
