#ifndef ODBGC_STORAGE_DISK_MODEL_H_
#define ODBGC_STORAGE_DISK_MODEL_H_

#include <cstdint>

#include "storage/types.h"
#include "util/fields.h"
#include "util/snapshot.h"

namespace odbgc {

// Physical parameters of the simulated disk. Defaults approximate a
// mid-1990s SCSI drive, the hardware class of the paper's era: ~8 ms
// average seek, ~4 ms half-rotation, ~10 MB/s media transfer.
#define ODBGC_DISK_PARAMS_FIELDS(X) \
  X(double, seek_ms, 8.0)           \
  X(double, rotational_ms, 4.0)     \
  X(double, transfer_mb_per_s, 10.0)

struct DiskParams {
  ODBGC_FIELD_TABLE(ODBGC_DISK_PARAMS_FIELDS)
};

// Service-time model for page transfers. The paper evaluates policies by
// I/O *operation counts*; this optional model (in the spirit of the
// CWZ93 simulation system the paper builds on) converts those operations
// into elapsed time, distinguishing sequential transfers (no seek — the
// collector's partition scans benefit) from random ones.
//
// Pages map to a linear block address (partition-major); a transfer is
// sequential if it addresses the block immediately after the previous
// transfer.
class DiskModel {
 public:
  DiskModel(const DiskParams& params, uint32_t page_bytes,
            uint32_t pages_per_partition);

  // Records one page transfer and accumulates its service time.
  void OnTransfer(PageId page, IoContext ctx);

  // Adds a non-transfer delay (retry backoff under fault injection) to
  // the given context's elapsed time.
  void AddDelay(IoContext ctx, double ms);

  double app_ms() const { return app_ms_; }
  double gc_ms() const { return gc_ms_; }
  double total_ms() const { return app_ms_ + gc_ms_; }
  uint64_t sequential_transfers() const { return sequential_; }
  uint64_t random_transfers() const { return random_; }

  // Checkpoint hooks: head position and accumulated times (params are
  // configuration).
  void SaveState(SnapshotWriter& w) const { Checkpoint(w, *this); }
  void RestoreState(SnapshotReader& r) { Checkpoint(r, *this); }

 private:
  template <class Io, class Self>
  static void Checkpoint(Io& io, Self& self) {
    Persist(io, self.last_lba_, self.has_last_, self.app_ms_, self.gc_ms_,
            self.sequential_, self.random_);
  }

  DiskParams params_;
  double transfer_ms_;
  uint32_t pages_per_partition_;
  uint64_t last_lba_ = ~0ull;
  bool has_last_ = false;

  double app_ms_ = 0.0;
  double gc_ms_ = 0.0;
  uint64_t sequential_ = 0;
  uint64_t random_ = 0;
};

}  // namespace odbgc

#endif  // ODBGC_STORAGE_DISK_MODEL_H_
