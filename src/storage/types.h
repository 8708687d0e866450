#ifndef ODBGC_STORAGE_TYPES_H_
#define ODBGC_STORAGE_TYPES_H_

#include <cstddef>
#include <cstdint>

#include "util/fields.h"

namespace odbgc {

// Logical object identifier. Pointers between database objects are stored
// as ObjectIds in slot arrays; kNullObject (0) is the null pointer.
using ObjectId = uint32_t;
inline constexpr ObjectId kNullObject = 0;

using PartitionId = uint32_t;
inline constexpr PartitionId kInvalidPartition = 0xffffffffu;

// A page is identified by (partition, page index within partition).
// Ordered by partition, then page index.
#define ODBGC_PAGE_ID_FIELDS(X) \
  X(PartitionId, partition, 0)  \
  X(uint32_t, page_index, 0)

struct PageId {
  ODBGC_FIELD_TABLE(ODBGC_PAGE_ID_FIELDS)

  friend auto operator<=>(const PageId&, const PageId&) = default;
};

// Reserved page index for a partition's metadata page: holds the
// collector's durable commit record (gc/collector.h's atomic-flip
// protocol). Never part of the object data range, always accessed
// write-through / read-through, never cached.
inline constexpr uint32_t kMetaPageIndex = 0xffffffffu;

struct PageIdHash {
  size_t operator()(const PageId& p) const {
    return (static_cast<size_t>(p.partition) << 20) ^ p.page_index;
  }
};

// Who is performing an I/O operation. The paper's policies depend on
// splitting I/O between the application and the collector (SAIO controls
// the collector's share).
enum class IoContext : uint8_t { kApplication, kCollector };

// How a page was found to be damaged. The buffer pool surfaces
// detections as typed events that the simulation drains at event
// boundaries to make quarantine decisions.
enum class CorruptionKind : uint8_t {
  kChecksum = 0,     // read returned an image failing its page CRC
  kDeviceFault = 1,  // transfer lost to a permanently dead page/device
  kScrub = 2,        // checksum mismatch found by a scrub read
};

const char* CorruptionKindName(CorruptionKind kind);

template <>
struct EnumTraits<CorruptionKind> {
  static constexpr CorruptionKind kLast = CorruptionKind::kScrub;
  static const char* Name(CorruptionKind k) { return CorruptionKindName(k); }
};

// Cumulative I/O operation counters. One "I/O operation" is one page
// transfer between the buffer pool and the (simulated) disk. Under fault
// injection every retry is itself a transfer: retries bump the read/write
// counters of the context that issued the original transfer (so the
// policies' I/O clocks see the real cost) and are additionally broken out
// in the retry counters.
#define ODBGC_IO_STATS_FIELDS(X)                                          \
  X(uint64_t, app_reads, 0)                                               \
  X(uint64_t, app_writes, 0)                                              \
  X(uint64_t, gc_reads, 0)                                                \
  X(uint64_t, gc_writes, 0)                                               \
  /* Fault-injection accounting (zero when no injector is attached). */   \
  X(uint64_t, app_retries, 0)     /* retried transfer attempts, app */    \
  X(uint64_t, gc_retries, 0)      /* retried transfer attempts, GC */     \
  X(uint64_t, read_failures, 0)   /* permanent read errors */             \
  X(uint64_t, write_failures, 0)  /* permanent write errors */            \
  X(uint64_t, torn_writes, 0)     /* writes that left the page torn */    \
  X(uint64_t, torn_repairs, 0)    /* tears found on read and rewritten */ \
  /* Self-healing accounting (zero unless the matching FaultPlan knobs    \
     are set). Injection counters record what the fault plan did to the   \
     media; checksum_failures records what the read path caught. */       \
  X(uint64_t, checksum_failures, 0) /* reads that failed page CRC */      \
  X(uint64_t, bitflips, 0)      /* writes that corrupted a page */        \
  X(uint64_t, decays_armed, 0)  /* writes that landed on a weak sector */ \
  X(uint64_t, device_faults, 0) /* transfers lost to dead media */

struct IoStats {
  ODBGC_FIELD_TABLE(ODBGC_IO_STATS_FIELDS)

  uint64_t app_total() const { return app_reads + app_writes; }
  uint64_t gc_total() const { return gc_reads + gc_writes; }
  uint64_t total() const { return app_total() + gc_total(); }
  uint64_t retries_total() const { return app_retries + gc_retries; }
};

}  // namespace odbgc

#endif  // ODBGC_STORAGE_TYPES_H_
