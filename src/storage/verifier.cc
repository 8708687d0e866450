#include "storage/verifier.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <unordered_map>

#include "storage/reachability.h"

namespace odbgc {
namespace {

// Collects violations with a cap on the rendered strings.
class ViolationSink {
 public:
  explicit ViolationSink(VerifierReport* report) : report_(report) {}

  __attribute__((format(printf, 2, 3)))
  void Add(const char* fmt, ...) {
    ++report_->violation_count;
    if (report_->violations.size() >= kMaxRendered) return;
    char buf[256];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    report_->violations.emplace_back(buf);
  }

 private:
  // A handful of rendered violations is enough to start debugging from;
  // a badly desynced heap would otherwise render one string per object.
  static constexpr size_t kMaxRendered = 16;

  VerifierReport* report_;
};

}  // namespace

std::string VerifierReport::Summary() const {
  if (ok()) return "clean";
  std::string s = std::to_string(violation_count) + " violation(s):";
  for (const std::string& v : violations) {
    s += " [" + v + "]";
  }
  if (violation_count > violations.size()) s += " ...";
  return s;
}

VerifierReport VerifyHeap(const ObjectStore& store,
                          const VerifierOptions& options) {
  VerifierReport report;
  ViolationSink sink(&report);

  // 1 & 2. Partition layout + object/partition agreement. Membership
  // counts double as the "appears exactly once" check below.
  std::unordered_map<ObjectId, uint32_t> listed;
  for (const Partition& part : store.partitions()) {
    ++report.partitions_checked;
    if (part.used() > part.capacity()) {
      sink.Add("partition %u used %u > capacity %u", part.id(), part.used(),
               part.capacity());
    }
    uint64_t packed = 0;  // running offset of contiguous packing
    for (ObjectId id : part.objects()) {
      ++listed[id];
      if (!store.Exists(id)) {
        sink.Add("partition %u lists destroyed object %u", part.id(), id);
        continue;
      }
      const ObjectRecord& rec = store.object(id);
      if (rec.partition != part.id()) {
        sink.Add("object %u listed in partition %u but records %u", id,
                 part.id(), rec.partition);
        continue;
      }
      if (rec.offset != packed) {
        sink.Add("object %u at offset %u, expected %" PRIu64
                 " (stale from-space position)",
                 id, rec.offset, packed);
      }
      packed += rec.size;
    }
    if (packed != part.used()) {
      sink.Add("partition %u used %u != resident bytes %" PRIu64, part.id(),
               part.used(), packed);
    }
    // A quarantined partition is deliberately reported full by the
    // allocation index; skip the agreement check until repair releases it.
    if (!store.IsQuarantined(part.id()) &&
        store.indexed_free_bytes(part.id()) != part.free_bytes()) {
      sink.Add("partition %u free-space index %u != free bytes %u", part.id(),
               store.indexed_free_bytes(part.id()), part.free_bytes());
    }
  }

  // 2..4. Per-object checks and the forward half of the remembered-set
  // comparison: count (src -> target) reference edges from the slots.
  std::unordered_map<uint64_t, int64_t> edges;  // (src<<32|target) -> count
  auto edge_key = [](ObjectId src, ObjectId target) {
    return (static_cast<uint64_t>(src) << 32) | target;
  };
  for (ObjectId id = 1; id <= store.max_object_id(); ++id) {
    if (!store.Exists(id)) continue;
    ++report.objects_checked;
    const ObjectRecord& rec = store.object(id);
    if (rec.size == 0) sink.Add("object %u has zero size", id);
    if (rec.partition >= store.partition_count()) {
      sink.Add("object %u in invalid partition %u", id, rec.partition);
    } else {
      uint32_t times = 0;
      auto it = listed.find(id);
      if (it != listed.end()) times = it->second;
      if (times != 1) {
        sink.Add("object %u listed %u times by its partition", id, times);
      }
      if (rec.offset + static_cast<uint64_t>(rec.size) >
          store.partition(rec.partition).capacity()) {
        sink.Add("object %u overruns partition %u", id, rec.partition);
      }
    }
    for (const Slot& sl : store.slots(id)) {
      const ObjectId target = sl.target;
      ++report.slots_checked;
      if (target == kNullObject) continue;
      if (!store.Exists(target)) {
        sink.Add("object %u slot points at destroyed object %u", id, target);
        continue;
      }
      ++edges[edge_key(id, target)];
    }
  }
  // Reverse half: every in_refs entry must consume exactly one forward
  // edge; leftovers in either direction are remembered-set corruption.
  for (ObjectId id = 1; id <= store.max_object_id(); ++id) {
    if (!store.Exists(id)) continue;
    for (const InRef& ir : store.in_refs(id)) {
      if (!store.Exists(ir.src)) {
        sink.Add("object %u in_refs names destroyed object %u", id, ir.src);
        continue;
      }
      if (--edges[edge_key(ir.src, id)] < 0) {
        sink.Add("stale in_refs entry %u -> %u (no matching slot)", ir.src,
                 id);
      }
    }
  }
  for (const auto& [key, count] : edges) {
    if (count > 0) {
      sink.Add("missing in_refs entry %u -> %u (x%" PRId64 ")",
               static_cast<ObjectId>(key >> 32),
               static_cast<ObjectId>(key & 0xffffffffu), count);
    }
  }

  // 4b. O(1)-maintenance indices: slot back-pointers (each non-null
  // slot's backref must address its own entry in the target's in-ref
  // list) and the cross-partition in-ref counters the collector's root
  // discovery depends on. The historical parallel-array size checks are
  // structural now: the slot arenas share one range per object, and each
  // in-ref entry carries its own source slot. All indexing is guarded so
  // a desynced index is reported, not crashed on.
  for (ObjectId id = 1; id <= store.max_object_id(); ++id) {
    if (!store.Exists(id)) continue;
    const ObjectRecord& rec = store.object(id);
    const std::span<const Slot> slots = store.slots(id);
    for (size_t j = 0; j < slots.size(); ++j) {
      const ObjectId target = slots[j].target;
      if (target == kNullObject || !store.Exists(target)) continue;
      const InRefList& tin = store.in_refs(target);
      const uint32_t b = slots[j].backref;
      if (b >= tin.size() || tin[b].src != id ||
          tin[b].backref_pos != rec.slot_begin + j) {
        // Partition ids lead the message so quarantine decisions can be
        // targeted straight from the summary.
        sink.Add("partition %u object %u slot %zu backref %u does not index "
                 "its entry in target %u (partition %u)",
                 rec.partition, id, j, b, target,
                 store.object(target).partition);
      }
    }
    uint32_t xpart = 0;
    for (const InRef& ir : store.in_refs(id)) {
      if (!store.Exists(ir.src)) continue;
      if (store.object(ir.src).partition != rec.partition) ++xpart;
    }
    if (xpart != rec.xpart_in_refs) {
      sink.Add("partition %u object %u xpart_in_refs %u != recount %u",
               rec.partition, id, rec.xpart_in_refs, xpart);
    }
  }

  // 5. Roots.
  for (ObjectId root : store.roots()) {
    if (!store.Exists(root)) sink.Add("root %u does not exist", root);
  }

  // 5b. External pins: sorted, positive counts, live targets. A pin on a
  // destroyed object means a remote referencer outlived its target — the
  // exchange protocol failed to revoke.
  {
    const auto& pins = store.external_pins();
    for (size_t i = 0; i < pins.size(); ++i) {
      if (i > 0 && pins[i].first <= pins[i - 1].first) {
        sink.Add("external pins out of order at entry %zu", i);
      }
      if (pins[i].second == 0) {
        sink.Add("external pin on object %u has zero count", pins[i].first);
      }
      if (!store.Exists(pins[i].first)) {
        sink.Add("externally pinned object %u does not exist",
                 pins[i].first);
      }
    }
  }

  // 6. Ground-truth reachability agreement.
  if (options.check_reachability_agreement) {
    ReachabilityResult scan = ScanReachability(store);
    if (scan.unreachable_bytes != store.actual_garbage_bytes()) {
      sink.Add("scanner finds %" PRIu64
               " unreachable bytes, markers claim %" PRIu64,
               scan.unreachable_bytes, store.actual_garbage_bytes());
    }
  }

  return report;
}

VerifierReport VerifyPartition(const ObjectStore& store, PartitionId pid) {
  VerifierReport report;
  ViolationSink sink(&report);
  if (pid >= store.partition_count()) {
    sink.Add("partition %u does not exist (%zu partitions)", pid,
             store.partition_count());
    return report;
  }
  const Partition& part = store.partition(pid);
  ++report.partitions_checked;

  // Layout + packing (check 1), per-resident record agreement, slot
  // validity and 4b index consistency — the partition-attributable
  // subset of VerifyHeap.
  if (part.used() > part.capacity()) {
    sink.Add("partition %u used %u > capacity %u", pid, part.used(),
             part.capacity());
  }
  uint64_t packed = 0;
  for (ObjectId id : part.objects()) {
    if (!store.Exists(id)) {
      sink.Add("partition %u lists destroyed object %u", pid, id);
      continue;
    }
    ++report.objects_checked;
    const ObjectRecord& rec = store.object(id);
    if (rec.partition != pid) {
      sink.Add("object %u listed in partition %u but records %u", id, pid,
               rec.partition);
      continue;
    }
    if (rec.size == 0) sink.Add("object %u has zero size", id);
    if (rec.offset != packed) {
      sink.Add("object %u at offset %u, expected %" PRIu64
               " (stale from-space position)",
               id, rec.offset, packed);
    }
    packed += rec.size;
    if (rec.offset + static_cast<uint64_t>(rec.size) > part.capacity()) {
      sink.Add("object %u overruns partition %u", id, pid);
    }
    const std::span<const Slot> slots = store.slots(id);
    for (size_t j = 0; j < slots.size(); ++j) {
      const ObjectId target = slots[j].target;
      ++report.slots_checked;
      if (target == kNullObject) continue;
      if (!store.Exists(target)) {
        sink.Add("object %u slot points at destroyed object %u", id, target);
        continue;
      }
      const InRefList& tin = store.in_refs(target);
      const uint32_t b = slots[j].backref;
      if (b >= tin.size() || tin[b].src != id ||
          tin[b].backref_pos != rec.slot_begin + j) {
        sink.Add("partition %u object %u slot %zu backref %u does not index "
                 "its entry in target %u (partition %u)",
                 pid, id, j, b, target, store.object(target).partition);
      }
    }
    uint32_t xpart = 0;
    for (const InRef& ir : store.in_refs(id)) {
      if (!store.Exists(ir.src)) {
        sink.Add("object %u in_refs names destroyed object %u", id, ir.src);
        continue;
      }
      if (store.object(ir.src).partition != pid) ++xpart;
    }
    if (xpart != rec.xpart_in_refs) {
      sink.Add("partition %u object %u xpart_in_refs %u != recount %u", pid,
               id, rec.xpart_in_refs, xpart);
    }
  }
  if (packed != part.used()) {
    sink.Add("partition %u used %u != resident bytes %" PRIu64, pid,
             part.used(), packed);
  }
  // A quarantined partition is deliberately reported full by the index;
  // only a healthy partition's entry must agree with its free bytes.
  if (!store.IsQuarantined(pid) &&
      store.indexed_free_bytes(pid) != part.free_bytes()) {
    sink.Add("partition %u free-space index %u != free bytes %u", pid,
             store.indexed_free_bytes(pid), part.free_bytes());
  }
  return report;
}

}  // namespace odbgc
