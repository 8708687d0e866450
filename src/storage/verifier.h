#ifndef ODBGC_STORAGE_VERIFIER_H_
#define ODBGC_STORAGE_VERIFIER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/object_store.h"

namespace odbgc {

// What the heap verifier checks (see VerifyHeap). The reachability
// agreement check compares the ground-truth garbage markers against a
// full scan; it is only meaningful for marker-driven stores (trace
// replays), so bare fixtures can switch it off.
struct VerifierOptions {
  bool check_reachability_agreement = true;
};

// Outcome of one verification pass.
struct VerifierReport {
  uint64_t objects_checked = 0;
  uint64_t slots_checked = 0;
  uint64_t partitions_checked = 0;
  uint64_t violation_count = 0;
  // The first few violations, rendered; violation_count is always exact.
  std::vector<std::string> violations;

  bool ok() const { return violation_count == 0; }
  // One-line human summary ("clean" or the first violations).
  std::string Summary() const;
};

// Exhaustive heap invariant check, runnable after any recovery and
// (optionally, via SimConfig) after every collection:
//
//  1. Partition layout — every partition's resident list names existing
//     objects of that partition, packed contiguously from offset 0 with
//     used() == sum of sizes. A violation here is the moral equivalent of
//     a leftover forwarding pointer: an object stranded at a stale
//     from-space position after an interrupted relocation.
//  2. Object/partition agreement — every existing object appears in
//     exactly its own partition's list, exactly once.
//  3. Pointer-slot validity — every non-null slot targets an existing
//     object.
//  4. Remembered-set completeness — the reverse index (in_refs) is
//     multiset-exact against the forward slots: no missing entry (a lost
//     external root for a future collection) and no stale entry.
//  4b. O(1)-maintenance index consistency — in_ref_slots / slot_backrefs
//     mirror in_refs / slots entry-for-entry (every non-null slot's
//     back-pointer addresses its own in_refs entry), each object's
//     xpart_in_refs matches a recount, and the allocation free-space
//     index agrees with every partition's actual free bytes.
//  5. Root validity — every root exists.
//  6. Reachability agreement (optional) — a full ground-truth scan finds
//     exactly the garbage the marker accounting claims.
VerifierReport VerifyHeap(const ObjectStore& store,
                          const VerifierOptions& options = {});

// Partition-scoped subset of VerifyHeap for incremental checking (scrub
// quanta, post-repair validation, odbgc_run --verify=partition): layout
// and packing of `pid` (check 1), record agreement and slot validity for
// its residents (2, 3), back-reference identity and xpart recounts for
// its residents (4b), and the free-space index entry for `pid`. The
// store-global checks (full remembered-set multiset, roots, reachability
// agreement) stay with VerifyHeap — they cannot be attributed to one
// partition.
VerifierReport VerifyPartition(const ObjectStore& store, PartitionId pid);

}  // namespace odbgc

#endif  // ODBGC_STORAGE_VERIFIER_H_
