#ifndef ODBGC_OO7_GENERATOR_H_
#define ODBGC_OO7_GENERATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "oo7/params.h"
#include "storage/types.h"
#include "trace/trace.h"
#include "util/random.h"

namespace odbgc {

// Generates application traces against a shadow OO7 database. The
// generator maintains its own logical copy of the object graph (it never
// touches the simulated store) and emits the event stream a real OO7
// application would produce: creations, list walks (reads), pointer
// overwrites, and ground-truth garbage markers at the instant a cluster
// becomes unreachable.
//
// The four phases reproduce Figure 2 (with the paper's modifications to
// the Yong/Naughton/Yu application described in Section 3.4):
//   GenDB    - build the database of Table 1 / Figure 3.
//   Reorg1   - delete half the atomic parts of each composite and
//              reinsert them clustered (composite by composite).
//   Traverse - read-only depth-first traversal over all atomic parts.
//   Reorg2   - delete half the atomic parts again, then reinsert them
//              interleaved across composites so that the physical
//              clustering of a composite's parts is destroyed.
class Oo7Generator {
 public:
  Oo7Generator(const Oo7Params& params, uint64_t seed);

  // Emits all four phases (GenDB, Reorg1, Traverse, Reorg2) into a fresh
  // trace, with phase-mark annotations. A non-zero `idle_after_reorg1`
  // adds an idle mark allowing that many collections between Reorg1 and
  // Traverse. The trace is allocated once, at FullApplicationReserve.
  Trace GenerateFullApplication(uint32_t idle_after_reorg1 = 0);

  // What GenerateFullApplication reserves: trace events and object ids,
  // GenDB's and Traverse's exactly, the reorganizations' at their
  // expected count plus three standard deviations.
  struct Reservation {
    size_t events = 0;
    size_t ids = 0;
  };
  static Reservation FullApplicationReserve(const Oo7Params& params);

  // Individual phases, for custom workload composition. GenDb must run
  // first; the others may be repeated or reordered.
  void GenDb(Trace* trace);
  void Reorg1(Trace* trace);
  void Traverse(Trace* trace);
  void Reorg2(Trace* trace);

  // Further OO7 operations [CDN93], usable after GenDb:
  //
  // T2: the T1 traversal with attribute updates on the atomic parts —
  // `updates_per_part` kUpdate events per visited part (OO7's T2a/b/c
  // are 1-per-composite, 1-per-part, 4-per-part). Updates dirty pages
  // but never advance the overwrite clock.
  void TraverseT2(Trace* trace, int updates_per_part);
  // T6: a sparse traversal touching each composite and its first atomic
  // part only.
  void TraverseT6(Trace* trace);
  // Structural insert: build `count` new composite parts (documents,
  // atomic parts, connections) and link each into a base assembly with a
  // free reference slot. Returns how many were actually inserted (base
  // assemblies have bounded slot capacity).
  int StructuralInsert(Trace* trace, int count);
  // Structural delete: unlink `count` randomly chosen composite parts
  // from every referencing assembly. The final unlink detaches the whole
  // composite cluster — part hierarchy, connections, and the 2000-byte
  // document — in one pointer overwrite: the paper's Section 2.1 remark
  // about single overwrites disconnecting "very large objects, such as
  // OO7 document nodes". Returns how many were deleted.
  int StructuralDelete(Trace* trace, int count);

  size_t live_composite_count() const;

  const Oo7Params& params() const { return params_; }
  ObjectId next_object_id() const { return next_id_; }
  size_t live_atomic_count() const {
    return atomics_.size() - free_atomics_.size();
  }
  size_t live_connection_count() const {
    return conns_.size() - free_conns_.size();
  }

 private:
  // The shadow graph is indexed by object id. Ids are dense (NewId), so
  // slot_[id] locates the id's record: its index in atomics_ (an atomic
  // part), conns_ (a connection) or composites_ (a composite). Each
  // record stores its id, so a lookup checks that the slot still holds
  // that object; a dead object's slot goes on a free list and is reused,
  // vectors and all, by the next object of its kind.
  struct AtomicInfo {
    ObjectId id = kNullObject;     // kNullObject while the slot is free
    uint32_t composite = 0;        // index into composites_
    uint32_t visited = 0;          // traversal epoch that last reached it
    std::vector<ObjectId> conns;   // outgoing connections, list order
    std::vector<ObjectId> in_conns;
  };

  struct ConnInfo {
    ObjectId id = kNullObject;  // kNullObject while the slot is free
    ObjectId owner = kNullObject;
    ObjectId target = kNullObject;
  };

  struct CompositeInfo {
    ObjectId id = kNullObject;
    std::vector<ObjectId> parts;  // atomic list order, front = head
    // Whether an assembly references the composite yet. Until then the
    // application's workspace pins it (AddRoot/RemoveRoot in the trace).
    bool linked = false;
    bool alive = true;
    // (assembly index, slot) pairs referencing this composite.
    std::vector<std::pair<size_t, uint32_t>> refs;
    // Document node ids (head first), for size accounting on delete.
    std::vector<ObjectId> doc_nodes;
  };

  struct AssemblyInfo {
    ObjectId id = kNullObject;
    // Interior: child assemblies. Base: slot contents (kNullObject for
    // a free reference slot).
    std::vector<ObjectId> children;
    bool base = false;
  };

  static constexpr uint32_t kNoSlot = UINT32_MAX;

  ObjectId NewId() {
    slot_.push_back(kNoSlot);
    return next_id_++;
  }

  // Checked lookups: each dies, in every build, on an id that is not a
  // live object of its kind; that is a logic error.
  uint32_t AtomicSlot(ObjectId id) const;
  AtomicInfo& Atomic(ObjectId id) { return atomics_[AtomicSlot(id)]; }
  const AtomicInfo& Atomic(ObjectId id) const {
    return atomics_[AtomicSlot(id)];
  }
  uint32_t ConnSlot(ObjectId id) const;
  const ConnInfo& Conn(ObjectId id) const { return conns_[ConnSlot(id)]; }
  size_t CompositeIndex(ObjectId id) const;
  // Records for new objects, reusing a dead object's slot when one is free.
  void AddAtomic(ObjectId id, size_t comp_index);
  void AddConn(ObjectId id, ObjectId owner, ObjectId target);
  void FreeAtomic(ObjectId id);
  void FreeConn(ObjectId id);

  void BuildComposite(Trace* t, size_t comp_index);
  ObjectId BuildAssembly(Trace* t, uint32_t level,
                         const std::vector<size_t>& comp_pool);
  void CreateConnection(Trace* t, ObjectId source, ObjectId target,
                        ObjectId near_hint = kNullObject);
  void UnlinkConnectionFromOwner(Trace* t, ObjectId conn);
  void DeleteAtomic(Trace* t, ObjectId atomic);
  ObjectId ReinsertAtomic(Trace* t, size_t comp_index, bool clustered);
  std::vector<ObjectId> ChooseDeletions(size_t comp_index);
  ObjectId PickTarget(size_t comp_index, ObjectId exclude);
  ObjectId PickTarget2(size_t comp_index, ObjectId exclude_a,
                       ObjectId exclude_b);
  void TraverseComposite(Trace* t, size_t comp_index, int updates_per_part);
  // Records that base assembly `assm_index` slot `slot` references the
  // composite, emitting the write and handling the construction unpin.
  void LinkCompositeToAssembly(Trace* t, size_t assm_index, uint32_t slot,
                               size_t comp_index);
  uint64_t CompositeClusterBytes(const CompositeInfo& comp) const;
  uint32_t CompositeClusterObjects(const CompositeInfo& comp) const;

  Oo7Params params_;
  Rng rng_;
  ObjectId next_id_ = 1;
  bool generated_ = false;
  // Base-assembly composite slots filled so far in the current module;
  // the first |composites| slots cover every composite deterministically.
  size_t next_base_slot_ = 0;

  std::vector<ObjectId> module_ids_;
  std::vector<CompositeInfo> composites_;
  std::vector<AssemblyInfo> assemblies_;
  std::vector<uint32_t> slot_ = {kNoSlot};  // indexed by id; 0 is null
  std::vector<AtomicInfo> atomics_;
  std::vector<ConnInfo> conns_;
  std::vector<uint32_t> free_atomics_;
  std::vector<uint32_t> free_conns_;
  // TraverseComposite's visited set: parts whose `visited` equals the
  // current epoch. Bumping the epoch empties the set.
  uint32_t visit_epoch_ = 0;
  std::vector<ObjectId> traverse_stack_;
  std::vector<ObjectId> incoming_;  // DeleteAtomic's copy of in_conns
};

}  // namespace odbgc

#endif  // ODBGC_OO7_GENERATOR_H_
