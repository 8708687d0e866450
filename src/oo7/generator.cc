#include "oo7/generator.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace odbgc {

namespace {

// Slot layouts of the simulated OO7 object types.
//
//   Module:        slot0 = manual head, slot1 = design-root assembly
//   ManualSection: slot0 = next section
//   Assembly:      slot i = child assembly (interior) or composite (base)
//   CompositePart: slot0 = document head, slot1 = atomic-part list head
//   DocumentNode:  slot0 = next node
//   AtomicPart:    slot0 = next part in composite list, slot1 = conn head
//   Connection:    slot0 = next conn in owner's list, slot1 = target part
constexpr uint32_t kModuleSlots = 2;
constexpr uint32_t kManualSlots = 1;
constexpr uint32_t kCompositeSlots = 2;
constexpr uint32_t kDocNodeSlots = 1;
constexpr uint32_t kAtomicSlots = 2;
constexpr uint32_t kConnectionSlots = 2;

constexpr uint32_t kAtomicNextSlot = 0;
constexpr uint32_t kAtomicConnHeadSlot = 1;
constexpr uint32_t kCompositePartHeadSlot = 1;
constexpr uint32_t kCompositeDocHeadSlot = 0;
constexpr uint32_t kConnNextSlot = 0;
constexpr uint32_t kConnTargetSlot = 1;
constexpr uint32_t kModuleManualSlot = 0;
constexpr uint32_t kModuleDesignRootSlot = 1;

// Spare composite-reference slots per base assembly, so structural
// inserts can add references without displacing existing ones.
constexpr uint32_t kExtraBaseSlots = 4;

// A slot for a new record in `slab`: the most recently freed one, or a
// new one at the end.
template <typename Record>
uint32_t TakeSlot(std::vector<Record>* slab,
                  std::vector<uint32_t>* free_slots) {
  if (free_slots->empty()) {
    slab->emplace_back();
    return static_cast<uint32_t>(slab->size() - 1);
  }
  const uint32_t slot = free_slots->back();
  free_slots->pop_back();
  return slot;
}

}  // namespace

Oo7Generator::Oo7Generator(const Oo7Params& params, uint64_t seed)
    : params_(params), rng_(seed) {
  // GenDb's population, which the reorganizations keep.
  const size_t parts = size_t{params.num_modules} *
                       params.num_comp_per_module * params.num_atomic_per_comp;
  atomics_.reserve(parts);
  conns_.reserve(parts * params.num_conn_per_atomic);
}

Trace Oo7Generator::GenerateFullApplication(uint32_t idle_after_reorg1) {
  const Reservation reserve = FullApplicationReserve(params_);
  Trace trace;
  trace.Reserve(reserve.events + (idle_after_reorg1 != 0 ? 1 : 0));
  slot_.reserve(reserve.ids + 1);
  trace.Append(PhaseMarkEvent(Phase::kGenDb));
  GenDb(&trace);
  trace.Append(PhaseMarkEvent(Phase::kReorg1));
  Reorg1(&trace);
  if (idle_after_reorg1 != 0) {
    trace.Append(IdleMarkEvent(idle_after_reorg1));
  }
  trace.Append(PhaseMarkEvent(Phase::kTraverse));
  Traverse(&trace);
  trace.Append(PhaseMarkEvent(Phase::kReorg2));
  Reorg2(&trace);
  return trace;
}

Oo7Generator::Reservation Oo7Generator::FullApplicationReserve(
    const Oo7Params& p) {
  const double parts = p.num_atomic_per_comp;
  const double k = p.num_conn_per_atomic;
  const double comps = p.num_comp_per_module;
  const double assemblies = p.assemblies_per_module();
  // Composite references from base assemblies; the first `comps` of
  // them each link, and unpin, a composite of their own.
  const double refs =
      static_cast<double>(p.base_assemblies_per_module()) *
      p.num_comp_per_assm;
  // GenDB, per module: the module is created and pinned; every assembly
  // is created, pinned, linked and unpinned; every manual section and
  // document node is created and linked; every composite is created and
  // pinned, every atomic part created with two writes, every connection
  // with three.
  const double gendb =
      2 + 2.0 * p.manual_sections_per_module() + 4 * assemblies + refs +
      std::min(refs, comps) +
      comps * (2 + 2.0 * p.doc_nodes_per_document() + 3 * parts +
               4 * parts * k);
  // Traverse reads the module, every assembly, and per composite
  // reference the composite, its parts and their connections.
  const double traverse = 1 + assemblies + refs * (1 + parts + parts * k);
  // Reorg1 and Reorg2 each delete and reinsert half of every composite's
  // parts. A reinsertion emits 4 + 4k events. A deletion emits 8 + 4k,
  // reads its way to the part's list position (on average (parts - 1) / 2
  // over both phases), and emits 10 plus the connection's position in
  // its owner's list (on average (k - 1) / 2) per incoming connection,
  // which it replaces with a new one. Reorg1's victims have k incoming
  // connections on average. Reorg2's are original parts, which hold more
  // of the in-degree than the parts reinserted around them: about 1.3 k.
  const double modules = p.num_modules;
  const double deletions = modules * 2 * comps * std::floor(parts / 2);
  const double incoming = 1.15 * k;
  const double reorg_events =
      deletions *
      (12 + 8 * k + (parts - 1) / 2 + incoming * (10 + (k - 1) / 2));
  const double reorg_ids = deletions * (1 + k + incoming);
  // A deletion's count varies by about a third of its mean, so the sum
  // of n of them by total / (3 sqrt(n)): add three standard deviations.
  const double spread = deletions > 0 ? 1 + 1 / std::sqrt(deletions) : 1;
  Reservation r;
  r.events = static_cast<size_t>(std::ceil(
      4 + modules * (gendb + traverse) + reorg_events * spread));
  r.ids = static_cast<size_t>(
      std::ceil(p.expected_object_count() + reorg_ids * spread));
  return r;
}

uint32_t Oo7Generator::AtomicSlot(ObjectId id) const {
  const uint32_t slot = id < slot_.size() ? slot_[id] : kNoSlot;
  ODBGC_CHECK_FMT(slot < atomics_.size() && atomics_[slot].id == id,
                  "object %u is not a live atomic part", id);
  return slot;
}

uint32_t Oo7Generator::ConnSlot(ObjectId id) const {
  const uint32_t slot = id < slot_.size() ? slot_[id] : kNoSlot;
  ODBGC_CHECK_FMT(slot < conns_.size() && conns_[slot].id == id,
                  "object %u is not a live connection", id);
  return slot;
}

size_t Oo7Generator::CompositeIndex(ObjectId id) const {
  const uint32_t index = id < slot_.size() ? slot_[id] : kNoSlot;
  ODBGC_CHECK_FMT(index < composites_.size() &&
                      composites_[index].id == id && composites_[index].alive,
                  "object %u is not a live composite part", id);
  return index;
}

void Oo7Generator::AddAtomic(ObjectId id, size_t comp_index) {
  const uint32_t slot = TakeSlot(&atomics_, &free_atomics_);
  AtomicInfo& info = atomics_[slot];
  info.id = id;
  info.composite = static_cast<uint32_t>(comp_index);
  slot_[id] = slot;
}

void Oo7Generator::AddConn(ObjectId id, ObjectId owner, ObjectId target) {
  const uint32_t slot = TakeSlot(&conns_, &free_conns_);
  conns_[slot] = ConnInfo{id, owner, target};
  slot_[id] = slot;
}

void Oo7Generator::FreeAtomic(ObjectId id) {
  const uint32_t slot = AtomicSlot(id);
  AtomicInfo& info = atomics_[slot];
  info.id = kNullObject;
  info.conns.clear();
  info.in_conns.clear();
  slot_[id] = kNoSlot;
  free_atomics_.push_back(slot);
}

void Oo7Generator::FreeConn(ObjectId id) {
  const uint32_t slot = ConnSlot(id);
  conns_[slot].id = kNullObject;
  slot_[id] = kNoSlot;
  free_conns_.push_back(slot);
}

void Oo7Generator::GenDb(Trace* t) {
  ODBGC_CHECK_MSG(!generated_, "GenDb may only run once");
  generated_ = true;

  for (uint32_t m = 0; m < params_.num_modules; ++m) {
    ObjectId module = NewId();
    t->Append(CreateEvent(module, kModuleBytes, kModuleSlots));
    t->Append(AddRootEvent(module));
    module_ids_.push_back(module);

    // Manual: a chain of fixed-size sections (a 100 KB manual cannot fit
    // one 96 KB partition; the chain preserves its space/IO role).
    ObjectId prev_section = kNullObject;
    for (uint32_t s = 0; s < params_.manual_sections_per_module(); ++s) {
      ObjectId sec = NewId();
      t->Append(CreateEvent(sec, kManualSectionBytes, kManualSlots));
      if (prev_section == kNullObject) {
        t->Append(WriteRefEvent(module, kModuleManualSlot, sec));
      } else {
        t->Append(WriteRefEvent(prev_section, 0, sec));
      }
      prev_section = sec;
    }

    // Composite parts (with documents, atomic parts, connections).
    size_t first_comp = composites_.size();
    std::vector<size_t> comp_pool;
    for (uint32_t c = 0; c < params_.num_comp_per_module; ++c) {
      composites_.emplace_back();
      BuildComposite(t, first_comp + c);
      comp_pool.push_back(first_comp + c);
    }

    // Assembly hierarchy. Base assemblies reference composites randomly,
    // but every composite is referenced at least once so that nothing is
    // born garbage.
    next_base_slot_ = 0;
    ObjectId design_root = BuildAssembly(t, /*level=*/1, comp_pool);
    t->Append(WriteRefEvent(module, kModuleDesignRootSlot, design_root));
    t->Append(RemoveRootEvent(design_root));
  }
}

void Oo7Generator::BuildComposite(Trace* t, size_t comp_index) {
  CompositeInfo& comp = composites_[comp_index];
  comp.id = NewId();
  slot_[comp.id] = static_cast<uint32_t>(comp_index);
  t->Append(CreateEvent(comp.id, kCompositeBytes, kCompositeSlots));
  // The composite is not referenced by the assembly hierarchy until the
  // base assemblies are built; the application's workspace reference
  // pins it (and, transitively, everything it owns) until then.
  t->Append(AddRootEvent(comp.id));

  // Document: chain of nodes.
  ObjectId prev_node = kNullObject;
  for (uint32_t d = 0; d < params_.doc_nodes_per_document(); ++d) {
    ObjectId node = NewId();
    t->Append(CreateEvent(node, kDocNodeBytes, kDocNodeSlots));
    if (prev_node == kNullObject) {
      t->Append(WriteRefEvent(comp.id, kCompositeDocHeadSlot, node));
    } else {
      t->Append(WriteRefEvent(prev_node, 0, node));
    }
    comp.doc_nodes.push_back(node);
    prev_node = node;
  }

  // Atomic parts, head-inserted into the composite's part list. After the
  // first insertion each head update overwrites a non-null pointer; these
  // are the benign pointer overwrites that advance the overwrite clock
  // during GenDB without creating garbage.
  for (uint32_t a = 0; a < params_.num_atomic_per_comp; ++a) {
    ObjectId part = NewId();
    t->Append(CreateEvent(part, kAtomicBytes, kAtomicSlots));
    ObjectId old_head = comp.parts.empty() ? kNullObject : comp.parts.front();
    t->Append(WriteRefEvent(part, kAtomicNextSlot, old_head));
    t->Append(WriteRefEvent(comp.id, kCompositePartHeadSlot, part));
    comp.parts.insert(comp.parts.begin(), part);
    AddAtomic(part, comp_index);
  }

  // Connections: each atomic part sources num_conn_per_atomic connections
  // to random parts of the same composite.
  for (ObjectId part : comp.parts) {
    for (uint32_t k = 0; k < params_.num_conn_per_atomic; ++k) {
      CreateConnection(t, part, PickTarget(comp_index, part), comp.id);
    }
  }
}

void Oo7Generator::LinkCompositeToAssembly(Trace* t, size_t assm_index,
                                           uint32_t slot,
                                           size_t comp_index) {
  AssemblyInfo& assm = assemblies_[assm_index];
  CompositeInfo& comp = composites_[comp_index];
  ODBGC_CHECK(assm.base);
  ODBGC_CHECK(assm.children[slot] == kNullObject);
  t->Append(WriteRefEvent(assm.id, slot, comp.id));
  assm.children[slot] = comp.id;
  comp.refs.emplace_back(assm_index, slot);
  if (!comp.linked) {
    comp.linked = true;
    t->Append(RemoveRootEvent(comp.id));
  }
}

ObjectId Oo7Generator::BuildAssembly(Trace* t, uint32_t level,
                                     const std::vector<size_t>& comp_pool) {
  assemblies_.emplace_back();
  size_t index = assemblies_.size() - 1;
  ObjectId id = NewId();
  assemblies_[index].id = id;
  uint32_t fanout = params_.num_assm_per_assm;
  bool base = level >= params_.num_assm_levels;
  uint32_t slots =
      base ? params_.num_comp_per_assm + kExtraBaseSlots : fanout;
  t->Append(CreateEvent(id, kAssemblyBytes, slots));
  // Pinned by the application until the parent assembly (or the module,
  // for the design root) links it in.
  t->Append(AddRootEvent(id));
  if (!base) {
    for (uint32_t c = 0; c < fanout; ++c) {
      ObjectId child = BuildAssembly(t, level + 1, comp_pool);
      t->Append(WriteRefEvent(id, c, child));
      t->Append(RemoveRootEvent(child));
      assemblies_[index].children.push_back(child);
    }
  } else {
    assemblies_[index].base = true;
    assemblies_[index].children.assign(slots, kNullObject);
    for (uint32_t c = 0; c < params_.num_comp_per_assm; ++c) {
      // Deterministic coverage first (so every composite is referenced),
      // then random picks.
      size_t comp_index;
      if (next_base_slot_ < comp_pool.size()) {
        comp_index = comp_pool[next_base_slot_];
      } else {
        comp_index = comp_pool[rng_.NextBelow(comp_pool.size())];
      }
      ++next_base_slot_;
      LinkCompositeToAssembly(t, index, c, comp_index);
    }
  }
  return id;
}

void Oo7Generator::CreateConnection(Trace* t, ObjectId source,
                                    ObjectId target, ObjectId near_hint) {
  AtomicInfo& src = Atomic(source);
  ObjectId conn = NewId();
  t->Append(CreateEvent(conn, kConnectionBytes, kConnectionSlots, near_hint));
  t->Append(WriteRefEvent(conn, kConnTargetSlot, target));
  ObjectId old_head = src.conns.empty() ? kNullObject : src.conns.front();
  t->Append(WriteRefEvent(conn, kConnNextSlot, old_head));
  t->Append(WriteRefEvent(source, kAtomicConnHeadSlot, conn));
  src.conns.insert(src.conns.begin(), conn);
  Atomic(target).in_conns.push_back(conn);
  AddConn(conn, source, target);
}

ObjectId Oo7Generator::PickTarget(size_t comp_index, ObjectId exclude) {
  return PickTarget2(comp_index, exclude, exclude);
}

ObjectId Oo7Generator::PickTarget2(size_t comp_index, ObjectId exclude_a,
                                   ObjectId exclude_b) {
  const CompositeInfo& comp = composites_[comp_index];
  ODBGC_CHECK(!comp.parts.empty());
  bool any_allowed = false;
  for (ObjectId p : comp.parts) {
    if (p != exclude_a && p != exclude_b) {
      any_allowed = true;
      break;
    }
  }
  if (!any_allowed) return comp.parts.front();
  for (;;) {
    ObjectId cand = comp.parts[rng_.NextBelow(comp.parts.size())];
    if (cand != exclude_a && cand != exclude_b) return cand;
  }
}

void Oo7Generator::UnlinkConnectionFromOwner(Trace* t, ObjectId conn) {
  const ConnInfo info = Conn(conn);
  AtomicInfo& owner = Atomic(info.owner);
  // The application clears the dying connection's endpoint first (as
  // OO7's delete does): without this, the garbage connection's stale
  // pointer would pin the deleted part in other partitions indefinitely.
  t->Append(ReadEvent(conn));
  t->Append(WriteRefEvent(conn, kConnTargetSlot, kNullObject));
  t->Append(ReadEvent(info.owner));
  auto it = std::find(owner.conns.begin(), owner.conns.end(), conn);
  ODBGC_CHECK_MSG(it != owner.conns.end(), "connection not in owner list");
  // Walk the list up to (and including) the connection being removed.
  for (auto walk = owner.conns.begin();; ++walk) {
    t->Append(ReadEvent(*walk));
    if (walk == it) break;
  }
  size_t pos = static_cast<size_t>(it - owner.conns.begin());
  ObjectId next =
      (pos + 1 < owner.conns.size()) ? owner.conns[pos + 1] : kNullObject;
  if (pos == 0) {
    t->Append(WriteRefEvent(info.owner, kAtomicConnHeadSlot, next));
  } else {
    t->Append(WriteRefEvent(owner.conns[pos - 1], kConnNextSlot, next));
  }
  owner.conns.erase(it);
  // The connection is now unreachable: its only reference was the list
  // link we just overwrote.
  t->Append(GarbageMarkEvent(kConnectionBytes, 1));
  // Shadow maintenance.
  AtomicInfo& target = Atomic(info.target);
  auto tin = std::find(target.in_conns.begin(), target.in_conns.end(), conn);
  ODBGC_CHECK(tin != target.in_conns.end());
  target.in_conns.erase(tin);
  FreeConn(conn);
}

void Oo7Generator::DeleteAtomic(Trace* t, ObjectId atomic) {
  const AtomicInfo& info = Atomic(atomic);
  const size_t comp_index = info.composite;
  CompositeInfo& comp = composites_[comp_index];

  // The application's workspace holds the part for the duration of the
  // delete operation, so a collection landing mid-operation cannot
  // reclaim it while its fields are still being dismantled.
  t->Append(AddRootEvent(atomic));

  // 1. Remove every connection that targets this part (clear its target
  //    field, then unlink it from its owner's list — each a pointer
  //    overwrite — leaving one garbage connection object). The owner
  //    immediately rewires to another part, as OO7-style reorganizations
  //    do, so every atomic part keeps sourcing exactly NumConnPerAtomic
  //    connections and the database stays stationary across phases.
  incoming_ = info.in_conns;
  for (ObjectId conn : incoming_) {
    ObjectId owner = Conn(conn).owner;
    UnlinkConnectionFromOwner(t, conn);
    if (owner != atomic) {
      CreateConnection(t, owner, PickTarget2(comp_index, atomic, owner),
                       owner);
    }
  }
  ODBGC_CHECK(Atomic(atomic).in_conns.empty());

  // 2. Unlink the part from the composite's part list (it stays pinned
  //    by the workspace reference).
  t->Append(ReadEvent(comp.id));
  auto it = std::find(comp.parts.begin(), comp.parts.end(), atomic);
  ODBGC_CHECK_MSG(it != comp.parts.end(), "part not in composite list");
  for (auto walk = comp.parts.begin();; ++walk) {
    t->Append(ReadEvent(*walk));
    if (walk == it) break;
  }
  size_t pos = static_cast<size_t>(it - comp.parts.begin());
  ObjectId next =
      (pos + 1 < comp.parts.size()) ? comp.parts[pos + 1] : kNullObject;
  if (pos == 0) {
    t->Append(WriteRefEvent(comp.id, kCompositePartHeadSlot, next));
  } else {
    t->Append(WriteRefEvent(comp.parts[pos - 1], kAtomicNextSlot, next));
  }
  comp.parts.erase(it);

  // 3. Dismantle the part's own pointers so the garbage it becomes holds
  //    no stale references into live data: its sibling link, then its
  //    connection chain from the tail up. Clearing an element's next
  //    link detaches its (already fully cleared) successor, which dies
  //    at that instant; the head dies when the part's list-head slot is
  //    cleared.
  t->Append(WriteRefEvent(atomic, kAtomicNextSlot, kNullObject));
  const AtomicInfo& doomed = Atomic(atomic);
  const std::vector<ObjectId>& chain = doomed.conns;  // front = head
  for (size_t i = chain.size(); i-- > 0;) {
    ObjectId conn = chain[i];
    t->Append(ReadEvent(conn));
    t->Append(WriteRefEvent(conn, kConnTargetSlot, kNullObject));
    t->Append(WriteRefEvent(conn, kConnNextSlot, kNullObject));
    if (i + 1 < chain.size()) {
      t->Append(GarbageMarkEvent(kConnectionBytes, 1));  // successor died
    }
    AtomicInfo& target = Atomic(Conn(conn).target);
    auto tin =
        std::find(target.in_conns.begin(), target.in_conns.end(), conn);
    ODBGC_CHECK(tin != target.in_conns.end());
    target.in_conns.erase(tin);
  }
  if (!chain.empty()) {
    t->Append(WriteRefEvent(atomic, kAtomicConnHeadSlot, kNullObject));
    t->Append(GarbageMarkEvent(kConnectionBytes, 1));  // head died
    for (ObjectId conn : chain) FreeConn(conn);
  }

  // 5. Release the workspace pin: the part itself is now garbage
  //    (Figure 3's detachable cluster is fully detached).
  t->Append(RemoveRootEvent(atomic));
  t->Append(GarbageMarkEvent(kAtomicBytes, 1));
  FreeAtomic(atomic);
}

ObjectId Oo7Generator::ReinsertAtomic(Trace* t, size_t comp_index,
                                      bool clustered) {
  CompositeInfo& comp = composites_[comp_index];
  ObjectId part = NewId();
  // Clustered reinsertion places the part (and its connections) with its
  // composite; unclustered reinsertion takes whatever the allocator's
  // cursor offers, which is how Reorg2 destroys physical clustering.
  ObjectId hint = clustered ? comp.id : kNullObject;
  t->Append(CreateEvent(part, kAtomicBytes, kAtomicSlots, hint));
  t->Append(ReadEvent(comp.id));
  ObjectId old_head = comp.parts.empty() ? kNullObject : comp.parts.front();
  t->Append(WriteRefEvent(part, kAtomicNextSlot, old_head));
  t->Append(WriteRefEvent(comp.id, kCompositePartHeadSlot, part));
  comp.parts.insert(comp.parts.begin(), part);
  AddAtomic(part, comp_index);
  for (uint32_t k = 0; k < params_.num_conn_per_atomic; ++k) {
    CreateConnection(t, part, PickTarget(comp_index, part), hint);
  }
  return part;
}

std::vector<ObjectId> Oo7Generator::ChooseDeletions(size_t comp_index) {
  std::vector<ObjectId> pool = composites_[comp_index].parts;
  rng_.Shuffle(pool);
  pool.resize(pool.size() / 2);
  return pool;
}

void Oo7Generator::Reorg1(Trace* t) {
  ODBGC_CHECK(generated_);
  // Clustered reorganization: each composite's deletions are immediately
  // followed by its reinsertions, so the replacement parts are allocated
  // contiguously and the composite stays physically clustered.
  for (size_t c = 0; c < composites_.size(); ++c) {
    if (!composites_[c].alive) continue;
    std::vector<ObjectId> victims = ChooseDeletions(c);
    for (ObjectId v : victims) DeleteAtomic(t, v);
    for (size_t i = 0; i < victims.size(); ++i) {
      ReinsertAtomic(t, c, /*clustered=*/true);
    }
  }
}

void Oo7Generator::Reorg2(Trace* t) {
  ODBGC_CHECK(generated_);
  // Declustering reorganization (Section 3.4): the same delete/reinsert
  // work as Reorg1, but interleaved round-robin across composites so
  // consecutive allocations belong to different composites and any
  // physical clustering of a composite's parts is destroyed.
  std::vector<size_t> alive;
  for (size_t c = 0; c < composites_.size(); ++c) {
    if (composites_[c].alive) alive.push_back(c);
  }
  std::vector<std::vector<ObjectId>> victims(alive.size());
  size_t max_rounds = 0;
  for (size_t i = 0; i < alive.size(); ++i) {
    victims[i] = ChooseDeletions(alive[i]);
    max_rounds = std::max(max_rounds, victims[i].size());
  }
  for (size_t round = 0; round < max_rounds; ++round) {
    for (size_t i = 0; i < alive.size(); ++i) {
      if (round >= victims[i].size()) continue;
      DeleteAtomic(t, victims[i][round]);
      // Reinsert into the previously handled composite so that the
      // allocation stream alternates composites.
      size_t prev = (i + alive.size() - 1) % alive.size();
      size_t reinsert = round < victims[prev].size() ? prev : i;
      ReinsertAtomic(t, alive[reinsert], /*clustered=*/false);
    }
  }
}

void Oo7Generator::TraverseComposite(Trace* t, size_t comp_index,
                                     int updates_per_part) {
  const CompositeInfo& comp = composites_[comp_index];
  t->Append(ReadEvent(comp.id));
  if (++visit_epoch_ == 0) {  // wrapped: clear every stale stamp
    for (AtomicInfo& a : atomics_) a.visited = 0;
    visit_epoch_ = 1;
  }
  std::vector<ObjectId>& stack = traverse_stack_;
  for (ObjectId first : comp.parts) {
    AtomicInfo& first_info = Atomic(first);
    if (first_info.visited == visit_epoch_) continue;
    first_info.visited = visit_epoch_;
    stack.push_back(first);
    while (!stack.empty()) {
      ObjectId part = stack.back();
      stack.pop_back();
      t->Append(ReadEvent(part));
      for (int u = 0; u < updates_per_part; ++u) {
        t->Append(UpdateEvent(part));
      }
      for (ObjectId conn : Atomic(part).conns) {
        t->Append(ReadEvent(conn));
        const ObjectId target = Conn(conn).target;
        AtomicInfo& target_info = Atomic(target);
        if (target_info.visited != visit_epoch_) {
          target_info.visited = visit_epoch_;
          stack.push_back(target);
        }
      }
    }
  }
}

void Oo7Generator::Traverse(Trace* t) {
  ODBGC_CHECK(generated_);
  // Read-only depth-first traversal over all atomic parts (the paper's
  // third phase). Composites shared by several base assemblies are
  // traversed once per reference, as in OO7's T1.
  TraverseT2(t, /*updates_per_part=*/0);
}

void Oo7Generator::TraverseT2(Trace* t, int updates_per_part) {
  ODBGC_CHECK(generated_);
  for (ObjectId module : module_ids_) {
    t->Append(ReadEvent(module));
  }
  for (const AssemblyInfo& assm : assemblies_) {
    t->Append(ReadEvent(assm.id));
    if (!assm.base) continue;
    for (ObjectId comp_id : assm.children) {
      if (comp_id == kNullObject) continue;
      TraverseComposite(t, CompositeIndex(comp_id), updates_per_part);
    }
  }
}

void Oo7Generator::TraverseT6(Trace* t) {
  ODBGC_CHECK(generated_);
  // Sparse traversal: hierarchy, composite, and its first atomic part.
  for (ObjectId module : module_ids_) {
    t->Append(ReadEvent(module));
  }
  for (const AssemblyInfo& assm : assemblies_) {
    t->Append(ReadEvent(assm.id));
    if (!assm.base) continue;
    for (ObjectId comp_id : assm.children) {
      if (comp_id == kNullObject) continue;
      const CompositeInfo& comp = composites_[CompositeIndex(comp_id)];
      t->Append(ReadEvent(comp.id));
      if (!comp.parts.empty()) {
        t->Append(ReadEvent(comp.parts.front()));
      }
    }
  }
}

uint64_t Oo7Generator::CompositeClusterBytes(
    const CompositeInfo& comp) const {
  uint64_t conns = 0;
  for (ObjectId part : comp.parts) {
    conns += Atomic(part).conns.size();
  }
  return kCompositeBytes +
         static_cast<uint64_t>(comp.doc_nodes.size()) * kDocNodeBytes +
         static_cast<uint64_t>(comp.parts.size()) * kAtomicBytes +
         conns * kConnectionBytes;
}

uint32_t Oo7Generator::CompositeClusterObjects(
    const CompositeInfo& comp) const {
  uint64_t conns = 0;
  for (ObjectId part : comp.parts) {
    conns += Atomic(part).conns.size();
  }
  return static_cast<uint32_t>(1 + comp.doc_nodes.size() +
                               comp.parts.size() + conns);
}

size_t Oo7Generator::live_composite_count() const {
  size_t n = 0;
  for (const CompositeInfo& c : composites_) {
    if (c.alive) ++n;
  }
  return n;
}

int Oo7Generator::StructuralInsert(Trace* t, int count) {
  ODBGC_CHECK(generated_);
  // Candidate base assemblies with a free reference slot.
  int inserted = 0;
  for (int i = 0; i < count; ++i) {
    // Find a free (assembly, slot); give up after a bounded search.
    size_t assm_index = assemblies_.size();
    uint32_t slot = 0;
    for (int tries = 0; tries < 64; ++tries) {
      size_t cand = rng_.NextBelow(assemblies_.size());
      if (!assemblies_[cand].base) continue;
      const std::vector<ObjectId>& slots = assemblies_[cand].children;
      for (uint32_t s = 0; s < slots.size(); ++s) {
        if (slots[s] == kNullObject) {
          assm_index = cand;
          slot = s;
          break;
        }
      }
      if (assm_index != assemblies_.size()) break;
    }
    if (assm_index == assemblies_.size()) break;  // capacity exhausted

    composites_.emplace_back();
    size_t comp_index = composites_.size() - 1;
    BuildComposite(t, comp_index);
    t->Append(ReadEvent(assemblies_[assm_index].id));
    LinkCompositeToAssembly(t, assm_index, slot, comp_index);
    ++inserted;
  }
  return inserted;
}

int Oo7Generator::StructuralDelete(Trace* t, int count) {
  ODBGC_CHECK(generated_);
  std::vector<size_t> alive;
  for (size_t c = 0; c < composites_.size(); ++c) {
    if (composites_[c].alive) alive.push_back(c);
  }
  int deleted = 0;
  for (int i = 0; i < count && alive.size() > 1; ++i) {
    size_t pick = rng_.NextBelow(alive.size());
    size_t comp_index = alive[pick];
    alive[pick] = alive.back();
    alive.pop_back();
    CompositeInfo& comp = composites_[comp_index];

    // Unlink every assembly reference; the composite cluster — part
    // graph, connections, and the whole document — detaches at the
    // final overwrite.
    uint64_t cluster_bytes = CompositeClusterBytes(comp);
    uint32_t cluster_objects = CompositeClusterObjects(comp);
    ODBGC_CHECK(!comp.refs.empty());
    for (const auto& [assm_index, slot] : comp.refs) {
      AssemblyInfo& assm = assemblies_[assm_index];
      t->Append(ReadEvent(assm.id));
      t->Append(WriteRefEvent(assm.id, slot, kNullObject));
      assm.children[slot] = kNullObject;
    }
    t->Append(GarbageMarkEvent(static_cast<uint32_t>(cluster_bytes),
                               cluster_objects));
    comp.refs.clear();

    // Shadow teardown. Connections never leave their composite, so the
    // parts' own lists hold every connection that dies here.
    for (ObjectId part : comp.parts) {
      for (ObjectId conn : Atomic(part).conns) FreeConn(conn);
      FreeAtomic(part);
    }
    comp.parts.clear();
    comp.doc_nodes.clear();
    comp.alive = false;
    ++deleted;
  }
  return deleted;
}

}  // namespace odbgc
