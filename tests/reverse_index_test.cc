// Randomized churn over the store's O(1) reverse-index machinery:
// create / rewrite / unlink / collect, cross-validating in_refs, the
// slot back-pointers, the cross-partition in-ref counters, and the
// allocation free-space index with the heap verifier at every
// collection. A desynced index must also die loudly on the hot path,
// which the death tests pin down. The in-ref list itself is checked
// against a std::vector model.

#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "gc/collector.h"
#include "storage/object_store.h"
#include "storage/verifier.h"
#include "util/random.h"

namespace odbgc {
namespace {

StoreConfig SmallConfig() {
  StoreConfig config;
  config.partition_bytes = 8 * 1024;
  config.page_bytes = 1024;
  config.buffer_pages = 12;
  return config;
}

VerifierOptions BareOptions() {
  VerifierOptions options;
  // The churn test does not maintain ground-truth garbage markers.
  options.check_reachability_agreement = false;
  return options;
}

void ExpectSameEntries(const InRefList& list, const std::vector<InRef>& model) {
  ASSERT_EQ(list.size(), model.size());
  for (size_t i = 0; i < model.size(); ++i) {
    EXPECT_EQ(list[i], model[i]) << "index " << i;
  }
  EXPECT_EQ(list.end() - list.begin(), static_cast<ptrdiff_t>(model.size()));
}

// The store's swap-erase: the last entry fills the hole.
template <class List>
void SwapErase(List& list, size_t idx) {
  list[idx] = list[list.size() - 1];
  list.pop_back();
}

TEST(InRefListTest, SpillsPastTwoAndKeepsVectorOrder) {
  InRefList list;
  std::vector<InRef> model;
  EXPECT_TRUE(list.empty());
  EXPECT_TRUE(list.is_inline());
  for (uint32_t i = 1; i <= 2; ++i) {
    list.push_back(InRef{i, 10 * i});
    model.push_back(InRef{i, 10 * i});
  }
  EXPECT_TRUE(list.is_inline());
  EXPECT_EQ(list.capacity(), InRefList::kInline);
  ExpectSameEntries(list, model);

  // Swap-erase inside the inline region.
  SwapErase(list, 0);
  SwapErase(model, 0);
  ExpectSameEntries(list, model);

  // The third entry spills every entry to the heap, in order.
  for (uint32_t i = 3; i <= 7; ++i) {
    list.push_back(InRef{i, 10 * i});
    model.push_back(InRef{i, 10 * i});
  }
  EXPECT_FALSE(list.is_inline());
  EXPECT_EQ(list.capacity(), 8u);
  ExpectSameEntries(list, model);

  // Swap-erase on the heap, at the front, the middle and the end.
  for (size_t idx : {size_t{0}, size_t{2}, list.size() - 1}) {
    SwapErase(list, idx);
    SwapErase(model, idx);
    ExpectSameEntries(list, model);
  }

  // Positional erase and insert shift the tail (recovery_test's edit).
  const InRef removed = list[1];
  list.erase(list.begin() + 1);
  model.erase(model.begin() + 1);
  ExpectSameEntries(list, model);
  EXPECT_EQ(list.insert(list.begin() + 1, removed), list.begin() + 1);
  model.insert(model.begin() + 1, removed);
  ExpectSameEntries(list, model);
  // Inserting into a full list grows it; the entry may alias the list.
  while (list.size() < list.capacity()) {
    list.push_back(list[0]);
    model.push_back(model[0]);
  }
  list.insert(list.begin(), list[list.size() - 1]);
  model.insert(model.begin(), model.back());
  ExpectSameEntries(list, model);
  list.insert(list.end(), InRef{99, 990});
  model.insert(model.end(), InRef{99, 990});
  ExpectSameEntries(list, model);

  // Clear keeps the heap block; shrink_to_fit returns it once the
  // entries fit inline, and keeps it while they do not.
  const size_t heap_capacity = list.capacity();
  list.clear();
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.capacity(), heap_capacity);
  for (uint32_t i = 1; i <= 3; ++i) list.push_back(InRef{i, i});
  list.shrink_to_fit();
  EXPECT_EQ(list.capacity(), heap_capacity);
  list.pop_back();
  list.shrink_to_fit();
  EXPECT_TRUE(list.is_inline());
  ExpectSameEntries(list, {InRef{1, 1}, InRef{2, 2}});
  list.clear();
  list.shrink_to_fit();
  EXPECT_TRUE(list.is_inline());
  EXPECT_TRUE(list.empty());
}

TEST(InRefListTest, MovesTakeInlineAndHeapEntries) {
  InRefList small;
  small.push_back(InRef{1, 1});
  InRefList big;
  for (uint32_t i = 1; i <= 5; ++i) big.push_back(InRef{i, i});

  InRefList from_small(std::move(small));
  ExpectSameEntries(from_small, {InRef{1, 1}});
  EXPECT_TRUE(small.empty());
  EXPECT_TRUE(small.is_inline());
  const InRef* heap_entries = big.data();
  InRefList from_big(std::move(big));
  EXPECT_EQ(from_big.data(), heap_entries);  // the block moves, not a copy
  EXPECT_EQ(from_big.size(), 5u);
  EXPECT_TRUE(big.empty());
  EXPECT_TRUE(big.is_inline());

  // Assignment frees the target's block and takes the source's.
  from_small = std::move(from_big);
  EXPECT_EQ(from_small.data(), heap_entries);
  EXPECT_EQ(from_small.size(), 5u);
  from_big.push_back(InRef{7, 7});  // a moved-from list is usable
  ExpectSameEntries(from_big, {InRef{7, 7}});

  // A vector of lists relocates them on growth without losing entries.
  std::vector<InRefList> lists(3);
  for (uint32_t i = 0; i < 3; ++i) {
    for (uint32_t j = 0; j <= 2 * i; ++j) lists[i].push_back(InRef{i, j});
  }
  lists.resize(lists.capacity() + 1);
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_EQ(lists[i].size(), 2 * i + 1);
    for (uint32_t j = 0; j <= 2 * i; ++j) {
      EXPECT_EQ(lists[i][j], (InRef{i, j}));
    }
  }
}

TEST(InRefListTest, RandomOperationsMatchAVector) {
  Rng rng(0x1e5);
  InRefList list;
  std::vector<InRef> model;
  int inline_steps = 0;
  for (int step = 0; step < 20000; ++step) {
    // Alternate 100 steps that mostly grow the list with 100 that mostly
    // drain it, so it crosses the inline boundary again and again.
    const uint64_t push_share = (step / 100) % 2 == 0 ? 60 : 10;
    const InRef entry{static_cast<ObjectId>(rng.NextBelow(1000)),
                      static_cast<uint32_t>(step)};
    const uint64_t op = rng.NextBelow(100);
    const uint64_t other = rng.NextBelow(100);
    if (op < push_share || model.empty()) {
      list.push_back(entry);
      model.push_back(entry);
    } else if (other < 60) {
      const size_t idx = rng.NextBelow(model.size());
      SwapErase(list, idx);
      SwapErase(model, idx);
    } else if (other < 75) {
      const size_t idx = rng.NextBelow(model.size());
      list.erase(list.begin() + idx);
      model.erase(model.begin() + idx);
    } else if (other < 85) {
      const size_t idx = rng.NextBelow(model.size() + 1);
      list.insert(list.begin() + idx, entry);
      model.insert(model.begin() + idx, entry);
    } else if (other < 97) {
      list.shrink_to_fit();
    } else {
      InRefList moved(std::move(list));
      list = std::move(moved);
    }
    ExpectSameEntries(list, model);
    if (testing::Test::HasFailure()) FAIL() << "step " << step;
    inline_steps += list.is_inline() ? 1 : 0;
  }
  // Both regions saw over a thousand operations.
  EXPECT_GT(inline_steps, 1000);
  EXPECT_LT(inline_steps, 18000);
}

TEST(ReverseIndexChurnTest, RandomChurnStaysConsistentAcrossCollections) {
  ObjectStore store(SmallConfig());
  Collector collector;
  Rng rng(0xc0ffee);

  std::vector<ObjectId> live;
  ObjectId next_id = 1;
  constexpr size_t kRoots = 8;
  constexpr uint64_t kOps = 6000;
  constexpr uint64_t kCollectEvery = 250;

  // Seed a rooted core so collections have survivors.
  for (size_t i = 0; i < kRoots; ++i) {
    const ObjectId id = next_id++;
    store.CreateObject(id, 64 + 8 * static_cast<uint32_t>(i), 4);
    store.AddRoot(id);
    live.push_back(id);
  }

  uint64_t collections = 0;
  for (uint64_t op = 0; op < kOps; ++op) {
    if (rng.NextBool(0.3)) {
      // Create, sometimes clustered near an existing object.
      const ObjectId id = next_id++;
      const uint32_t size = 32 + static_cast<uint32_t>(rng.NextBelow(225));
      const uint32_t slots = static_cast<uint32_t>(rng.NextBelow(5));
      const ObjectId hint = rng.NextBool(0.5)
                                ? live[rng.NextBelow(live.size())]
                                : kNullObject;
      store.CreateObject(id, size, slots, hint);
      live.push_back(id);
      // Usually link the newcomer in so part of the graph stays reachable.
      if (rng.NextBool(0.8)) {
        const ObjectId parent = live[rng.NextBelow(live.size())];
        const uint32_t nslots = store.object(parent).slot_count;
        if (nslots > 0) {
          store.WriteRef(parent, static_cast<uint32_t>(rng.NextBelow(nslots)),
                         id);
        }
      }
    } else {
      // Rewrite a random slot: retarget (builds shared structure and
      // cross-partition edges) or null out (creates garbage).
      const ObjectId src = live[rng.NextBelow(live.size())];
      const uint32_t nslots = store.object(src).slot_count;
      if (nslots == 0) continue;
      const uint32_t slot = static_cast<uint32_t>(rng.NextBelow(nslots));
      const ObjectId target =
          rng.NextBool(0.15) ? kNullObject : live[rng.NextBelow(live.size())];
      store.WriteRef(src, slot, target);
    }

    if ((op + 1) % kCollectEvery == 0) {
      const PartitionId p =
          static_cast<PartitionId>(rng.NextBelow(store.partition_count()));
      collector.Collect(store, p);
      ++collections;
      VerifierReport vr = VerifyHeap(store, BareOptions());
      ASSERT_TRUE(vr.ok()) << "after collection " << collections << ": "
                           << vr.Summary();
      // Drop collected ids from the candidate pool.
      std::vector<ObjectId> survivors;
      survivors.reserve(live.size());
      for (ObjectId id : live) {
        if (store.Exists(id)) survivors.push_back(id);
      }
      live.swap(survivors);
    }
  }

  // Final sweep over every partition, verifying after each one.
  for (PartitionId p = 0; p < store.partition_count(); ++p) {
    collector.Collect(store, p);
    VerifierReport vr = VerifyHeap(store, BareOptions());
    ASSERT_TRUE(vr.ok()) << "final sweep partition " << p << ": "
                         << vr.Summary();
  }
  EXPECT_GT(collections, 10u);
  EXPECT_GT(store.partition_count(), 4u);
  EXPECT_GT(store.pointer_overwrites(), 100u);
}

TEST(ReverseIndexChurnTest, VerifierFlagsDesyncedIndices) {
  ObjectStore store(SmallConfig());
  store.CreateObject(1, 64, 2);
  store.CreateObject(2, 64, 0);
  store.WriteRef(1, 0, 2);
  ASSERT_TRUE(VerifyHeap(store, BareOptions()).ok());

  // Index-consistency messages name the partition so an operator can go
  // straight from a violation to `odbgc_run --verify=partition` and the
  // quarantine/repair machinery (docs/RECOVERY.md).
  const std::string where =
      "partition " + std::to_string(store.object(2).partition);

  // A miscounted cross-partition counter.
  ++store.mutable_object(2).xpart_in_refs;
  VerifierReport xpart = VerifyHeap(store, BareOptions());
  EXPECT_FALSE(xpart.ok());
  EXPECT_NE(xpart.Summary().find("xpart_in_refs"), std::string::npos)
      << xpart.Summary();
  EXPECT_NE(xpart.Summary().find(where), std::string::npos)
      << xpart.Summary();
  --store.mutable_object(2).xpart_in_refs;
  ASSERT_TRUE(VerifyHeap(store, BareOptions()).ok());

  // A back-pointer that no longer addresses its own entry.
  store.mutable_in_refs(2)[0].backref_pos += 1;
  VerifierReport backref = VerifyHeap(store, BareOptions());
  EXPECT_FALSE(backref.ok());
  EXPECT_NE(backref.Summary().find("backref"), std::string::npos)
      << backref.Summary();
  EXPECT_NE(backref.Summary().find(where), std::string::npos)
      << backref.Summary();
  store.mutable_in_refs(2)[0].backref_pos -= 1;
  ASSERT_TRUE(VerifyHeap(store, BareOptions()).ok());

  // VerifyPartition flags the same desync when pointed at the damaged
  // partition and stays clean on the others.
  ++store.mutable_object(2).xpart_in_refs;
  const PartitionId damaged = store.object(2).partition;
  VerifierReport scoped = VerifyPartition(store, damaged);
  EXPECT_FALSE(scoped.ok());
  EXPECT_NE(scoped.Summary().find(where), std::string::npos)
      << scoped.Summary();
  for (PartitionId p = 0; p < store.partition_count(); ++p) {
    if (p == damaged) continue;
    EXPECT_TRUE(VerifyPartition(store, p).ok()) << p;
  }
  --store.mutable_object(2).xpart_in_refs;
  ASSERT_TRUE(VerifyHeap(store, BareOptions()).ok());
}

TEST(ReverseIndexDeathTest, DesyncedBackrefDiesOnOverwrite) {
  ObjectStore store(SmallConfig());
  store.CreateObject(1, 64, 2);
  store.CreateObject(2, 64, 0);
  store.WriteRef(1, 0, 2);
  // Corrupt the slot's back-pointer; the O(1) detach must refuse to
  // swap-erase through it.
  store.mutable_slots(1)[0].backref = 7;
  EXPECT_DEATH(store.WriteRef(1, 0, kNullObject), "reverse index out of sync");
}

}  // namespace
}  // namespace odbgc
