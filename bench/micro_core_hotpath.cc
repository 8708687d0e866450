// Micro-benchmark for the storage/GC core hot paths reworked by the
// hot-path overhaul: O(1) reverse-edge maintenance, epoch-stamped
// marking, the flat buffer pool, and the allocation free-space index.
//
//  * write_ref_churn — Reorg1/Reorg2-style pointer-overwrite storm
//    against high fan-in targets (OO7 shares atomic parts, so a popular
//    object accumulates thousands of in_refs entries). Every overwrite
//    must detach the source from the old target's reverse index: a
//    linear std::find in the seed structures, one back-pointer lookup
//    after the overhaul.
//  * collection_sweep — repeated partition collections over a full
//    OO7 Small' database. Partition-root discovery scans every in_refs
//    list in the seed structures; the cross-partition in-ref counters
//    make it O(objects in partition). Marking pays a fresh
//    unordered_set+deque per collection in the seed; after, it is one
//    word-packed bitmap with copy_order as the Cheney worklist. No
//    application writes land between rounds, so once the cross-partition
//    garbage has drained, most collections re-mark a partition that has
//    not changed since its last collection. A real run mostly collects
//    the partition with the most pointer overwrites into it, which has
//    changed since its last collection.
//  * mark_bitmap_scan — repeated whole-database reachability scans over
//    the word-packed mark bitmap (memset reset, TestAndSet marking,
//    ctz-driven clear-bit iteration, popcount survivor accounting).
//  * alloc_growth — database growth with a cold clustering hint:
//    every allocation that misses the current allocation partition
//    first-fit-scans all P partitions in the seed; the free-space index
//    answers the same query in O(log P).
//  * buffer_pool — miss/evict-heavy and hit-heavy page access loops
//    (std::list+unordered_map vs flat frames + direct-mapped table).
//
// Emits BENCH_hotpath_run.json in the current directory; the committed
// BENCH_core.json pairs a pre-overhaul (seed) run with a post-overhaul
// run of this same binary. The workload is deterministic, so the two
// builds must also agree on every simulation-visible count — the bench
// prints and embeds checksums (io totals, overwrite counts, reclaimed
// bytes) to make silent divergence visible; tools/check_all.sh fails
// unless every section's checksum equals its `checksum_after` there.

#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "gc/collector.h"
#include "oo7/generator.h"
#include "storage/object_store.h"
#include "storage/reachability.h"
#include "storage/verifier.h"
#include "trace/trace.h"
#include "util/file.h"
#include "util/json.h"
#include "util/random.h"
#include "util/table_printer.h"

namespace {

using Clock = std::chrono::steady_clock;
using odbgc::Collector;
using odbgc::EventKind;
using odbgc::IoContext;
using odbgc::ObjectId;
using odbgc::ObjectStore;
using odbgc::Oo7Generator;
using odbgc::Oo7Params;
using odbgc::PartitionId;
using odbgc::Rng;
using odbgc::StoreConfig;
using odbgc::Trace;
using odbgc::TraceEvent;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Section {
  std::string name;
  uint64_t ops = 0;
  double ms = 0.0;
  uint64_t checksum = 0;  // simulation-visible state digest

  double ops_per_sec() const { return ms > 0.0 ? ops / (ms / 1000.0) : 0.0; }
};

// Reorg-style churn: kSources objects, kSlots pointer slots each, all
// aimed at kHubs shared targets. Each rewrite detaches one entry from a
// hub whose reverse index holds ~kSources*kSlots/kHubs entries.
Section WriteRefChurn(uint64_t seed) {
  constexpr uint32_t kHubs = 8;
  constexpr uint32_t kSources = 3000;
  constexpr uint32_t kSlots = 4;
  constexpr uint64_t kRewrites = 1'000'000;

  StoreConfig cfg;
  ObjectStore store(cfg);
  for (ObjectId h = 1; h <= kHubs; ++h) store.CreateObject(h, 200, 0);
  for (uint32_t s = 0; s < kSources; ++s) {
    ObjectId id = kHubs + 1 + s;
    store.CreateObject(id, 64, kSlots);
    for (uint32_t j = 0; j < kSlots; ++j) {
      store.WriteRef(id, j, 1 + (s * kSlots + j) % kHubs);
    }
  }

  Rng rng(seed);
  Clock::time_point t0 = Clock::now();
  for (uint64_t i = 0; i < kRewrites; ++i) {
    ObjectId src = kHubs + 1 + static_cast<ObjectId>(rng.NextBelow(kSources));
    uint32_t slot = static_cast<uint32_t>(rng.NextBelow(kSlots));
    ObjectId hub = 1 + static_cast<ObjectId>(rng.NextBelow(kHubs));
    store.WriteRef(src, slot, hub);
  }
  Section out;
  out.name = "write_ref_churn";
  out.ops = kRewrites;
  out.ms = ElapsedMs(t0);
  out.checksum = store.pointer_overwrites() ^
                 (store.io_stats().total() << 20) ^
                 (odbgc::VerifyHeap(store, {.check_reachability_agreement =
                                                false}).violation_count
                  << 50);
  return out;
}

// Replays an OO7 trace into a bare store (no policy, no collections).
void Replay(const Trace& trace, ObjectStore* store) {
  for (const TraceEvent& e : trace.events()) {
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
}

Section CollectionSweep(uint64_t seed, uint32_t connectivity) {
  Oo7Params params = odbgc::bench::SmallPrimeWithConnectivity(connectivity);
  Oo7Generator gen(params, seed);
  Trace trace = gen.GenerateFullApplication();

  StoreConfig cfg;
  ObjectStore store(cfg);
  Replay(trace, &store);

  Collector collector;
  constexpr int kRounds = 40;
  uint64_t reclaimed = 0;
  Clock::time_point t0 = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    for (PartitionId p = 0; p < store.partition_count(); ++p) {
      reclaimed += collector.Collect(store, p).bytes_reclaimed;
    }
  }
  Section out;
  out.name = "collection_sweep";
  out.ops = collector.collections_performed();
  out.ms = ElapsedMs(t0);
  out.checksum = reclaimed ^ (store.io_stats().gc_total() << 16) ^
                 (store.used_bytes() << 40);
  return out;
}

// Word-packed mark bitmap scans: repeated whole-database reachability
// passes over the OO7 Small' store. Each pass resets the bitmap (one
// memset), BFS-marks via TestAndSet, then walks the unreachable set with
// the ctz-driven clear-bit iterator and cross-checks the popcount
// aggregate — the same primitives the collector's planning phase uses.
Section MarkBitmapScan(uint64_t seed, uint32_t connectivity) {
  odbgc::Oo7Params params =
      odbgc::bench::SmallPrimeWithConnectivity(connectivity);
  Oo7Generator gen(params, seed);
  Trace trace = gen.GenerateFullApplication();
  StoreConfig cfg;
  ObjectStore store(cfg);
  Replay(trace, &store);

  constexpr int kScans = 40;
  odbgc::ReachabilityResult scan;
  odbgc::ReachabilityScratch scratch;
  uint64_t marked = 0;
  uint64_t unreachable_objects = 0;
  Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kScans; ++i) {
    odbgc::ScanReachabilityInto(store, &scan, &scratch);
    marked += scan.reachable.CountSet();
    unreachable_objects += scan.unreachable_objects;
  }
  Section out;
  out.name = "mark_bitmap_scan";
  out.ops = kScans;
  out.ms = ElapsedMs(t0);
  out.checksum = marked ^ (unreachable_objects << 24) ^
                 (scan.unreachable_bytes << 40);
  return out;
}

// Growth path: every object fills a whole partition, so each allocation
// misses the near hint and the allocation cursor and falls through to
// the first-fit search before growing the database by one partition.
Section AllocGrowth() {
  constexpr uint32_t kPartitions = 12'000;

  StoreConfig cfg;
  ObjectStore store(cfg);
  Clock::time_point t0 = Clock::now();
  for (uint32_t i = 0; i < kPartitions; ++i) {
    store.CreateObject(i + 1, cfg.partition_bytes, 0);
  }
  Section out;
  out.name = "alloc_growth";
  out.ops = kPartitions;
  out.ms = ElapsedMs(t0);
  out.checksum = store.partition_count() ^ (store.used_bytes() << 8) ^
                 (store.io_stats().total() << 30);
  return out;
}

Section BufferPoolLoop(bool hit_heavy) {
  constexpr uint64_t kAccesses = 4'000'000;
  odbgc::BufferPool pool(12);
  // Hit-heavy: an 8-page working set inside the 12-frame pool.
  // Miss-heavy: a 24-page cycle, so every access misses and evicts.
  const uint32_t cycle = hit_heavy ? 8 : 24;
  Clock::time_point t0 = Clock::now();
  for (uint64_t i = 0; i < kAccesses; ++i) {
    uint32_t page = static_cast<uint32_t>(i % cycle);
    pool.Access(odbgc::PageId{page % 3, page}, (i & 7) == 0,
                IoContext::kApplication);
  }
  Section out;
  out.name = hit_heavy ? "buffer_pool_hits" : "buffer_pool_evictions";
  out.ops = kAccesses;
  out.ms = ElapsedMs(t0);
  out.checksum = pool.stats().total() ^ (pool.hits() << 24);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  odbgc::bench::BenchArgs args = odbgc::bench::BenchArgs::Parse(argc, argv);
  odbgc::bench::PrintHeader(
      "Storage/GC core hot paths",
      "events/sec + collections/sec before/after the hot-path overhaul");

  std::vector<Section> sections;
  sections.push_back(WriteRefChurn(args.base_seed));
  sections.push_back(CollectionSweep(args.base_seed, args.connectivity));
  sections.push_back(MarkBitmapScan(args.base_seed, args.connectivity));
  sections.push_back(AllocGrowth());
  sections.push_back(BufferPoolLoop(/*hit_heavy=*/true));
  sections.push_back(BufferPoolLoop(/*hit_heavy=*/false));

  odbgc::TablePrinter t({"section", "ops", "ms", "ops_per_sec", "checksum"});
  for (const Section& s : sections) {
    t.AddRow({s.name, std::to_string(s.ops),
              odbgc::TablePrinter::Fmt(s.ms, 1),
              odbgc::TablePrinter::Fmt(s.ops_per_sec(), 0),
              std::to_string(s.checksum)});
  }
  t.Print(std::cout);

  odbgc::JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.Value("core_hotpath");
  w.Key("seed");
  w.Value(args.base_seed);
  w.Key("connectivity");
  w.Value(static_cast<uint64_t>(args.connectivity));
  w.Key("sections");
  w.BeginArray();
  for (const Section& s : sections) {
    w.BeginObject();
    w.Key("name");
    w.Value(s.name);
    w.Key("ops");
    w.Value(s.ops);
    w.Key("ms");
    w.Value(s.ms);
    w.Key("ops_per_sec");
    w.Value(s.ops_per_sec());
    w.Key("checksum");
    w.Value(s.checksum);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  if (!odbgc::WriteWholeFile("BENCH_hotpath_run.json",
                             w.TakeString() + "\n")) {
    std::cerr << "error: cannot write 'BENCH_hotpath_run.json'\n";
    return 1;
  }
  std::cout << "wrote BENCH_hotpath_run.json\n";
  return 0;
}
