#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "oo7/generator.h"
#include "sim/client_mux.h"
#include "sim/multi_client.h"
#include "storage/reachability.h"
#include "tests/replay_test_util.h"
#include "workloads/streaming.h"
#include "workloads/synthetic.h"

namespace odbgc {
namespace {

Trace TinyOo7(uint64_t seed) {
  Oo7Generator gen(Oo7Params::Tiny(), seed);
  return gen.GenerateFullApplication();
}

Trace SmallChurn(uint64_t seed) {
  UniformChurnOptions o;
  o.seed = seed;
  o.cycles = 1500;
  o.list_count = 8;
  o.target_length = 16;
  return MakeUniformChurn(o);
}

// Drains a mux to exhaustion into a materialized trace, one Next() at a
// time; `clients`, when non-null, receives each event's client.
Trace Drain(ClientMux& mux, std::vector<uint32_t>* clients = nullptr) {
  Trace out;
  TraceEvent e;
  uint32_t client = 0;
  while (mux.Next(&e, &client)) {
    out.Append(e);
    if (clients != nullptr) clients->push_back(client);
  }
  return out;
}

// Drains a mux with a ragged consumer: Pull() calls whose `max` cycles
// through 1..97, with every third call a single Next() instead, and a
// client-state peek between calls (observation must be inert).
Trace RaggedDrain(ClientMux& mux, std::vector<uint32_t>* clients) {
  Trace out;
  std::vector<TraceEvent> buf(97);
  size_t max = 1;
  for (uint64_t call = 0;; ++call) {
    uint32_t client = UINT32_MAX;
    size_t n = 0;
    if (call % 3 == 2) {
      n = mux.Next(buf.data(), &client) ? 1 : 0;
    } else {
      n = mux.Pull(buf.data(), max, &client);
      max = max % 97 + 1;
    }
    if (n == 0) return out;
    for (size_t i = 0; i < n; ++i) {
      out.Append(buf[i]);
      clients->push_back(client);
    }
    (void)mux.alive();
  }
}

// An EventSource that counts the Next() calls made on it.
class CountingSource : public EventSource {
 public:
  explicit CountingSource(std::shared_ptr<const Trace> trace)
      : inner_(trace, MaxObjectId(*trace)) {}
  bool Next(TraceEvent* out) override {
    ++calls_;
    return inner_.Next(out);
  }
  uint32_t max_object_id() const override {
    return inner_.max_object_id();
  }
  uint64_t calls() const { return calls_; }

 private:
  TraceCursorSource inner_;
  uint64_t calls_ = 0;
};

// Independent reference for the jitter-free schedule, written without
// the mux: remap every client into its own id range up front, then take
// `chunk`-event turns round-robin, running a turn on while the client's
// newest allocation is still unlinked (neither a WriteRef to it nor an
// AddRoot of it seen yet).
Trace ReferenceInterleave(const std::vector<Trace>& clients,
                          uint32_t chunk) {
  std::vector<Trace> remapped;
  uint32_t offset = 0;
  for (const Trace& t : clients) {
    remapped.push_back(RemapObjectIds(t, offset));
    offset += MaxObjectId(t) + 1;
  }
  Trace out;
  std::vector<size_t> cursor(remapped.size(), 0);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (size_t c = 0; c < remapped.size(); ++c) {
      size_t& pos = cursor[c];
      const Trace& t = remapped[c];
      uint32_t pending_unlinked = 0;
      for (uint32_t k = 0; pos < t.size(); ++k, ++pos) {
        if (k >= chunk && pending_unlinked == 0) break;
        const TraceEvent& e = t[pos];
        out.Append(e);
        progressed = true;
        if (e.kind == EventKind::kCreate) {
          pending_unlinked = e.a;
        } else if (pending_unlinked != 0 &&
                   ((e.kind == EventKind::kWriteRef &&
                     e.c == pending_unlinked) ||
                    (e.kind == EventKind::kAddRoot &&
                     e.a == pending_unlinked))) {
          pending_unlinked = 0;
        }
      }
    }
  }
  return out;
}

TEST(ClientMuxTest, JitterFreeStreamMatchesReferenceMerge) {
  const Trace a = TinyOo7(1);
  const Trace b = SmallChurn(2);
  for (uint32_t chunk : {1u, 17u, 50u}) {
    Trace reference = ReferenceInterleave({a, b}, chunk);

    ClientMux mux;
    MuxClientOptions opts;
    opts.base_chunk = chunk;
    mux.AddClient(std::make_shared<Trace>(a), opts);
    mux.AddClient(std::make_shared<Trace>(b), opts);
    Trace streamed = Drain(mux);
    Trace interleaved = InterleaveClients({a, b}, chunk);

    ASSERT_EQ(streamed.size(), reference.size()) << "chunk=" << chunk;
    ASSERT_EQ(interleaved.size(), reference.size()) << "chunk=" << chunk;
    for (size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(streamed[i], reference[i]) << "chunk=" << chunk << " i=" << i;
      ASSERT_EQ(interleaved[i], reference[i])
          << "chunk=" << chunk << " i=" << i;
    }
  }
}

TEST(ClientMuxTest, SingleClientIsRawTrace) {
  Trace a = SmallChurn(3);
  ClientMux mux;
  mux.AddClient(std::make_shared<Trace>(a), MuxClientOptions{});
  Trace streamed = Drain(mux);
  ASSERT_EQ(streamed.size(), a.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(streamed[i], a[i]);
}

TEST(ClientMuxTest, StreamIndependentOfConsumerPullPattern) {
  // The merged stream must not depend on how the consumer batches its
  // pulls. Build the same two-mux fleet twice (with jitter and think
  // time, so every RNG path is live) and draw one in singles, the other
  // through ragged Pull() and Next() calls; the events and the client
  // reported for each must agree.
  auto build = [] {
    auto mux = std::make_unique<ClientMux>();
    MuxClientOptions opts;
    opts.base_chunk = 13;
    opts.chunk_jitter = 9;
    opts.think_time = 3;
    opts.seed = 77;
    mux->AddClient(std::make_shared<Trace>(TinyOo7(4)), opts);
    opts.seed = 78;
    mux->AddClient(std::make_shared<Trace>(SmallChurn(5)), opts);
    opts.seed = 79;
    mux->AddClient(std::make_shared<Trace>(SmallChurn(6)), opts);
    return mux;
  };
  auto ones = build();
  std::vector<uint32_t> single_clients;
  Trace singles = Drain(*ones, &single_clients);

  auto batched = build();
  std::vector<uint32_t> ragged_clients;
  Trace ragged = RaggedDrain(*batched, &ragged_clients);
  ASSERT_EQ(ragged.size(), singles.size());
  for (size_t i = 0; i < singles.size(); ++i) {
    ASSERT_EQ(ragged[i], singles[i]) << "i=" << i;
  }
  EXPECT_EQ(ragged_clients, single_clients);
}

// Exhaustion edges of Pull(). The mux finds a client dry on the first
// source draw after its last event, the draw Next() would make, and
// drops it without a think-time rest: a rest would leave the dry client
// in the rotation, to be found dry a second time when it woke. So the
// source sees exactly one Next() call beyond its events.
struct ExhaustionFleet {
  CountingSource* short_source = nullptr;
  ClientMux mux;
};

// Client 0 replays a 5-event trace, client 1 a longer churn; both take
// 16-event turns and think between them, so a stray rest has an RNG
// path to take.
void BuildExhaustionFleet(ExhaustionFleet* f) {
  Trace t;
  t.Append(CreateEvent(1, 64, 0));
  t.Append(AddRootEvent(1));
  t.Append(ReadEvent(1));
  t.Append(ReadEvent(1));
  t.Append(ReadEvent(1));
  MuxClientOptions opts;
  opts.base_chunk = 16;
  opts.think_time = 3;
  opts.seed = 41;
  auto source =
      std::make_unique<CountingSource>(std::make_shared<Trace>(std::move(t)));
  f->short_source = source.get();
  f->mux.AddClient(std::move(source), opts);
  opts.seed = 42;
  f->mux.AddClient(std::make_shared<Trace>(SmallChurn(14)), opts);
}

// Makes one Pull() of up to `max` events, appends what it returns, and
// returns the count.
size_t PullOnce(ClientMux& mux, size_t max, Trace* events,
                std::vector<uint32_t>* clients) {
  std::vector<TraceEvent> buf(max);
  uint32_t client = UINT32_MAX;
  const size_t n = mux.Pull(buf.data(), max, &client);
  for (size_t i = 0; i < n; ++i) {
    events->Append(buf[i]);
    clients->push_back(client);
  }
  return n;
}

// Finishes the drain in 64-event pulls and compares the whole stream,
// events and clients, with the fleet's Next()-only drain.
void ExpectNextOnlyStream(ExhaustionFleet* f, Trace* events,
                          std::vector<uint32_t>* clients) {
  while (PullOnce(f->mux, 64, events, clients) > 0) {
  }
  EXPECT_EQ(f->short_source->calls(), 6u);
  ExhaustionFleet ref;
  BuildExhaustionFleet(&ref);
  std::vector<uint32_t> want_clients;
  const Trace want = Drain(ref.mux, &want_clients);
  ASSERT_EQ(events->size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ((*events)[i], want[i]) << "i=" << i;
  }
  EXPECT_EQ(*clients, want_clients);
}

TEST(ClientMuxPullTest, SourceRunsDryMidTurn) {
  // Asked for 16, the turn gets the source's 5 events, finds it dry on
  // the sixth draw and drops the client; the next call starts client
  // 1's turn.
  ExhaustionFleet f;
  BuildExhaustionFleet(&f);
  Trace events;
  std::vector<uint32_t> clients;
  ASSERT_EQ(PullOnce(f.mux, 16, &events, &clients), 5u);
  EXPECT_EQ(clients.back(), 0u);
  EXPECT_EQ(f.short_source->calls(), 6u);
  EXPECT_EQ(f.mux.alive(), 1u);
  EXPECT_EQ(f.mux.events_drawn(), 5u);
  ASSERT_GT(PullOnce(f.mux, 16, &events, &clients), 0u);
  EXPECT_EQ(clients.back(), 1u);
  EXPECT_EQ(f.short_source->calls(), 6u);
  ExpectNextOnlyStream(&f, &events, &clients);
}

TEST(ClientMuxPullTest, LastEventLandsOnAMaxBoundary) {
  // The 5 events fill a max of 5 mid-turn: the source is not drawn past
  // them and the client stays alive. The next call makes that draw,
  // drops the client and returns client 1's turn instead.
  ExhaustionFleet f;
  BuildExhaustionFleet(&f);
  Trace events;
  std::vector<uint32_t> clients;
  ASSERT_EQ(PullOnce(f.mux, 5, &events, &clients), 5u);
  EXPECT_EQ(clients.back(), 0u);
  EXPECT_EQ(f.short_source->calls(), 5u);
  EXPECT_EQ(f.mux.alive(), 2u);
  ASSERT_GT(PullOnce(f.mux, 16, &events, &clients), 0u);
  EXPECT_EQ(clients.back(), 1u);
  EXPECT_EQ(f.short_source->calls(), 6u);
  EXPECT_EQ(f.mux.alive(), 1u);
  ExpectNextOnlyStream(&f, &events, &clients);
}

TEST(ClientMuxTest, ExhaustedClientsDropOutAndStreamStaysComplete) {
  Trace longer = SmallChurn(7);
  Trace shorter;
  shorter.Append(CreateEvent(1, 64, 0));
  shorter.Append(AddRootEvent(1));
  shorter.Append(ReadEvent(1));

  ClientMux mux;
  MuxClientOptions opts;
  opts.base_chunk = 2;
  mux.AddClient(std::make_shared<Trace>(longer), opts);
  mux.AddClient(std::make_shared<Trace>(shorter), opts);
  EXPECT_EQ(mux.alive(), 2u);

  Trace streamed = Drain(mux);
  EXPECT_EQ(mux.alive(), 0u);
  ASSERT_EQ(streamed.size(), longer.size() + shorter.size());
  // Once the short client runs dry the tail is purely the long client's
  // remapped suffix, in order.
  Trace longer_remapped = RemapObjectIds(longer, mux.client_offset(0));
  const size_t tail = streamed.size() - 8;
  size_t li = longer.size() - (streamed.size() - tail);
  for (size_t i = tail; i < streamed.size(); ++i, ++li) {
    EXPECT_EQ(streamed[i], longer_remapped[li]);
  }
}

TEST(ClientMuxTest, MergedStreamKeepsGroundTruthConsistent) {
  // Safe-point rule under scheduling randomness: a bare replay of the
  // merged stream must keep the garbage oracle equal to a full
  // reachability scan at quiescence.
  ClientMux mux;
  MuxClientOptions opts;
  opts.base_chunk = 5;
  opts.chunk_jitter = 11;
  opts.think_time = 2;
  opts.seed = 99;
  mux.AddClient(std::make_shared<Trace>(TinyOo7(8)), opts);
  mux.AddClient(std::make_shared<Trace>(SmallChurn(9)), opts);
  Trace mix = Drain(mux);

  StoreConfig cfg;
  cfg.partition_bytes = 16 * 1024;
  cfg.page_bytes = 2 * 1024;
  cfg.buffer_pages = 8;
  ObjectStore store(cfg);
  ReplayIntoStore(mix, &store);
  ReachabilityResult scan = ScanReachability(store);
  EXPECT_EQ(scan.unreachable_bytes, store.actual_garbage_bytes());
}

TEST(ClientMuxTest, StreamingChurnReplayMatchesGroundTruth) {
  StreamingChurnOptions o;
  o.seed = 11;
  o.cycles = 800;
  o.read_factor = 2;
  ClientMux mux;
  mux.AddClient(std::make_unique<StreamingChurnSource>(o),
                MuxClientOptions{});
  Trace t = Drain(mux);
  EXPECT_GT(t.size(), o.cycles * 3);

  StoreConfig cfg;
  cfg.partition_bytes = 16 * 1024;
  cfg.page_bytes = 2 * 1024;
  cfg.buffer_pages = 8;
  ObjectStore store(cfg);
  ReplayIntoStore(t, &store);
  ReachabilityResult scan = ScanReachability(store);
  EXPECT_EQ(scan.unreachable_bytes, store.actual_garbage_bytes());
}

// Pins the generator's exact stream across commits: an FNV-1a digest of
// every field of every event, so a change to how the source buffers a
// cycle cannot reorder, drop or alter an event unnoticed.
TEST(ClientMuxTest, StreamingChurnStreamIsPinned) {
  StreamingChurnOptions o;
  o.seed = 11;
  o.cycles = 800;
  o.read_factor = 2;
  StreamingChurnSource source(o);
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  uint64_t events = 0;
  TraceEvent e;
  while (source.Next(&e)) {
    mix(static_cast<uint32_t>(e.kind));
    mix(e.a);
    mix(e.b);
    mix(e.c);
    mix(e.d);
    ++events;
  }
  EXPECT_EQ(events, 37138u);
  EXPECT_EQ(h, 17944622878157404152ull);
}

TEST(ClientMuxTest, TenThousandClientsStreamInClientBoundedMemory) {
  // 10,000 generator-backed clients whose *total* event volume would be
  // far larger than their resident state. The mux + sources must cost
  // O(clients), independent of how many events remain undrawn.
  constexpr size_t kClients = 10000;
  ClientMux mux;
  for (size_t c = 0; c < kClients; ++c) {
    StreamingChurnOptions o;
    o.seed = 1000 + c;
    o.cycles = 2000;       // ~16k+ events per client if fully drained
    o.read_factor = 1;
    MuxClientOptions m;
    m.base_chunk = 8;
    m.chunk_jitter = 7;
    m.seed = 5000 + c;
    mux.AddClient(std::make_unique<StreamingChurnSource>(o), m);
  }
  // Draw a slice off the top; the fleet's undrawn remainder is ~200M
  // events (~4 GB if materialized the legacy way).
  TraceEvent e;
  for (size_t i = 0; i < 500000; ++i) ASSERT_TRUE(mux.Next(&e));
  // Resident accounting stays in tens of MB: a few KB per client.
  EXPECT_LT(mux.ApproxMemoryBytes(), 100u * 1024 * 1024);
  EXPECT_EQ(mux.clients(), kClients);
  EXPECT_EQ(mux.alive(), kClients);
}

TEST(ClientMuxTest, SourceMemoryIsIndependentOfRemainingEvents) {
  // Same client parameters except total cycles: resident state tracks
  // the bounded live lists, not the event horizon.
  StreamingChurnOptions small;
  small.cycles = 200;
  StreamingChurnOptions large = small;
  large.cycles = 20000;
  StreamingChurnSource a(small);
  StreamingChurnSource b(large);
  TraceEvent e;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(a.Next(&e));
    ASSERT_TRUE(b.Next(&e));
  }
  // Identical prefix behavior -> identical resident state.
  EXPECT_LT(b.ApproxMemoryBytes(), 2 * a.ApproxMemoryBytes());
}

TEST(ClientMuxAdmissionTest, GateDefersWithoutLosingEvents) {
  // A permanently hostile gate against one client: the defer valve must
  // keep admitting it every `defer_limit` rounds, so the merged stream
  // still carries every event of every client.
  Trace a = SmallChurn(21);
  Trace b = SmallChurn(22);
  ClientMux gated;
  gated.AddClient(std::make_shared<Trace>(a), MuxClientOptions{});
  gated.AddClient(std::make_shared<Trace>(b), MuxClientOptions{});
  gated.SetAdmissionGate([](uint32_t client) { return client == 1; },
                         /*defer_limit=*/2);
  Trace streamed = Drain(gated);
  EXPECT_EQ(streamed.size(), a.size() + b.size());
  EXPECT_GT(gated.admission_deferrals(), 0u);
}

TEST(ClientMuxAdmissionTest, GatedStreamIndependentOfPullPattern) {
  // The backpressure path must preserve the mux's core contract: the
  // merged stream is a function of client state only, not of how the
  // consumer batches its pulls.
  auto build = [] {
    auto mux = std::make_unique<ClientMux>();
    MuxClientOptions opts;
    opts.base_chunk = 13;
    opts.chunk_jitter = 9;
    opts.think_time = 3;
    opts.seed = 81;
    mux->AddClient(std::make_shared<Trace>(SmallChurn(23)), opts);
    opts.seed = 82;
    mux->AddClient(std::make_shared<Trace>(SmallChurn(24)), opts);
    opts.seed = 83;
    mux->AddClient(std::make_shared<Trace>(TinyOo7(25)), opts);
    mux->SetAdmissionGate([](uint32_t client) { return client != 0; },
                          /*defer_limit=*/3);
    return mux;
  };
  auto ones = build();
  std::vector<uint32_t> single_clients;
  Trace singles = Drain(*ones, &single_clients);

  auto batched = build();
  std::vector<uint32_t> ragged_clients;
  Trace ragged = RaggedDrain(*batched, &ragged_clients);
  ASSERT_EQ(singles.size(), ragged.size());
  for (size_t i = 0; i < singles.size(); ++i) {
    ASSERT_EQ(singles[i], ragged[i]) << "i=" << i;
  }
  EXPECT_EQ(ragged_clients, single_clients);
  EXPECT_EQ(ones->admission_deferrals(), batched->admission_deferrals());
}

TEST(ClientMuxAdmissionTest, UninstallingGateRestoresUngatedStream) {
  // Installing and immediately uninstalling a gate before the first
  // draw must leave the schedule untouched.
  Trace a = SmallChurn(26);
  Trace b = SmallChurn(27);
  auto run = [&](bool install) {
    ClientMux mux;
    mux.AddClient(std::make_shared<Trace>(a), MuxClientOptions{});
    mux.AddClient(std::make_shared<Trace>(b), MuxClientOptions{});
    if (install) {
      mux.SetAdmissionGate([](uint32_t) { return true; }, 2);
      mux.SetAdmissionGate(nullptr, 0);
    }
    return Drain(mux);
  };
  Trace plain = run(false);
  Trace cycled = run(true);
  ASSERT_EQ(plain.size(), cycled.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    ASSERT_EQ(plain[i], cycled[i]) << "i=" << i;
  }
}

TEST(ClientMuxTest, IdRangePastTheIdSpaceIsRejected) {
  // An empty source claiming ids up to `max_id`.
  auto source = [](uint32_t max_id) {
    return std::make_unique<TraceCursorSource>(nullptr, max_id);
  };
  // max_id + 1 must not wrap to 0: a client claiming every id does not
  // fit even alone.
  ClientMux full;
  EXPECT_DEATH(full.AddClient(source(UINT32_MAX), MuxClientOptions{}),
               "client id ranges overflow the 32-bit id space");
  // One id short of that fits, and leaves no room for anyone else.
  ClientMux mux;
  mux.AddClient(source(UINT32_MAX - 1), MuxClientOptions{});
  EXPECT_EQ(mux.id_limit(), UINT32_MAX);
  EXPECT_DEATH(mux.AddClient(source(0), MuxClientOptions{}),
               "client id ranges overflow the 32-bit id space");
}

TEST(ClientMuxTest, RegistrationAfterFirstDrawIsRejected) {
  ClientMux mux;
  mux.AddClient(std::make_shared<Trace>(SmallChurn(12)),
                MuxClientOptions{});
  TraceEvent e;
  ASSERT_TRUE(mux.Next(&e));
  EXPECT_DEATH(mux.AddClient(std::make_shared<Trace>(SmallChurn(13)),
                             MuxClientOptions{}),
               "AddClient after the first Next");
}

}  // namespace
}  // namespace odbgc
