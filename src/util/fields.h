#ifndef ODBGC_UTIL_FIELDS_H_
#define ODBGC_UTIL_FIELDS_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/random.h"
#include "util/snapshot.h"
#include "util/stats.h"

namespace odbgc {

// Field tables: a result record lists its members once, and the report
// encoder, the checkpoint encoder and the checkpoint decoder all walk
// that list instead of naming the members one by one. Config tables
// (sim/config.h) feed only the checkpoint encoder, which hashes them
// into the config fingerprint. A checkpointed component lists its
// state once too, as one Persist call (at the end of this file) that
// serves both its SaveState and its RestoreState.
//
// A table is an X-macro with one row per member,
// X(type, member, default, options...), rows joined by line splices:
//
//   #define ODBGC_TALLY_FIELDS(X)
//     X(uint64_t, count, 0)
//     X(double, ratio, 0.0, .key = "r")
//
//   struct Tally {
//     ODBGC_FIELD_TABLE(ODBGC_TALLY_FIELDS)
//   };
//
// declares `uint64_t count = 0; double ratio = 0.0;` plus a static
// Tally::ForEachField(self, f) that calls f(FieldInfo, member) for every
// row in table order. The options are designated FieldInfo initializers.
// Row order is both the report order and the checkpoint order, so moving
// a row changes the checkpoint format. The member's type picks its
// encoding through the codec overloads below.
struct FieldInfo {
  const char* name;       // the member's name
  uint8_t section = 0;    // record-defined report group; 0 = the default
  const char* key = name; // report key; nullptr = checkpointed, not reported
  bool turns_on = false;  // nonzero value switches its section's object on
};

#define ODBGC_FIELD_DECLARE(type, member, init, ...) type member = init;
#define ODBGC_FIELD_VISIT(type, member, init, ...) \
  f(::odbgc::FieldInfo{.name = #member, __VA_ARGS__}, self.member);
#define ODBGC_FIELD_TABLE(FIELDS)                 \
  FIELDS(ODBGC_FIELD_DECLARE)                     \
  template <class Self, class F>                  \
  static void ForEachField(Self& self, F&& f) {   \
    FIELDS(ODBGC_FIELD_VISIT)                     \
  }

template <class R>
concept FieldRecord = requires(R& r) {
  R::ForEachField(r, [](const FieldInfo&, auto&) {});
};

// A list: a std::vector or a std::deque.
template <class C>
inline constexpr bool kIsList = false;
template <class T, class A>
inline constexpr bool kIsList<std::vector<T, A>> = true;
template <class T, class A>
inline constexpr bool kIsList<std::deque<T, A>> = true;
template <class C>
concept List = kIsList<C>;

// A component with its own checkpoint hooks.
template <class C>
concept Component = requires(const C& c, C& m, SnapshotWriter& w,
                             SnapshotReader& r) {
  c.SaveState(w);
  m.RestoreState(r);
};

// ---------------------------------------------------------------------
// Codecs, one per value type: SaveField/LoadField are the checkpoint
// encoding, ReportField the report encoding. The composite codecs are
// declared up front so that each can hold any other (a list of records,
// a record holding a list, a map of pairs).

template <FieldRecord R>
void SaveField(SnapshotWriter& w, const R& rec);
template <FieldRecord R>
void LoadField(SnapshotReader& r, R& rec);
template <class A, class B>
void SaveField(SnapshotWriter& w, const std::pair<A, B>& p);
template <class A, class B>
void LoadField(SnapshotReader& r, std::pair<A, B>& p);
template <class T, size_t N>
void SaveField(SnapshotWriter& w, const std::array<T, N>& a);
template <class T, size_t N>
void LoadField(SnapshotReader& r, std::array<T, N>& a);
template <List L>
void SaveField(SnapshotWriter& w, const L& list);
template <List L>
void LoadField(SnapshotReader& r, L& list);
template <class K, class... Rest>
void SaveField(SnapshotWriter& w, const std::unordered_set<K, Rest...>& s);
template <class K, class... Rest>
void LoadField(SnapshotReader& r, std::unordered_set<K, Rest...>& s);
template <class K, class V, class... Rest>
void SaveField(SnapshotWriter& w,
               const std::unordered_map<K, V, Rest...>& m);
template <class K, class V, class... Rest>
void LoadField(SnapshotReader& r, std::unordered_map<K, V, Rest...>& m);

inline void SaveField(SnapshotWriter& w, uint64_t v) { w.U64(v); }
inline void LoadField(SnapshotReader& r, uint64_t& v) { v = r.U64(); }
inline void ReportField(JsonWriter& w, uint64_t v) { w.Value(v); }

inline void SaveField(SnapshotWriter& w, uint32_t v) { w.U32(v); }
inline void LoadField(SnapshotReader& r, uint32_t& v) { v = r.U32(); }
inline void ReportField(JsonWriter& w, uint32_t v) {
  w.Value(static_cast<uint64_t>(v));
}

inline void SaveField(SnapshotWriter& w, double v) { w.F64(v); }
inline void LoadField(SnapshotReader& r, double& v) { v = r.F64(); }
inline void ReportField(JsonWriter& w, double v) { w.Value(v); }

inline void SaveField(SnapshotWriter& w, bool v) { w.Bool(v); }
inline void LoadField(SnapshotReader& r, bool& v) { v = r.Bool(); }
inline void ReportField(JsonWriter& w, bool v) { w.Value(v); }

inline void SaveField(SnapshotWriter& w, const std::string& v) { w.Str(v); }
inline void LoadField(SnapshotReader& r, std::string& v) { v = r.Str(); }
inline void ReportField(JsonWriter& w, const std::string& v) { w.Value(v); }

// RunningStats: the bit-exact accumulators in checkpoints, the summary
// in reports.
inline void SaveField(SnapshotWriter& w, const RunningStats& s) {
  const RunningStats::Raw raw = s.raw();
  w.U64(raw.count);
  w.F64(raw.mean);
  w.F64(raw.m2);
  w.F64(raw.min);
  w.F64(raw.max);
}
inline void LoadField(SnapshotReader& r, RunningStats& s) {
  RunningStats::Raw raw;
  raw.count = static_cast<size_t>(r.U64());
  raw.mean = r.F64();
  raw.m2 = r.F64();
  raw.min = r.F64();
  raw.max = r.F64();
  s = RunningStats::FromRaw(raw);
}
inline void ReportField(JsonWriter& w, const RunningStats& s) {
  w.BeginObject();
  w.Key("count");
  w.Value(static_cast<uint64_t>(s.count()));
  w.Key("mean");
  w.Value(s.mean());
  w.Key("min");
  w.Value(s.min());
  w.Key("max");
  w.Value(s.max());
  w.Key("stddev");
  w.Value(s.stddev());
  w.EndObject();
}

// Enums travel as one byte and are reported by name. Each enum
// specializes EnumTraits with its largest value (kLast), plus a Name(E)
// function if it is reported; loading a byte above kLast marks the
// snapshot malformed.
template <class E>
struct EnumTraits;

template <class E>
  requires std::is_enum_v<E>
void SaveField(SnapshotWriter& w, E v) {
  w.U8(static_cast<uint8_t>(v));
}
template <class E>
  requires std::is_enum_v<E>
void LoadField(SnapshotReader& r, E& v) {
  const uint8_t byte = r.U8();
  if (byte > static_cast<uint8_t>(EnumTraits<E>::kLast)) {
    r.MarkMalformed("enum value out of range in snapshot");
    v = E{};
    return;
  }
  v = static_cast<E>(byte);
}
template <class E>
  requires std::is_enum_v<E>
void ReportField(JsonWriter& w, E v) {
  w.Value(EnumTraits<E>::Name(v));
}

// A tabled record: every row in table order. Reported as an object of
// its reported rows.
template <FieldRecord R>
void SaveField(SnapshotWriter& w, const R& rec) {
  R::ForEachField(rec, [&w](const FieldInfo&, const auto& v) {
    SaveField(w, v);
  });
}
template <FieldRecord R>
void LoadField(SnapshotReader& r, R& rec) {
  R::ForEachField(rec, [&r](const FieldInfo&, auto& v) { LoadField(r, v); });
}

// Writes the reported rows of `section` as key/value pairs into the
// object the caller has open.
template <FieldRecord R>
void ReportRows(JsonWriter& w, const R& rec, uint8_t section = 0) {
  R::ForEachField(rec, [&w, section](const FieldInfo& f, const auto& v) {
    if (f.section != section || f.key == nullptr) return;
    w.Key(f.key);
    ReportField(w, v);
  });
}
template <FieldRecord R>
void ReportField(JsonWriter& w, const R& rec) {
  w.BeginObject();
  ReportRows(w, rec);
  w.EndObject();
}

// True when a turns_on row of `section` holds a nonzero value.
template <FieldRecord R>
bool SectionOn(const R& rec, uint8_t section) {
  bool on = false;
  R::ForEachField(rec, [&on, section](const FieldInfo& f, const auto& v) {
    using T = std::remove_cvref_t<decltype(v)>;
    if constexpr (std::is_arithmetic_v<T>) {
      if (f.section == section && f.turns_on && v > T{}) on = true;
    }
  });
  return on;
}

// A pair: its first member, then its second.
template <class A, class B>
void SaveField(SnapshotWriter& w, const std::pair<A, B>& p) {
  SaveField(w, p.first);
  SaveField(w, p.second);
}
template <class A, class B>
void LoadField(SnapshotReader& r, std::pair<A, B>& p) {
  LoadField(r, p.first);
  LoadField(r, p.second);
}

// A fixed-size array: each element, with no length.
template <class T, size_t N>
void SaveField(SnapshotWriter& w, const std::array<T, N>& a) {
  for (const T& e : a) SaveField(w, e);
}
template <class T, size_t N>
void LoadField(SnapshotReader& r, std::array<T, N>& a) {
  for (T& e : a) LoadField(r, e);
}

// A list: its length, then each element. Every element takes at least
// one byte, so a length beyond the bytes left is malformed.
template <List L>
void SaveField(SnapshotWriter& w, const L& list) {
  w.U64(list.size());
  for (const auto& e : list) SaveField(w, e);
}
template <List L>
void LoadField(SnapshotReader& r, L& list) {
  const uint64_t n = r.U64();
  list.clear();
  if (n > r.remaining()) {
    r.MarkMalformed("list length exceeds snapshot");
    return;
  }
  for (uint64_t i = 0; i < n && r.ok(); ++i) {
    typename L::value_type e;
    LoadField(r, e);
    list.push_back(std::move(e));
  }
}
template <List L>
void ReportField(JsonWriter& w, const L& list) {
  w.BeginArray();
  for (const auto& e : list) ReportField(w, e);
  w.EndArray();
}

// An unordered set or map: a list of its entries in key order, so the
// bytes do not depend on the hash table's layout. A map entry is its
// key, then its value.
template <class K, class... Rest>
void SaveField(SnapshotWriter& w, const std::unordered_set<K, Rest...>& s) {
  std::vector<K> keys(s.begin(), s.end());
  std::sort(keys.begin(), keys.end());
  SaveField(w, keys);
}
template <class K, class... Rest>
void LoadField(SnapshotReader& r, std::unordered_set<K, Rest...>& s) {
  std::vector<K> keys;
  LoadField(r, keys);
  s.clear();
  s.insert(keys.begin(), keys.end());
}
template <class K, class V, class... Rest>
void SaveField(SnapshotWriter& w,
               const std::unordered_map<K, V, Rest...>& m) {
  std::vector<std::pair<K, V>> entries(m.begin(), m.end());
  std::sort(entries.begin(), entries.end());  // keys are unique
  SaveField(w, entries);
}
template <class K, class V, class... Rest>
void LoadField(SnapshotReader& r, std::unordered_map<K, V, Rest...>& m) {
  std::vector<std::pair<K, V>> entries;
  LoadField(r, entries);
  m.clear();
  m.insert(entries.begin(), entries.end());
}

// An Rng: its generator state, so a restored stream resumes where the
// saved one stood.
inline void SaveField(SnapshotWriter& w, const Rng& rng) {
  SaveField(w, rng.state());
}
inline void LoadField(SnapshotReader& r, Rng& rng) {
  std::array<uint64_t, 4> state;
  LoadField(r, state);
  rng.set_state(state);
}

// A component: its own SaveState/RestoreState.
template <Component C>
void SaveField(SnapshotWriter& w, const C& c) {
  c.SaveState(w);
}
template <Component C>
void LoadField(SnapshotReader& r, C& c) {
  c.RestoreState(r);
}

// A section tag: four bytes that a restore checks, a tripwire for a
// stream that has drifted out of step.
struct SectionTag {
  const char (&fourcc)[5];
};
inline void SaveField(SnapshotWriter& w, SectionTag t) { w.Tag(t.fourcc); }
inline void LoadField(SnapshotReader& r, SectionTag t) { r.Tag(t.fourcc); }

// Saves `values` in order when `io` is a SnapshotWriter, and loads them
// in the same order when it is a SnapshotReader. A component names its
// checkpointed members in one static list that both hooks call, so its
// save and its restore cannot disagree:
//
//   template <class Io, class Self>
//   static void Checkpoint(Io& io, Self& self) {
//     Persist(io, SectionTag{"CNTR"}, self.count_, self.history_);
//   }
//   void SaveState(SnapshotWriter& w) const { Checkpoint(w, *this); }
//   void RestoreState(SnapshotReader& r) { Checkpoint(r, *this); }
//
// Self is const when saving. List order is checkpoint order, so moving,
// adding or retyping an entry changes the format.
template <class Io, class... Ts>
void Persist(Io& io, Ts&&... values) {
  if constexpr (std::is_same_v<Io, SnapshotWriter>) {
    (SaveField(io, values), ...);
  } else {
    static_assert(std::is_same_v<Io, SnapshotReader>);
    (LoadField(io, values), ...);
  }
}

}  // namespace odbgc

#endif  // ODBGC_UTIL_FIELDS_H_
