// odbgc_tracecheck — validate a Chrome/Perfetto trace_event JSON file
// produced by odbgc_run --trace-out.
//
//   odbgc_tracecheck run.json
//   odbgc_tracecheck --require-span=collection --require-span=scan t.json
//   odbgc_tracecheck --strict-names t.json
//
// Exit 0: the file parses with util/json, is a trace_event object with a
// traceEvents array, every event carries the required ph/ts/pid/tid
// fields (plus name for non-metadata events and "s" for instants), B/E
// spans balance per tid, and timestamps never decrease within a tid
// (the simulation's tick timebase is monotonic, so a regression means a
// corrupted or reordered export). With --strict-names, every span and
// instant name must come from the known vocabulary below — a tripwire
// for renamed or misspelled emit sites. Exit 1: any violation (each is
// printed). Exit 2: an unknown flag, a malformed flag value, or not
// exactly one FILE.

#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "util/file.h"
#include "util/flags.h"
#include "util/json.h"

namespace {

// Every span and instant name the simulator emits (--strict-names).
// Grown alongside the emit sites; docs/OBSERVABILITY.md carries the
// same table with the meaning of each.
const char* const kKnownSpanNames[] = {
    "collection", "copy",           "idle_period", "phase",
    "recovery",   "remembered_set", "repair",      "scan",
    "verifier",
};
const char* const kKnownInstantNames[] = {
    "collection_aborted_corrupt",
    "crash",
    "fault_retry",
    "page_read",
    "page_write",
    "policy_decision",
    "quarantine",
    "timeseries_sample",
};

bool NameKnown(const char* const* table, size_t count,
               const std::string& name) {
  for (size_t i = 0; i < count; ++i) {
    if (name == table[i]) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using odbgc::Flags;
  using odbgc::JsonValue;

  Flags flags;
  std::string error;
  if (!Flags::Parse(argc, argv, &flags, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  // Repeated --require-span flags collapse to the last value in the
  // parser; accept a comma-separated list instead.
  std::string require = flags.GetString("require-span", "");
  const bool strict_names = flags.GetBool("strict-names", false);
  if (flags.GetBool("help", false) || flags.positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: odbgc_tracecheck [--require-span=a,b,...] "
                 "[--strict-names] FILE\n");
    return flags.GetBool("help", false) ? 0 : 2;
  }
  for (const std::string& key : flags.MalformedKeys()) {
    std::fprintf(stderr, "error: malformed value --%s=%s\n", key.c_str(),
                 flags.GetString(key, "").c_str());
    return 2;
  }
  for (const std::string& key : flags.UnusedKeys()) {
    std::fprintf(stderr, "error: unknown flag --%s\n", key.c_str());
    return 2;
  }
  const std::string& path = flags.positional()[0];

  std::string text;
  if (!odbgc::ReadWholeFile(path, &text)) {
    std::fprintf(stderr, "error: cannot read '%s'\n", path.c_str());
    return 1;
  }
  JsonValue doc;
  if (!JsonValue::Parse(text, &doc, &error)) {
    std::fprintf(stderr, "invalid JSON: %s\n", error.c_str());
    return 1;
  }
  if (!doc.is_object()) {
    std::fprintf(stderr, "top level is not an object\n");
    return 1;
  }
  const JsonValue* events = doc.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "missing traceEvents array\n");
    return 1;
  }

  int violations = 0;
  auto complain = [&](size_t i, const char* what) {
    if (violations < 20) {
      std::fprintf(stderr, "event %zu: %s\n", i, what);
    }
    ++violations;
  };

  // Per-tid span stack depth (B/E balance), last-seen timestamp
  // (monotonicity), and the set of span/instant names seen, for
  // --require-span.
  std::map<double, long> depth;
  std::map<double, double> last_ts;
  std::map<std::string, uint64_t> names_seen;
  const std::vector<JsonValue>& items = events->array_items();
  for (size_t i = 0; i < items.size(); ++i) {
    const JsonValue& e = items[i];
    if (!e.is_object()) {
      complain(i, "not an object");
      continue;
    }
    const JsonValue* ph = e.Find("ph");
    const JsonValue* ts = e.Find("ts");
    const JsonValue* pid = e.Find("pid");
    const JsonValue* tid = e.Find("tid");
    if (ph == nullptr || !ph->is_string() ||
        ph->string_value().size() != 1) {
      complain(i, "missing or malformed ph");
      continue;
    }
    if (ts == nullptr || !ts->is_number()) complain(i, "missing ts");
    if (pid == nullptr || !pid->is_number()) complain(i, "missing pid");
    if (tid == nullptr || !tid->is_number()) complain(i, "missing tid");
    const char phc = ph->string_value()[0];
    const JsonValue* name = e.Find("name");
    if (name == nullptr || !name->is_string()) {
      complain(i, "missing name");
      continue;
    }
    if (tid == nullptr || !tid->is_number()) continue;
    // The simulation's tick timebase only moves forward: within a tid,
    // a decreasing ts means a reordered or corrupted export. Metadata
    // ('M') events carry no meaningful ts and are exempt.
    if (phc != 'M' && ts != nullptr && ts->is_number()) {
      const double tid_key = tid->number_value();
      auto it = last_ts.find(tid_key);
      if (it != last_ts.end() && ts->number_value() < it->second) {
        complain(i, "ts decreased within tid");
      } else {
        last_ts[tid_key] = ts->number_value();
      }
    }
    switch (phc) {
      case 'B':
        ++depth[tid->number_value()];
        ++names_seen[name->string_value()];
        if (strict_names &&
            !NameKnown(kKnownSpanNames, std::size(kKnownSpanNames),
                       name->string_value())) {
          complain(i, "span name outside the known vocabulary");
        }
        break;
      case 'E':
        if (--depth[tid->number_value()] < 0) {
          complain(i, "E without matching B");
        }
        break;
      case 'i': {
        const JsonValue* s = e.Find("s");
        if (s == nullptr || !s->is_string()) {
          complain(i, "instant missing scope \"s\"");
        }
        ++names_seen[name->string_value()];
        if (strict_names &&
            !NameKnown(kKnownInstantNames, std::size(kKnownInstantNames),
                       name->string_value())) {
          complain(i, "instant name outside the known vocabulary");
        }
        break;
      }
      case 'C':
      case 'M':
        break;
      default:
        complain(i, "unknown ph");
        break;
    }
  }
  for (const auto& [tid, d] : depth) {
    if (d != 0) {
      std::fprintf(stderr, "tid %.0f: %ld unclosed span(s)\n", tid, d);
      ++violations;
    }
  }

  // Required span/instant names (comma-separated).
  size_t pos = 0;
  while (pos < require.size()) {
    size_t comma = require.find(',', pos);
    if (comma == std::string::npos) comma = require.size();
    std::string want = require.substr(pos, comma - pos);
    pos = comma + 1;
    if (want.empty()) continue;
    if (names_seen.find(want) == names_seen.end()) {
      std::fprintf(stderr, "required span '%s' never appears\n",
                   want.c_str());
      ++violations;
    }
  }

  if (violations > 0) {
    std::fprintf(stderr, "%d violation(s) in %zu events\n", violations,
                 items.size());
    return 1;
  }
  std::printf("ok: %zu events, %zu distinct span/instant names\n",
              items.size(), names_seen.size());
  return 0;
}
