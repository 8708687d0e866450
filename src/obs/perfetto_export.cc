#include "obs/perfetto_export.h"

#include "obs/build_info.h"
#include "util/file.h"
#include "util/json.h"

namespace odbgc::obs {

namespace {

constexpr int kPid = 1;

void WriteArgs(JsonWriter& w, const std::vector<TraceArg>& args) {
  w.Key("args");
  w.BeginObject();
  for (const TraceArg& a : args) {
    w.Key(a.key);
    switch (a.kind) {
      case TraceArg::Kind::kU64:
        w.Value(a.u64);
        break;
      case TraceArg::Kind::kF64:
        w.Value(a.f64);
        break;
      case TraceArg::Kind::kString:
        w.Value(a.str);
        break;
    }
  }
  w.EndObject();
}

void WriteEvent(JsonWriter& w, const TraceEventRec& e, int tid) {
  w.BeginObject();
  w.Key("name");
  w.Value(e.name);
  w.Key("ph");
  w.Value(std::string(1, e.ph));
  w.Key("ts");
  w.Value(e.ts);
  w.Key("pid");
  w.Value(static_cast<uint64_t>(kPid));
  w.Key("tid");
  w.Value(static_cast<uint64_t>(tid));
  if (e.ph == 'i') {
    w.Key("s");  // instant scope: thread
    w.Value("t");
  }
  if (!e.args.empty()) WriteArgs(w, e.args);
  w.EndObject();
}

void WriteMetadata(JsonWriter& w, const char* name, int tid,
                   const std::string& value) {
  w.BeginObject();
  w.Key("name");
  w.Value(name);
  w.Key("ph");
  w.Value("M");
  w.Key("ts");
  w.Value(uint64_t{0});
  w.Key("pid");
  w.Value(static_cast<uint64_t>(kPid));
  w.Key("tid");
  w.Value(static_cast<uint64_t>(tid));
  w.Key("args");
  w.BeginObject();
  w.Key("name");
  w.Value(value);
  w.EndObject();
  w.EndObject();
}

}  // namespace

std::string ChromeTraceJson(const std::vector<TraceThread>& threads,
                            const std::string& process_name) {
  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  WriteMetadata(w, "process_name", 0, process_name);
  for (const TraceThread& t : threads) {
    if (!t.name.empty()) WriteMetadata(w, "thread_name", t.tid, t.name);
  }
  for (const TraceThread& t : threads) {
    if (t.recorder == nullptr) continue;
    for (const TraceEventRec& e : t.recorder->events()) {
      WriteEvent(w, e, t.tid);
    }
  }
  w.EndArray();
  w.Key("displayTimeUnit");
  w.Value("ms");

  uint64_t dropped = 0;
  for (const TraceThread& t : threads) {
    if (t.recorder != nullptr) dropped += t.recorder->dropped_events();
  }
  const BuildInfo& build = GetBuildInfo();
  w.Key("otherData");
  w.BeginObject();
  w.Key("git_sha");
  w.Value(build.git_sha);
  w.Key("git_dirty");
  w.Value(build.git_dirty);
  w.Key("build_type");
  w.Value(build.build_type);
  w.Key("telemetry");
  w.Value(build.telemetry);
  w.Key("dropped_events");
  w.Value(dropped);
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

bool WriteChromeTrace(const std::vector<TraceThread>& threads,
                      const std::string& path,
                      const std::string& process_name) {
  return WriteWholeFile(path, ChromeTraceJson(threads, process_name));
}

}  // namespace odbgc::obs
