#include "trace/trace.h"

#include <cstdio>
#include <memory>
#include <vector>

namespace odbgc {

std::string PhaseName(Phase p) {
  switch (p) {
    case Phase::kNone:
      return "None";
    case Phase::kGenDb:
      return "GenDB";
    case Phase::kReorg1:
      return "Reorg1";
    case Phase::kTraverse:
      return "Traverse";
    case Phase::kReorg2:
      return "Reorg2";
  }
  return "Unknown";
}

Trace::Summary Trace::Summarize() const {
  Summary s;
  for (const TraceEvent& e : events_) {
    switch (e.kind) {
      case EventKind::kCreate:
        ++s.creates;
        s.created_bytes += e.b;
        ++s.created_objects;
        break;
      case EventKind::kRead:
        ++s.reads;
        break;
      case EventKind::kUpdate:
        ++s.updates;
        break;
      case EventKind::kWriteRef:
        ++s.write_refs;
        break;
      case EventKind::kGarbageMark:
        ++s.garbage_marks;
        s.ground_truth_garbage_bytes += e.a;
        s.ground_truth_garbage_objects += e.b;
        break;
      default:
        break;
    }
  }
  return s;
}

namespace {

constexpr uint32_t kMagic = 0x4f444254;  // "ODBT"
constexpr uint32_t kVersion = 2;         // v2 added the clustering hint

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

bool Trace::SaveTo(const std::string& path) const {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return false;
  uint64_t count = events_.size();
  if (std::fwrite(&kMagic, sizeof(kMagic), 1, f.get()) != 1) return false;
  if (std::fwrite(&kVersion, sizeof(kVersion), 1, f.get()) != 1) return false;
  if (std::fwrite(&count, sizeof(count), 1, f.get()) != 1) return false;
  for (const TraceEvent& e : events_) {
    uint32_t rec[5] = {static_cast<uint32_t>(e.kind), e.a, e.b, e.c, e.d};
    if (std::fwrite(rec, sizeof(rec), 1, f.get()) != 1) return false;
  }
  // A trace smaller than the stdio buffer is only written at fclose, so
  // a full disk shows up in its result.
  return std::fclose(f.release()) == 0;
}

const char* TraceLoadErrorName(TraceLoadError e) {
  switch (e) {
    case TraceLoadError::kNone:
      return "none";
    case TraceLoadError::kOpenFailed:
      return "open-failed";
    case TraceLoadError::kTruncatedHeader:
      return "truncated-header";
    case TraceLoadError::kBadMagic:
      return "bad-magic";
    case TraceLoadError::kBadVersion:
      return "bad-version";
    case TraceLoadError::kBadEventCount:
      return "bad-event-count";
    case TraceLoadError::kTruncatedEvents:
      return "truncated-events";
    case TraceLoadError::kBadEventKind:
      return "bad-event-kind";
    case TraceLoadError::kTrailingBytes:
      return "trailing-bytes";
    case TraceLoadError::kBadObjectId:
      return "bad-object-id";
  }
  return "unknown";
}

TraceLoadError Trace::Load(const std::string& path, Trace* out) {
  constexpr uint64_t kHeaderBytes = sizeof(kMagic) + sizeof(kVersion) +
                                    sizeof(uint64_t);
  constexpr uint64_t kRecordBytes = 5 * sizeof(uint32_t);
  *out = Trace();
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return TraceLoadError::kOpenFailed;
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t count = 0;
  if (std::fread(&magic, sizeof(magic), 1, f.get()) != 1) {
    return TraceLoadError::kTruncatedHeader;
  }
  if (magic != kMagic) return TraceLoadError::kBadMagic;
  if (std::fread(&version, sizeof(version), 1, f.get()) != 1) {
    return TraceLoadError::kTruncatedHeader;
  }
  if (version != kVersion) return TraceLoadError::kBadVersion;
  if (std::fread(&count, sizeof(count), 1, f.get()) != 1) {
    return TraceLoadError::kTruncatedHeader;
  }
  // Validate the count against the file's real size before sizing any
  // allocation from it.
  if (count > (UINT64_MAX - kHeaderBytes) / kRecordBytes) {
    return TraceLoadError::kBadEventCount;
  }
  if (std::fseek(f.get(), 0, SEEK_END) != 0) {
    return TraceLoadError::kOpenFailed;
  }
  long end = std::ftell(f.get());
  if (end < 0) return TraceLoadError::kOpenFailed;
  const uint64_t file_bytes = static_cast<uint64_t>(end);
  const uint64_t expected = kHeaderBytes + count * kRecordBytes;
  if (file_bytes < expected) return TraceLoadError::kTruncatedEvents;
  if (file_bytes > expected) return TraceLoadError::kTrailingBytes;
  if (std::fseek(f.get(), static_cast<long>(kHeaderBytes), SEEK_SET) != 0) {
    return TraceLoadError::kOpenFailed;
  }
  out->events_.reserve(count);
  // Batched reads: one fread per ~4K records instead of one per record
  // (stdio's per-call overhead dominates 20-byte reads on big traces).
  constexpr size_t kBatchRecords = 4096;
  std::vector<uint32_t> buf(kBatchRecords * 5);
  uint64_t remaining = count;
  while (remaining > 0) {
    const size_t batch = remaining < kBatchRecords
                             ? static_cast<size_t>(remaining)
                             : kBatchRecords;
    if (std::fread(buf.data(), kRecordBytes, batch, f.get()) != batch) {
      *out = Trace();
      return TraceLoadError::kTruncatedEvents;
    }
    for (size_t i = 0; i < batch; ++i) {
      const uint32_t* rec = &buf[i * 5];
      if (rec[0] > static_cast<uint32_t>(EventKind::kUpdate)) {
        *out = Trace();
        return TraceLoadError::kBadEventKind;
      }
      // Id 0 is the null reference, and the store's id-indexed arrays
      // need room for id + 1 entries.
      if (rec[0] == static_cast<uint32_t>(EventKind::kCreate) &&
          (rec[1] == 0 || rec[1] == UINT32_MAX)) {
        *out = Trace();
        return TraceLoadError::kBadObjectId;
      }
      out->Append(TraceEvent{static_cast<EventKind>(rec[0]), rec[1], rec[2],
                             rec[3], rec[4]});
    }
    remaining -= batch;
  }
  return TraceLoadError::kNone;
}

}  // namespace odbgc
