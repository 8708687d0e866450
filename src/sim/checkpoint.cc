#include "sim/checkpoint.h"

#include <cstdio>
#include <cstring>

#include "obs/telemetry.h"
#include "sim/simulation.h"
#include "util/file.h"
#include "util/snapshot.h"

namespace odbgc {

namespace {

constexpr char kMagic[8] = {'O', 'D', 'B', 'G', 'C', 'K', 'P', 'T'};
constexpr size_t kHeaderSize = 48;
constexpr size_t kFooterSize = 8;

// ---------------------------------------------------------------------
// File-level helpers.

CheckpointError WriteFileAtomic(const std::string& path,
                                const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return CheckpointError::kOpenFailed;
  bool ok = bytes.empty() ||
            std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  if (std::fflush(f) != 0) ok = false;
  if (std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::remove(tmp.c_str());
    return CheckpointError::kWriteFailed;
  }
  // Keep the previous image as the fallback; on the first checkpoint
  // there is nothing to roll, so a failed rename here is not an error.
  std::rename(path.c_str(), (path + ".prev").c_str());
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return CheckpointError::kWriteFailed;
  }
  return CheckpointError::kNone;
}

// Parses and validates one checkpoint file; on success fills *out with a
// restored simulation.
CheckpointError LoadCheckpointFile(const SimConfig& config,
                                   const std::string& path,
                                   std::unique_ptr<Simulation>* out,
                                   uint64_t* events_applied) {
  std::string bytes;
  if (!ReadWholeFile(path, &bytes)) return CheckpointError::kOpenFailed;
  if (bytes.size() < kHeaderSize + kFooterSize) {
    return CheckpointError::kTruncated;
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return CheckpointError::kBadMagic;
  }
  SnapshotReader hr(bytes.data() + sizeof(kMagic),
                    kHeaderSize - sizeof(kMagic));
  const uint32_t version = hr.U32();
  hr.U32();  // flags, reserved
  const uint64_t config_hash = hr.U64();
  const uint64_t event_cursor = hr.U64();
  const uint64_t payload_size = hr.U64();
  const uint32_t payload_crc = hr.U32();
  const uint32_t header_crc = hr.U32();
  if (Crc32(bytes.data(), kHeaderSize - 4) != header_crc) {
    return CheckpointError::kBadHeaderCrc;
  }
  if (version != kCheckpointVersion) return CheckpointError::kBadVersion;
  if (bytes.size() != kHeaderSize + payload_size + kFooterSize) {
    return CheckpointError::kTruncated;
  }
  SnapshotReader fr(bytes.data() + kHeaderSize + payload_size, kFooterSize);
  if (fr.U32() != kCheckpointFooterMagic) return CheckpointError::kTruncated;
  if (fr.U32() != payload_crc) return CheckpointError::kBadPayloadCrc;
  if (Crc32(bytes.data() + kHeaderSize, payload_size) != payload_crc) {
    return CheckpointError::kBadPayloadCrc;
  }
  if (config_hash != ConfigFingerprint(config)) {
    return CheckpointError::kConfigMismatch;
  }
  auto sim = std::make_unique<Simulation>(config);
  SnapshotReader pr(bytes.data() + kHeaderSize, payload_size);
  sim->RestoreState(pr);
  if (!pr.AtEnd()) return CheckpointError::kMalformed;
  if (sim->events_applied() != event_cursor) {
    return CheckpointError::kMalformed;
  }
  *out = std::move(sim);
  *events_applied = event_cursor;
  return CheckpointError::kNone;
}

}  // namespace

const char* CheckpointErrorName(CheckpointError error) {
  switch (error) {
    case CheckpointError::kNone: return "none";
    case CheckpointError::kOpenFailed: return "open_failed";
    case CheckpointError::kWriteFailed: return "write_failed";
    case CheckpointError::kTruncated: return "truncated";
    case CheckpointError::kBadMagic: return "bad_magic";
    case CheckpointError::kBadVersion: return "bad_version";
    case CheckpointError::kBadHeaderCrc: return "bad_header_crc";
    case CheckpointError::kBadPayloadCrc: return "bad_payload_crc";
    case CheckpointError::kMalformed: return "malformed";
    case CheckpointError::kConfigMismatch: return "config_mismatch";
  }
  return "unknown";
}

uint64_t ConfigFingerprint(const SimConfig& config) {
  SnapshotWriter w;
  SaveField(w, config);
  // FNV-1a 64 over the canonical field bytes.
  uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : w.data()) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void Simulation::SaveState(SnapshotWriter& w) const {
  Checkpoint(w, *this);
  w.U64(passive_estimators_.size());
  for (const GarbageEstimator* passive : passive_estimators_) {
    passive->SaveState(w);
  }
  // Overload governor. Presence is config-determined (the fingerprint
  // covers governor.enabled), so the flag is a consistency check, not a
  // negotiation.
  w.Bool(governor_ != nullptr);
  if (governor_ != nullptr) {
    governor_->SaveState(w);
    // Redundant with the governor's own flag; kept for the layout and
    // checked on restore.
    w.Bool(governor_->safe_mode());
    w.Bool(safe_policy_ != nullptr);
    if (safe_policy_ != nullptr) safe_policy_->SaveState(w);
  }
  // Telemetry travels as a length-prefixed sub-blob: an empty string for
  // telemetry-off runs, so the surrounding layout is version-stable.
  SnapshotWriter tw;
  if (tel_ != nullptr) {
    PublishRunTotals();
    tel_->SaveState(tw);
  }
  w.Str(tw.Take());
  w.Tag("ENDS");
}

void Simulation::RestoreState(SnapshotReader& r) {
  Checkpoint(r, *this);
  const uint64_t passive_count = r.U64();
  if (passive_count != passive_estimators_.size()) {
    r.MarkMalformed("passive estimator count mismatch");
    return;
  }
  for (GarbageEstimator* passive : passive_estimators_) {
    passive->RestoreState(r);
  }
  const bool has_governor = r.Bool();
  if (has_governor != (governor_ != nullptr)) {
    r.MarkMalformed("governor presence mismatch");
    return;
  }
  if (has_governor) {
    governor_->RestoreState(r);
    if (r.Bool() != governor_->safe_mode()) {
      r.MarkMalformed("safe-mode flag disagrees with the governor");
      return;
    }
    if (r.Bool()) SafePolicy().RestoreState(r);
  }
  // Telemetry sub-blob. Empty means the checkpointed run had telemetry
  // off; a non-empty blob is restored only when this run has telemetry
  // (the config fingerprint deliberately ignores telemetry options, so a
  // resume may enable or disable it).
  const std::string tel_blob = r.Str();
  if (tel_ != nullptr && !tel_blob.empty()) {
    SnapshotReader tr(tel_blob);
    tel_->RestoreState(tr);
    if (!tr.ok()) {
      r.MarkMalformed("telemetry blob: " + tr.error());
      return;
    }
  }
  r.Tag("ENDS");
}

CheckpointError WriteCheckpoint(const Simulation& sim,
                                const std::string& path) {
  SnapshotWriter pw;
  sim.SaveState(pw);
  const std::string payload = pw.Take();
  const uint32_t payload_crc = Crc32(payload.data(), payload.size());

  SnapshotWriter hw;
  for (const char c : kMagic) hw.U8(static_cast<uint8_t>(c));
  hw.U32(kCheckpointVersion);
  hw.U32(0);  // flags, reserved
  hw.U64(ConfigFingerprint(sim.config()));
  hw.U64(sim.events_applied());
  hw.U64(payload.size());
  hw.U32(payload_crc);
  hw.U32(Crc32(hw.data().data(), hw.data().size()));  // header CRC

  SnapshotWriter fw;
  fw.U32(kCheckpointFooterMagic);
  fw.U32(payload_crc);

  std::string file = hw.Take();
  file += payload;
  file += fw.data();
  return WriteFileAtomic(path, file);
}

ResumeResult ResumeFromCheckpoint(const SimConfig& config,
                                  const std::string& path) {
  ResumeResult res;
  res.primary_error =
      LoadCheckpointFile(config, path, &res.sim, &res.events_applied);
  res.error = res.primary_error;
  res.loaded_path = path;
  if (res.error != CheckpointError::kNone) {
    const std::string prev = path + ".prev";
    std::unique_ptr<Simulation> sim;
    uint64_t events = 0;
    const CheckpointError fb =
        LoadCheckpointFile(config, prev, &sim, &events);
    if (fb == CheckpointError::kNone) {
      res.error = fb;
      res.used_fallback = true;
      res.loaded_path = prev;
      res.sim = std::move(sim);
      res.events_applied = events;
    }
  }
  return res;
}

}  // namespace odbgc
