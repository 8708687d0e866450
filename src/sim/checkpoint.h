#ifndef ODBGC_SIM_CHECKPOINT_H_
#define ODBGC_SIM_CHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "sim/config.h"

namespace odbgc {

class Simulation;

// Durable checkpoint/restore for a running simulation.
//
// File layout (all integers little-endian):
//
//   header (48 bytes):
//     magic          8 bytes  "ODBGCKPT"
//     version        u32      kCheckpointVersion
//     flags          u32      reserved, 0
//     config_hash    u64      ConfigFingerprint(config)
//     event_cursor   u64      applied trace events at checkpoint time
//     payload_size   u64
//     payload_crc    u32      IEEE CRC-32 of the payload bytes
//     header_crc     u32      CRC-32 of the 44 header bytes above
//   payload (payload_size bytes): Simulation::SaveState snapshot
//   footer (8 bytes):
//     footer_magic   u32      kCheckpointFooterMagic
//     payload_crc    u32      repeated — a missing/mismatched footer
//                             identifies a torn (partially written) file
//
// Writes are atomic: the image is written to `path + ".tmp"`, the
// previous checkpoint (if any) is renamed to `path + ".prev"`, and the
// temp file is renamed onto `path`. A reader that finds `path` corrupt
// falls back to `path + ".prev"`, so a crash during checkpointing never
// loses the last good checkpoint.
enum class CheckpointError : uint8_t {
  kNone = 0,
  kOpenFailed = 1,     // file missing or unreadable / uncreatable
  kWriteFailed = 2,    // short write, flush or rename failure
  kTruncated = 3,      // file shorter than header+payload+footer claims
  kBadMagic = 4,       // not a checkpoint file
  kBadVersion = 5,     // checkpoint from an incompatible format version
  kBadHeaderCrc = 6,   // header bytes corrupted
  kBadPayloadCrc = 7,  // payload bytes corrupted (or torn footer)
  kMalformed = 8,      // CRC passed but the snapshot did not deserialize
  kConfigMismatch = 9, // checkpoint was taken under a different config
};

const char* CheckpointErrorName(CheckpointError error);

// v2: self-healing state (page-health sets in the fault injector,
// quarantine flags, corruption queue, scrub cursor, repair counters).
// v3: telemetry state (logical ticks, metrics registry, decision ledger,
// time-series frames) as a length-prefixed blob — empty for
// telemetry-off runs.
// v4: the object store serializes external pins (the cross-shard
// remembered set) between the root list and the newest-allocation pin.
// v5: overload-governor state (pressure level, safe-mode flag and the
// fallback policy's schedule, oscillation window) between the passive
// estimators and the telemetry blob, plus the governor counters in the
// result block; the config fingerprint covers max_db_bytes and the
// governor knobs.
// v6: the clock, the result block and the decision and I/O records
// follow their field tables (util/fields.h), so their fields are in
// report order; enum bytes are range-checked on load.
inline constexpr uint32_t kCheckpointVersion = 6;
inline constexpr uint32_t kCheckpointFooterMagic = 0x54504b43;  // "CKPT"

// FNV-1a hash of every row of SimConfig's field table and of the tables
// it nests (sim/config.h), in row order. Excluded are exactly the
// members declared after those tables, so that a resumed run may change
// them: the crash schedule (crash_point / crash_at_collection /
// crash_at_event), the fault and selector seeds (the live RNG states
// travel in the payload), the wall-clock deadline, and telemetry options
// (telemetry state in the payload is restored when the resuming config
// enables telemetry, and skipped — without failing — when it does not).
uint64_t ConfigFingerprint(const SimConfig& config);

// Serializes `sim` and writes it to `path` atomically (see layout above).
CheckpointError WriteCheckpoint(const Simulation& sim,
                                const std::string& path);

struct ResumeResult {
  // Final outcome. kNone means `sim` is ready to continue.
  CheckpointError error = CheckpointError::kOpenFailed;
  // What loading `path` itself produced (differs from `error` when the
  // `.prev` fallback was consulted).
  CheckpointError primary_error = CheckpointError::kNone;
  bool used_fallback = false;
  std::string loaded_path;
  uint64_t events_applied = 0;
  std::unique_ptr<Simulation> sim;

  bool ok() const { return error == CheckpointError::kNone; }
};

// Loads the checkpoint at `path` into a fresh Simulation built from
// `config`. If `path` is missing or corrupt, tries `path + ".prev"`.
ResumeResult ResumeFromCheckpoint(const SimConfig& config,
                                  const std::string& path);

}  // namespace odbgc

#endif  // ODBGC_SIM_CHECKPOINT_H_
