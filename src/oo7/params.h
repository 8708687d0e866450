#ifndef ODBGC_OO7_PARAMS_H_
#define ODBGC_OO7_PARAMS_H_

#include <compare>
#include <cstdint>

namespace odbgc {

// OO7 benchmark database parameters (Table 1 of the paper). The defaults
// are the paper's Small' configuration; Small() gives the original OO7
// Small database of Carey/DeWitt/Naughton used by Yong/Naughton/Yu.
struct Oo7Params {
  uint32_t num_atomic_per_comp = 20;
  uint32_t num_conn_per_atomic = 3;  // the "connectivity": 3, 6, or 9
  uint32_t document_bytes = 2000;
  uint32_t manual_kbytes = 100;
  uint32_t num_comp_per_module = 150;
  uint32_t num_assm_per_assm = 3;
  uint32_t num_assm_levels = 6;
  uint32_t num_comp_per_assm = 3;
  uint32_t num_modules = 1;

  auto operator<=>(const Oo7Params&) const = default;

  static Oo7Params SmallPrime();  // the paper's Small'
  static Oo7Params Small();       // OO7 Small [CDN93]
  // A miniature configuration for fast unit tests (not from the paper).
  static Oo7Params Tiny();

  // Derived structural counts (per module).
  uint32_t assemblies_per_module() const;       // full k-ary tree
  uint32_t base_assemblies_per_module() const;  // leaves of that tree
  uint32_t doc_nodes_per_document() const;
  uint32_t manual_sections_per_module() const;

  // Expected total database bytes right after GenDB.
  uint64_t expected_database_bytes() const;
  uint64_t expected_object_count() const;
};

// Simulated object sizes. Chosen so that the Small' database matches the
// aggregates the paper reports: ~3.7 MB at connectivity 3, ~7.9 MB at
// connectivity 9, ~133-byte average object, atomic-part in-connectivity
// of ~4, and ~1 KB of garbage per ~6 pointer overwrites during the
// reorganization phases.
inline constexpr uint32_t kModuleBytes = 256;
inline constexpr uint32_t kManualSectionBytes = 4096;
inline constexpr uint32_t kAssemblyBytes = 128;
inline constexpr uint32_t kCompositeBytes = 256;
inline constexpr uint32_t kDocNodeBytes = 20;
inline constexpr uint32_t kAtomicBytes = 332;
inline constexpr uint32_t kConnectionBytes = 245;

}  // namespace odbgc

#endif  // ODBGC_OO7_PARAMS_H_
