#ifndef ODBGC_BENCH_BENCH_UTIL_H_
#define ODBGC_BENCH_BENCH_UTIL_H_

// Shared helpers for the figure/table reproduction harnesses. Each bench
// binary prints the rows or series the corresponding paper artifact
// reports; EXPERIMENTS.md records the paper-vs-measured comparison.

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "oo7/params.h"
#include "sim/config.h"

namespace odbgc::bench {

// Command-line knobs shared by the harnesses:
//   --runs=N          seeds per data point (default 10, the paper's count)
//   --connectivity=N  NumConnPerAtomic (default 3)
//   --seed=N          base seed (default 1)
//   --threads=N       worker threads for the sweep runner (default: one
//                     per hardware core). Results are byte-identical for
//                     every thread count.
struct BenchArgs {
  int runs = 10;
  uint32_t connectivity = 3;
  uint64_t base_seed = 1;
  int threads = 0;  // 0 => hardware_concurrency (see sim/parallel.h)

  static constexpr const char* kUsage =
      "supported: --runs=N (1..100000) --connectivity=N (1..64) "
      "--seed=N --threads=N (1..1024; default: one per hardware core)";

  // Strict integer parsing: the whole token must be a base-10 integer
  // inside [min, max]. atoi-style silent garbage ("--runs=ten" -> 0,
  // "--runs=5x" -> 5) and out-of-range counts are rejected with an
  // error instead of quietly skewing a sweep.
  static long long ParseIntOrDie(const char* flag, const char* text,
                                 long long min, long long max) {
    errno = 0;
    char* end = nullptr;
    long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || v < min ||
        v > max) {
      std::fprintf(stderr,
                   "invalid value '%s' for %s: expected an integer in "
                   "[%lld, %lld]\n",
                   text, flag, min, max);
      std::exit(2);
    }
    return v;
  }

  static BenchArgs Parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strncmp(a, "--runs=", 7) == 0) {
        args.runs =
            static_cast<int>(ParseIntOrDie("--runs", a + 7, 1, 100000));
      } else if (std::strncmp(a, "--connectivity=", 15) == 0) {
        args.connectivity = static_cast<uint32_t>(
            ParseIntOrDie("--connectivity", a + 15, 1, 64));
      } else if (std::strncmp(a, "--seed=", 7) == 0) {
        args.base_seed = static_cast<uint64_t>(
            ParseIntOrDie("--seed", a + 7, 0, INT64_MAX));
      } else if (std::strncmp(a, "--threads=", 10) == 0) {
        args.threads =
            static_cast<int>(ParseIntOrDie("--threads", a + 10, 1, 1024));
      } else {
        std::fprintf(stderr, "unknown argument '%s' (%s)\n", a, kUsage);
        std::exit(2);
      }
    }
    return args;
  }
};

inline Oo7Params SmallPrimeWithConnectivity(uint32_t connectivity) {
  Oo7Params p = Oo7Params::SmallPrime();
  p.num_conn_per_atomic = connectivity;
  return p;
}

// The paper's simulation setup (Section 3.1): 96 KB partitions of
// 8 KB pages, buffer = one partition, UpdatedPointer selection,
// 10-collection preamble.
inline SimConfig PaperConfig() { return SimConfig{}; }

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("==============================================================\n");
}

}  // namespace odbgc::bench

#endif  // ODBGC_BENCH_BENCH_UTIL_H_
