#!/usr/bin/env bash
# Builds the storage / collector stack under AddressSanitizer plus
# UndefinedBehaviorSanitizer (ODBGC_SANITIZE=address turns on both, and
# any UBSan report is fatal) and runs the tests that exercise the fault
# injector, crash recovery, and the heap verifier (plus the corrupt-trace
# loader corpora, which is where a reader bug would touch memory it
# should not), the checkpoint codecs, the report encoder, the overload
# governor, the fleet engine, whose pool tasks must never outlive the
# frame that started them, even when Run() unwinds, the OO7 generator's
# id-indexed shadow graph, the CLI's flag range rules, the in-ref list's
# inline-to-heap spill and swap-erase, the trace loader's object-id
# rejection, the replay into a store reserved from the trace, the mark
# bitmap's unchecked word indexing (GrowTo, TestAndClear), and the trace
# cache's shared slots (concurrent waiters, failed generation), which
# otherwise run only under TSan. Then it runs a short chaos soak
# and recovery fuzz on the sanitized odbgc_run: those scripts are the
# only end-to-end drivers of the collector's crash and corrupt-abort
# branches.
# Usage: tools/check_asan.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"
TESTS=(fault_injection_test self_healing_test recovery_test buffer_pool_test
       fuzz_test storage_test collector_test checkpoint_test
       stream_determinism_test golden_output_test overload_test
       multi_tenant_test client_mux_test oo7_test flags_test
       reverse_index_test trace_test simulation_test parallel_test
       mark_bitmap_test)

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DODBGC_SANITIZE=address
cmake --build "$BUILD_DIR" --target "${TESTS[@]}" odbgc_run -j "$(nproc)"

for t in "${TESTS[@]}"; do
  echo "== ${t} under address + undefined-behavior sanitizers =="
  "$BUILD_DIR/tests/$t"
done

echo "== check_soak.sh under address + undefined-behavior sanitizers =="
ODBGC_SOAK_SEEDS=8 ODBGC_SOAK_CRASHES=2 ODBGC_SOAK_OVERLOAD_SEEDS=4 \
  ODBGC_SOAK_OVERLOAD_CRASHES=2 tools/check_soak.sh "$BUILD_DIR"
echo "== check_recovery.sh under address + undefined-behavior sanitizers =="
ODBGC_RECOVERY_KILLS=10 tools/check_recovery.sh "$BUILD_DIR"
echo "OK: no address or undefined-behavior sanitizer reports"
