#!/usr/bin/env bash
# Builds the threaded code (the sweep engine and the sharded fleet's
# apply pool) under ThreadSanitizer and runs the tests that exercise it.
# Usage: tools/check_tsan.sh [build-dir]
# Pass ODBGC_SANITIZE=address in the environment to run under ASan
# instead (same build flow, different -fsanitize flavor).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"
SANITIZER="${ODBGC_SANITIZE:-thread}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DODBGC_SANITIZE="$SANITIZER"
cmake --build "$BUILD_DIR" \
  --target parallel_test simulation_test self_healing_test \
  client_mux_test multi_tenant_test overload_test \
  -j "$(nproc)"

echo "== parallel_test under ${SANITIZER} sanitizer =="
"$BUILD_DIR/tests/parallel_test"
echo "== simulation_test under ${SANITIZER} sanitizer =="
"$BUILD_DIR/tests/simulation_test"
echo "== self_healing_test (chaos sweeps across thread counts) under ${SANITIZER} sanitizer =="
"$BUILD_DIR/tests/self_healing_test"
echo "== client_mux_test (streaming merge determinism) under ${SANITIZER} sanitizer =="
"$BUILD_DIR/tests/client_mux_test"
echo "== multi_tenant_test (sharded apply + budget coordinator) under ${SANITIZER} sanitizer =="
"$BUILD_DIR/tests/multi_tenant_test"
echo "== overload_test (governor + governed fleet backpressure) under ${SANITIZER} sanitizer =="
"$BUILD_DIR/tests/overload_test"
echo "OK: no ${SANITIZER} sanitizer reports"
