#!/usr/bin/env bash
# Full local gate: plain build + complete test suite + a telemetry
# smoke (export a trace, validate it with odbgc_tracecheck), a
# checkpoint/resume + recovery-fuzz smoke (docs/RECOVERY.md), the same
# resume with telemetry streams under transient faults, a bad-flag smoke
# (misspelt flags and unreadable booleans exit 2), a failed-write smoke
# (output to /dev/full fails the run), a hot-path bench smoke (section
# checksums must equal BENCH_core.json), a multi-tenant smoke (fleet
# checksums must agree across thread counts and with
# BENCH_multi_tenant.json), a self-healing chaos smoke (silent
# corruption must be detected, quarantined and repaired —
# docs/RECOVERY.md), an overload-governor smoke, then both sanitizer
# passes (tools/check_asan.sh, tools/check_tsan.sh). Each flavor builds
# into its own directory so the gates do not disturb an existing working
# build. Usage: tools/check_all.sh
set -euo pipefail

cd "$(dirname "$0")/.."

cmake -B build-check -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-check -j "$(nproc)"
ctest --test-dir build-check --output-on-failure

# Telemetry smoke: a real OO7 run must export a valid Chrome trace
# containing the core span taxonomy plus the controller-introspection
# instants, under strict name checking, and --version must answer.
trace_tmp="$(mktemp /tmp/odbgc_trace.XXXXXX.json)"
trap 'rm -f "$trace_tmp"' EXIT
./build-check/tools/odbgc_run --version
./build-check/tools/odbgc_run --workload=oo7 --policy=saga \
    --saga-frac=0.10 --trace-out="$trace_tmp" \
    --decisions-out=/dev/null --timeseries-out=/dev/null > /dev/null
./build-check/tools/odbgc_tracecheck --strict-names \
    --require-span=collection,scan,copy,page_read,page_write,policy_decision,timeseries_sample \
    "$trace_tmp"

# Checkpoint/resume smoke on OO7 Small': kill a SAIO run halfway via
# --crash-at-event, resume from its checkpoint, and require the resumed
# report to be byte-identical to the uninterrupted run (exit codes: 5
# for the injected crash, 0 for the resume).
ckpt_dir="$(mktemp -d /tmp/odbgc_ckpt.XXXXXX)"
trap 'rm -f "$trace_tmp"; rm -rf "$ckpt_dir"' EXIT
run="./build-check/tools/odbgc_run"
"$run" --workload=oo7 --oo7=smallprime --policy=saio --seed=4 \
    --json="$ckpt_dir/golden.json" > /dev/null
events="$(python3 -c "
import json
print(json.load(open('$ckpt_dir/golden.json'))['events'])")"
set +e
"$run" --workload=oo7 --oo7=smallprime --policy=saio --seed=4 \
    --checkpoint="$ckpt_dir/run.ckpt" --checkpoint-every=10000 \
    --crash-at-event="$((events / 2))" > /dev/null 2>&1
[ $? -eq 5 ] || { echo "FAIL: crash run should exit 5"; exit 1; }
set -e
"$run" --workload=oo7 --oo7=smallprime --policy=saio --seed=4 \
    --checkpoint="$ckpt_dir/run.ckpt" --resume \
    --json="$ckpt_dir/resumed.json" > /dev/null
cmp "$ckpt_dir/golden.json" "$ckpt_dir/resumed.json"
echo "checkpoint/resume smoke: byte-identical after halfway kill"

# Telemetry crash/resume smoke: the same SAIO run under transient faults
# (so retries are charged across the checkpoints), exporting the report,
# the time series and the decision ledger, must export byte-identical
# files after a kill at event 190,000 and a resume.
tel_flags="--workload=oo7 --oo7=smallprime --policy=saio --seed=4 \
    --read-fault-prob=0.01 --write-fault-prob=0.005 --sample-every=512"
tel_out() {
  echo "--json=$ckpt_dir/$1.json --timeseries-out=$ckpt_dir/$1.ts.jsonl \
      --decisions-out=$ckpt_dir/$1.dec.jsonl"
}
"$run" $tel_flags $(tel_out tel-golden) > /dev/null
set +e
"$run" $tel_flags $(tel_out tel-crash) \
    --checkpoint="$ckpt_dir/tel.ckpt" --checkpoint-every=10000 \
    --crash-at-event=190000 > /dev/null 2>&1
[ $? -eq 5 ] || { echo "FAIL: telemetry crash run should exit 5"; exit 1; }
set -e
"$run" $tel_flags $(tel_out tel-resumed) \
    --checkpoint="$ckpt_dir/tel.ckpt" --resume > /dev/null
for ext in json ts.jsonl dec.jsonl; do
  cmp "$ckpt_dir/tel-golden.$ext" "$ckpt_dir/tel-resumed.$ext"
done
echo "telemetry crash/resume smoke: report, time series and ledger identical"

# Bad-flag smoke: a misspelt flag, or a boolean value that is none of
# true/1/yes/on/false/0/no/off, must exit 2 naming the flag instead of
# running with the flag off.
./build-check/tools/odbgc_tracegen --workload=oo7 --oo7=tiny \
    --out="$ckpt_dir/app.trace" > /dev/null
expect_usage() {
  local flag="$1" code=0
  shift
  "$@" > /dev/null 2> "$ckpt_dir/usage.err" || code=$?
  [ "$code" -eq 2 ] || { echo "FAIL: exit $code, want 2: $*"; exit 1; }
  grep -q -- "--$flag" "$ckpt_dir/usage.err" || {
    echo "FAIL: error does not name --$flag: $*"; exit 1; }
}
expect_usage governor "$run" --workload=oo7 --oo7=tiny --governor=ture
expect_usage strict-names ./build-check/tools/odbgc_tracecheck \
    --strict-names=ture "$trace_tmp"
expect_usage assumptons ./build-check/tools/odbgc_traceinfo \
    --assumptons "$ckpt_dir/app.trace"
expect_usage assumptions ./build-check/tools/odbgc_traceinfo \
    --assumptions=maybe "$ckpt_dir/app.trace"
echo "bad-flag smoke: odbgc_run, odbgc_tracecheck and odbgc_traceinfo exit 2"

# Failed-write smoke: output written to a full device must fail the run,
# even when the whole file fits in the stdio buffer and only the flush
# at close fails.
expect_exit() {
  local want="$1" code=0
  shift
  "$@" > /dev/null 2>&1 || code=$?
  [ "$code" -eq "$want" ] || {
    echo "FAIL: exit $code, want $want: $*"; exit 1; }
}
expect_exit 3 "$run" --workload=oo7 --oo7=smallprime --policy=saga \
    --log-csv=/dev/full
# The tiny run's log is its header alone, which only the close flushes.
expect_exit 3 "$run" --workload=oo7 --oo7=tiny --policy=saga \
    --log-csv=/dev/full
expect_exit 1 ./build-check/tools/odbgc_tracegen --workload=uniform-churn \
    --cycles=5 --lists=1 --length=2 --out=/dev/full
expect_exit 1 ./build-check/bench/ext_multi_tenant --clients=10 \
    --check-threads=0 --json-out=/dev/full
expect_exit 1 ./build-check/bench/ext_overload --json-out=/dev/full
# micro_core_hotpath writes BENCH_hotpath_run.json in its working
# directory; there that name points at the full device.
hotpath="$PWD/build-check/bench/micro_core_hotpath"
ln -s /dev/full "$ckpt_dir/BENCH_hotpath_run.json"
(cd "$ckpt_dir" && expect_exit 1 "$hotpath")
echo "failed-write smoke: odbgc_run --log-csv exits 3; odbgc_tracegen," \
    "ext_multi_tenant, ext_overload and micro_core_hotpath exit 1"

# Controller-introspection smoke: SAIO and SAGA runs over OO7 Small'
# must export decision ledgers whose A/B diff reproduces the paper's
# accuracy ordering (figures 4/5): SAIO holds the I/O target better,
# SAGA holds the garbage target better.
"$run" --workload=oo7 --oo7=smallprime --policy=saio --seed=4 \
    --saio-frac=0.10 --decisions-out="$ckpt_dir/saio.jsonl" > /dev/null
"$run" --workload=oo7 --oo7=smallprime --policy=saga --seed=4 \
    --saga-frac=0.10 --decisions-out="$ckpt_dir/saga.jsonl" > /dev/null
analyze_out="$(./build-check/tools/odbgc_analyze --diff \
    --a="$ckpt_dir/saio.jsonl" --b="$ckpt_dir/saga.jsonl" \
    --label-a=saio --label-b=saga)"
echo "$analyze_out" | grep -q 'io_accuracy_winner=saio' || {
  echo "FAIL: analyze diff lost fig4 ordering:"; echo "$analyze_out"
  exit 1; }
echo "$analyze_out" | grep -q 'garbage_accuracy_winner=saga' || {
  echo "FAIL: analyze diff lost fig5 ordering:"; echo "$analyze_out"
  exit 1; }
echo "analyze smoke: SAIO wins I/O accuracy, SAGA wins garbage accuracy"

# Sweep failure isolation: one deliberately crashed run must land as
# structured failure data while the other runs stay byte-identical to a
# clean sweep, across thread counts.
"$run" --workload=oo7 --oo7=tiny --policy=saga --runs=4 --threads=1 \
    --sweep-json="$ckpt_dir/sweep-clean.json" > /dev/null
set +e
"$run" --workload=oo7 --oo7=tiny --policy=saga --runs=4 --threads=4 \
    --crash-at-event=2000 --crash-seed=2 \
    --sweep-json="$ckpt_dir/sweep-fail.json" > /dev/null 2>&1
sweep_exit=$?
set -e
[ "$sweep_exit" -eq 4 ] || {
  echo "FAIL: sweep with a crashed run exited $sweep_exit, want 4"; exit 1; }
python3 - "$ckpt_dir" <<'EOF'
import json, sys
d = sys.argv[1]
clean = json.load(open(d + "/sweep-clean.json"))
fail = json.load(open(d + "/sweep-fail.json"))
assert fail["summary"] == {"total": 4, "ok": 3, "failed": 1}, fail["summary"]
for c, f in zip(clean["runs"], fail["runs"]):
    if f["status"] == "failed":
        assert f["error_kind"] == "crash_injected", f
    else:
        assert c["report"] == f["report"], "run %d diverged" % f["index"]
print("sweep isolation smoke: 1 structured failure, 3 runs unchanged")
EOF

# Hot-path bench smoke: every micro_core_hotpath section checksum must
# equal its checksum_after in the committed BENCH_core.json, so a change
# to what the storage/GC core computes fails here, not only in the
# advisory bench-diff CI job.
bench_dir="$(mktemp -d /tmp/odbgc_bench.XXXXXX)"
trap 'rm -f "$trace_tmp"; rm -rf "$ckpt_dir" "$bench_dir"' EXIT
bench="$PWD/build-check/bench/micro_core_hotpath"
(cd "$bench_dir" && "$bench" > /dev/null)
python3 - "$bench_dir/BENCH_hotpath_run.json" BENCH_core.json <<'EOF'
import json, sys
run = {s["name"]: s["checksum"]
       for s in json.load(open(sys.argv[1]))["sections"]}
committed = {s["name"]: s["checksum_after"]
             for s in json.load(open(sys.argv[2]))["sections"]}
assert run == committed, "hot-path checksums %r != %r committed in %s" % (
    run, committed, sys.argv[2])
print("bench smoke: %d section checksums equal %s" % (len(run), sys.argv[2]))
EOF

# Multi-tenant smoke: the sharded engine's 100-client cell must produce
# byte-identical fleet checksums at two apply thread counts run in
# separate processes (the in-binary --check-threads re-run is skipped —
# this cross-process compare subsumes it), and that checksum must equal
# the one committed in BENCH_multi_tenant.json, so a change that moves
# every thread count the same way fails too.
mt_bench="$PWD/build-check/bench/ext_multi_tenant"
(cd "$bench_dir" && "$mt_bench" --clients=100 --threads=1 \
    --check-threads=0 --json-out=mt1.json > /dev/null)
(cd "$bench_dir" && "$mt_bench" --clients=100 --threads=3 \
    --check-threads=0 --json-out=mt3.json > /dev/null)
python3 - "$bench_dir" BENCH_multi_tenant.json <<'EOF'
import json, sys
d = sys.argv[1]
t1 = json.load(open(d + "/mt1.json"))
t3 = json.load(open(d + "/mt3.json"))
c1 = {s["name"]: s["checksum"] for s in t1["sections"]}
c3 = {s["name"]: s["checksum"] for s in t3["sections"]}
assert c1 == c3, "fleet checksums diverged across --threads: %r vs %r" % (
    c1, c3)
s1 = t1["sections"][0]
assert s1["clients"] == 100 and s1["ops"] > 0, s1
committed = {s["name"]: s["checksum_after"]
             for s in json.load(open(sys.argv[2]))["sections"]}
assert s1["checksum"] == committed[s1["name"]], (
    "100-client fleet checksum %d != %d committed in %s"
    % (s1["checksum"], committed[s1["name"]], sys.argv[2]))
print("multi-tenant smoke: 100-client fleet checksum identical at "
      "threads 1 and 3 and equal to %s (%d events)" % (sys.argv[2], s1["ops"]))
EOF

# Self-healing smoke: one OO7 Small' run under the full silent
# corruption plan (bit flips + latent decay + dead pages/partitions,
# scrubber on) must finish cleanly with --verify=partition, repair
# every quarantined partition, and actually detect damage. The full
# 50-seed chaos soak runs in CI (tools/check_soak.sh).
"$run" --workload=oo7 --oo7=smallprime --policy=saga --seed=3 \
    --fault-seed=1003 --bitflip-prob=0.01 --decay-prob=0.005 \
    --decay-latency=32 --dead-page-prob=0.002 --dead-partition-prob=0.2 \
    --scrub-interval=32 --scrub-pages=8 --verify=partition \
    --json="$ckpt_dir/chaos.json" > /dev/null
python3 - "$ckpt_dir" <<'EOF'
import json, sys
h = json.load(open(sys.argv[1] + "/chaos.json"))["self_healing"]
assert h["checksum_failures"] > 0, "chaos run injected nothing"
assert h["partitions_quarantined"] == h["partitions_repaired"] > 0, h
print("self-healing smoke: %d corruptions detected, %d partitions "
      "quarantined and repaired, verify clean"
      % (h["checksum_failures"], h["partitions_repaired"]))
EOF

# Overload-governor smoke: the same capacity-capped uniform-churn run
# (lazy fixed-rate policy, 1 MB ceiling) must exit 6 ungoverned and
# complete with --governor, with the report showing interventions and a
# peak utilization held under the ceiling. The multi-seed governed
# chaos soak runs in CI (tools/check_soak.sh).
overload_flags="--workload=uniform-churn --cycles=4000 --lists=8 \
    --length=16 --policy=fixed --rate=1000000 --max-db-mb=1"
set +e
"$run" $overload_flags > /dev/null 2>&1
overload_exit=$?
set -e
[ "$overload_exit" -eq 6 ] || {
  echo "FAIL: capped ungoverned run exited $overload_exit, want 6"; exit 1; }
"$run" $overload_flags --governor \
    --json="$ckpt_dir/overload.json" > /dev/null
python3 - "$ckpt_dir" <<'EOF'
import json, sys
o = json.load(open(sys.argv[1] + "/overload.json"))["overload"]
boosts = o["governor_boost_collections"]
emergencies = o["governor_emergency_collections"]
assert boosts + emergencies > 0, "governor survived without intervening: %r" % o
assert o["peak_utilization_pct"] < 100.0, o
print("overload smoke: exit 6 ungoverned; governed run survived the same cap "
      "(%d boosts, %d emergencies, peak %.1f%%)"
      % (boosts, emergencies, o["peak_utilization_pct"]))
EOF

# Crash-anywhere recovery fuzz (a short schedule here; CI runs the full
# 50-kill-point pass — see .github/workflows/ci.yml).
ODBGC_RECOVERY_KILLS="${ODBGC_RECOVERY_KILLS:-5}" \
    tools/check_recovery.sh build-check

tools/check_asan.sh build-asan
tools/check_tsan.sh build-tsan

echo "OK: plain suite + telemetry + checkpoint/recovery + asan + tsan green"
