#!/usr/bin/env bash
# Chaos soak for the self-healing storage stack: runs many seeds of an
# OO7 Small' simulation under the full silent-corruption plan (bit
# flips, latent media decay, permanent dead pages, dead partition
# devices) with the background scrubber alternating off/on, requires
# every run to finish cleanly with --verify=partition, and asserts the
# self-healing invariants on each JSON report (every quarantined
# partition repaired, every aborted collection accounted for by a
# quarantine). A subset of seeds is additionally killed halfway via
# --crash-at-event and resumed; the resumed report must be
# byte-identical to the uninterrupted run, proving checkpointing
# captures the injector health state, quarantine flags and scrub
# cursor. Exit codes observed must be exactly 0 (clean) or 5 -> 0
# (injected crash, then resume) -- see docs/RECOVERY.md.
#
# A second leg soaks the overload governor: capacity-capped governed
# uniform-churn runs under the same silent-corruption plan, with the
# ungoverned twin required to exit 6 and a subset of governed seeds
# killed mid-degradation and resumed to byte-identity (the checkpoint
# carries the governor and safe-mode state).
#
# Usage: tools/check_soak.sh [build-dir]
#   ODBGC_SOAK_SEEDS            seeds to soak (default 50)
#   ODBGC_SOAK_CRASHES          crash/resume pairs among those seeds (default 8)
#   ODBGC_SOAK_OO7              OO7 preset (default smallprime)
#   ODBGC_SOAK_OVERLOAD_SEEDS   governed capped seeds (default 10)
#   ODBGC_SOAK_OVERLOAD_CRASHES crash/resume pairs among those (default 4)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
RUN="$BUILD_DIR/tools/odbgc_run"
SEEDS="${ODBGC_SOAK_SEEDS:-50}"
CRASHES="${ODBGC_SOAK_CRASHES:-8}"
OO7="${ODBGC_SOAK_OO7:-smallprime}"

if [[ ! -x "$RUN" ]]; then
  echo "error: $RUN not built (cmake --build $BUILD_DIR)" >&2
  exit 1
fi

WORK="$(mktemp -d /tmp/odbgc_soak.XXXXXX)"
trap 'rm -rf "$WORK"' EXIT

# The chaos plan: every new fault kind at once. Probabilities are per
# physical page transfer; dead-partition-prob conditions on a dead page
# (a fifth of dead pages take the whole device down).
chaos() {  # seed scrub-interval extra args...
  local seed="$1" scrub="$2"
  shift 2
  "$RUN" --workload=oo7 --oo7="$OO7" --policy=saga --seed="$seed" \
      --fault-seed="$((1000 + seed))" \
      --bitflip-prob=0.01 --decay-prob=0.005 --decay-latency=32 \
      --dead-page-prob=0.002 --dead-partition-prob=0.2 \
      --scrub-interval="$scrub" --scrub-pages=8 "$@"
}

echo "== soak: $SEEDS seeds of $OO7 under the full chaos plan =="
for ((s = 1; s <= SEEDS; ++s)); do
  # Alternate the scrubber off/on so both detection paths soak: demand
  # reads + collection scans alone, and scrub-first.
  scrub=$(( s % 2 == 0 ? 32 : 0 ))
  if ! chaos "$s" "$scrub" --verify=partition \
      --json="$WORK/run-$s.json" > /dev/null; then
    echo "FAIL: seed $s (scrub=$scrub) did not exit 0 with a clean verify" >&2
    exit 1
  fi
done

# Invariants over every report: quarantined == repaired (the end-of-run
# drain guarantees no partition is left quarantined), every aborted
# collection is matched by a quarantine of the aborting partition, and
# the soak as a whole actually exercised each fault kind.
python3 - "$WORK" "$SEEDS" <<'EOF'
import json, sys
work, seeds = sys.argv[1], int(sys.argv[2])
tot = {}
for s in range(1, seeds + 1):
    r = json.load(open("%s/run-%d.json" % (work, s)))
    h = r.get("self_healing", {})
    q, rep = h.get("partitions_quarantined", 0), h.get("partitions_repaired", 0)
    assert q == rep, "seed %d: quarantined %d != repaired %d" % (s, q, rep)
    log = h.get("quarantine_log", [])
    assert len(log) == q, "seed %d: quarantine_log has %d entries, want %d" % (
        s, len(log), q)
    for e in log:
        assert e["repaired_event"] >= e["detected_event"] > 0, \
            "seed %d: bad quarantine window %r" % (s, e)
    aborted = h.get("collections_aborted_corrupt", 0)
    assert aborted <= q, "seed %d: %d aborts but only %d quarantines" % (
        s, aborted, q)
    for k, v in h.items():
        if k != "quarantine_log":
            tot[k] = tot.get(k, 0) + v
for k in ("bitflips_injected", "decays_armed", "device_faults",
          "checksum_failures", "scrub_detections", "pages_scrubbed",
          "partitions_quarantined", "collections_aborted_corrupt"):
    assert tot.get(k, 0) > 0, "soak never exercised %s" % k
print("   invariants OK over %d seeds: %d bitflips, %d decays, %d device "
      "faults ->\n   %d checksum failures + %d scrub detections, "
      "%d quarantined == repaired,\n   %d collections aborted" % (
          seeds, tot["bitflips_injected"], tot["decays_armed"],
          tot["device_faults"], tot["checksum_failures"],
          tot["scrub_detections"], tot["partitions_quarantined"],
          tot["collections_aborted_corrupt"]))
EOF

# Crash-at-event under chaos: kill a spread of the soaked seeds halfway,
# resume from the checkpoint, and require byte-identity with the
# uninterrupted report (exit codes: 5 for the kill, 0 for the resume).
echo "== soak: $CRASHES crash/resume pairs under the same chaos plan =="
for ((i = 0; i < CRASHES; ++i)); do
  s=$(( 1 + i * SEEDS / CRASHES ))
  scrub=$(( s % 2 == 0 ? 32 : 0 ))
  golden="$WORK/run-$s.json"
  events="$(python3 -c "
import json
print(json.load(open('$golden'))['events'])")"
  ckpt="$WORK/crash-$s.ckpt"
  rm -f "$ckpt" "$ckpt.prev" "$ckpt.tmp"
  set +e
  chaos "$s" "$scrub" --checkpoint="$ckpt" --checkpoint-every=500 \
      --crash-at-event="$((events / 2))" > /dev/null 2>&1
  crash_exit=$?
  set -e
  if [[ $crash_exit -ne 5 ]]; then
    echo "FAIL: seed $s kill at event $((events / 2)) exited $crash_exit, want 5" >&2
    exit 1
  fi
  chaos "$s" "$scrub" --checkpoint="$ckpt" --resume \
      --json="$WORK/resumed-$s.json" > /dev/null
  if ! cmp -s "$golden" "$WORK/resumed-$s.json"; then
    echo "FAIL: seed $s resume diverged from the uninterrupted chaos run" >&2
    diff <(head -c 400 "$golden") <(head -c 400 "$WORK/resumed-$s.json") >&2 || true
    exit 1
  fi
done
echo "   $CRASHES/$CRASHES crash/resume pairs byte-identical"

# Overload chaos soak: governed, capacity-capped uniform-churn runs
# under the same silent-corruption plan. The ungoverned twin must hit
# the ceiling (exit 6); every governed seed must survive its cap with
# at least one intervention and a clean partition verify; and a subset
# is killed mid-degradation and resumed, requiring byte-identity with
# the uninterrupted report.
OSEEDS="${ODBGC_SOAK_OVERLOAD_SEEDS:-10}"
OCRASHES="${ODBGC_SOAK_OVERLOAD_CRASHES:-4}"

capped() {  # seed extra args... (pass --governor yourself)
  local seed="$1"
  shift
  "$RUN" --workload=uniform-churn --cycles=4000 --lists=8 --length=16 \
      --policy=fixed --rate=1000000 --max-db-mb=1 \
      --seed="$seed" --fault-seed="$((2000 + seed))" \
      --bitflip-prob=0.01 --decay-prob=0.005 --decay-latency=32 \
      --scrub-interval=32 --scrub-pages=8 "$@"
}

echo "== soak: overload control (capped, ungoverned -> exit 6) =="
set +e
capped 1 > /dev/null 2>&1
control_exit=$?
set -e
if [[ $control_exit -ne 6 ]]; then
  echo "FAIL: capped ungoverned control exited $control_exit, want 6" >&2
  exit 1
fi

echo "== soak: $OSEEDS governed capped seeds under the chaos plan =="
for ((s = 1; s <= OSEEDS; ++s)); do
  if ! capped "$s" --governor --verify=partition \
      --json="$WORK/overload-$s.json" > /dev/null; then
    echo "FAIL: governed seed $s did not survive its capacity cap" >&2
    exit 1
  fi
done
python3 - "$WORK" "$OSEEDS" <<'EOF'
import json, sys
work, seeds = sys.argv[1], int(sys.argv[2])
boosts = emergencies = 0
for s in range(1, seeds + 1):
    o = json.load(open("%s/overload-%d.json" % (work, s)))["overload"]
    acted = o["governor_boost_collections"] + o["governor_emergency_collections"]
    assert acted > 0, "seed %d survived without intervening: %r" % (s, o)
    assert o["peak_utilization_pct"] < 100.0, "seed %d: %r" % (s, o)
    boosts += o["governor_boost_collections"]
    emergencies += o["governor_emergency_collections"]
print("   governed invariants OK over %d seeds: %d boosts, %d emergency "
      "collections, every peak under the ceiling" % (seeds, boosts, emergencies))
EOF

echo "== soak: $OCRASHES governed crash/resume pairs mid-degradation =="
for ((i = 0; i < OCRASHES; ++i)); do
  s=$(( 1 + i * OSEEDS / OCRASHES ))
  golden="$WORK/overload-$s.json"
  events="$(python3 -c "
import json
print(json.load(open('$golden'))['events'])")"
  ckpt="$WORK/overload-crash-$s.ckpt"
  rm -f "$ckpt" "$ckpt.prev" "$ckpt.tmp"
  set +e
  capped "$s" --governor --verify=partition --checkpoint="$ckpt" \
      --checkpoint-every=500 --crash-at-event="$((events / 2))" \
      > /dev/null 2>&1
  crash_exit=$?
  set -e
  if [[ $crash_exit -ne 5 ]]; then
    echo "FAIL: governed seed $s kill exited $crash_exit, want 5" >&2
    exit 1
  fi
  capped "$s" --governor --verify=partition --checkpoint="$ckpt" --resume \
      --json="$WORK/overload-resumed-$s.json" > /dev/null
  if ! cmp -s "$golden" "$WORK/overload-resumed-$s.json"; then
    echo "FAIL: governed seed $s resume diverged mid-degradation" >&2
    diff <(head -c 400 "$golden") \
        <(head -c 400 "$WORK/overload-resumed-$s.json") >&2 || true
    exit 1
  fi
done
echo "   $OCRASHES/$OCRASHES governed crash/resume pairs byte-identical"

echo "OK: chaos soak green ($SEEDS seeds + $CRASHES crash/resume pairs," \
    "every corruption detected and repaired; $OSEEDS governed capped" \
    "seeds + $OCRASHES mid-degradation resumes)"
