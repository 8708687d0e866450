#!/usr/bin/env bash
# Interleaved A/B of one perfbench workload: the working tree against a
# git ref.
#
#   tools/bench_ab.sh <ref> <workload> [pairs] [seconds] [seed]
#
# <ref>'s files are extracted with `git archive` into a temporary
# directory, removed on exit, so the run leaves no worktree or other
# state in .git. Each tree's perfbench/run.py builds its own harness
# (into that tree's .bench_build/), then the script runs `pairs`
# alternating pairs (default 10) of `seconds`-long runs (default:
# BENCHMARK.json's run_seconds), flipping the order each pair so neither
# side always runs first. For every end-to-end metric in BENCHMARK.json
# it prints each side's median and quartiles, the median ratio (tree /
# ref), and how many pairs the tree won. A run whose result line says
# correct: false is flagged and makes the script exit 1. At seed 1 (the
# default) run.py checks every run's output against
# perfbench/digests.txt.
#
# Example: tools/bench_ab.sh HEAD~1 fleet 10 30
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 5 ]; then
  echo "usage: $0 <ref> <workload> [pairs] [seconds] [seed]" >&2
  exit 2
fi
ref="$1"
workload="$2"
root="$(cd "$(dirname "$0")/.." && pwd)"
pairs="${3:-10}"
seconds="${4:-$(python3 -c "import json, sys
print(json.load(open(sys.argv[1]))['run_seconds'])" "$root/BENCHMARK.json")}"
seed="${5:-1}"

tmp="$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git -C "$root" archive "$ref" | tar -x -C "$tmp/ref"

# run <tree> <seconds> [run.py args...]: prints the result line.
run() {
  local tree="$1" secs="$2"
  shift 2
  (cd "$tree" && python3 perfbench/run.py --workload "$workload" \
      --seed "$seed" --seconds "$secs" "$@" | tail -n 1)
}

echo "A/B $workload: tree $root vs $ref ($(git -C "$root" rev-parse \
--short "$ref")), $pairs pairs x ${seconds}s, seed $seed" >&2
for tree in "$tmp/ref" "$root"; do
  echo "building $tree" >&2
  run "$tree" 0.2 --size tiny > /dev/null
done

for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then order="ref tree"; else order="tree ref"; fi
  for side in $order; do
    if [ "$side" = ref ]; then tree="$tmp/ref"; else tree="$root"; fi
    line="$(run "$tree" "$seconds" 2>/dev/null || true)"
    echo "$line" > "$tmp/$side.$i.json"
    echo "pair $((i + 1))/$pairs $side: $line" >&2
  done
done

python3 - "$root/BENCHMARK.json" "$tmp" "$pairs" <<'EOF'
import json, statistics, sys

bench, tmp, pairs = json.load(open(sys.argv[1])), sys.argv[2], int(sys.argv[3])


def load(side, i):
    try:
        return json.load(open(f"{tmp}/{side}.{i}.json"))
    except ValueError:
        return None


runs = {s: [load(s, i) for i in range(pairs)] for s in ("ref", "tree")}
bad = 0
for side, results in runs.items():
    for i, r in enumerate(results):
        if r is None or not r.get("correct") or r.get("failed", 0):
            print(f"FLAG: {side} run of pair {i + 1} is not correct: {r}")
            bad += 1


def quartiles(v):
    q = statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 \
        else v * 3
    return q[0], statistics.median(v), q[2]


print(f"{'metric':14} {'ref q1':>12} {'ref med':>12} {'ref q3':>12} "
      f"{'tree q1':>12} {'tree med':>12} {'tree q3':>12} {'ratio':>7} "
      f"{'wins':>6}")
for m in bench["end_to_end"]:
    name, higher = m["name"], m["better"] == "higher"
    pair = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
            for a, b in zip(runs["ref"], runs["tree"])
            if a is not None and b is not None]
    if not pair:
        continue
    ref, tree = [p[0] for p in pair], [p[1] for p in pair]
    wins = sum((t > r) if higher else (t < r) for r, t in pair)
    rq, tq = quartiles(ref), quartiles(tree)
    ratio = tq[1] / rq[1] if rq[1] else float("nan")
    print(f"{name:14} {rq[0]:12.6g} {rq[1]:12.6g} {rq[2]:12.6g} "
          f"{tq[0]:12.6g} {tq[1]:12.6g} {tq[2]:12.6g} {ratio:7.3f} "
          f"{wins:>3}/{len(pair)}")
sys.exit(1 if bad else 0)
EOF
