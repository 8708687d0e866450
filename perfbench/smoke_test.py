#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

  python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at tiny size (OO7 Tiny, a dozen
fleet clients), untraced and traced, through run.py. Checks that the
result line has the contract's shape, that every end-to-end metric
(untraced) and every per-layer metric (traced) is printed with the unit
BENCHMARK.json gives it, that no unit failed, and that a wrong expected
digest is reported as a failure with a non-zero exit code.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, extra=()):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "0.3",
           "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{cmd}: no output\n{proc.stderr[-2000:]}")
    return proc.returncode, json.loads(lines[-1])


def check_shape(result, metric_defs, where):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert isinstance(result["attempted"], int), where
    assert isinstance(result["failed"], int), where
    assert result["attempted"] >= 1, where
    expected = {m["name"]: m["unit"] for m in metric_defs}
    got = result["metrics"]
    assert set(got) == set(expected), f"{where}: {sorted(set(got) ^ set(expected))}"
    for name, unit in expected.items():
        assert set(got[name]) == {"value", "unit"}, f"{where}: {name}"
        assert got[name]["unit"] == unit, f"{where}: {name} unit"
        assert isinstance(got[name]["value"], (int, float)), f"{where}: {name}"


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, defs in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            where = f"{workload} trace={trace}"
            rc, result = run(workload, trace)
            check_shape(result, defs, where)
            assert rc == 0 and result["correct"], f"{where}: {result}"
            assert result["failed"] == 0, where
            value = {k: v["value"] for k, v in result["metrics"].items()}
            if trace == 0:
                for name in ("events_per_s", "setup_s", "peak_rss_mb"):
                    assert value[name] > 0, f"{where}: {name}"
            elif workload == "fleet":
                # The drain/apply split covers the traced Run() exactly.
                split = value["fleet.drain_route_ms"] + value["fleet.apply_barrier_ms"]
                assert abs(split - value["fleet.run_ms"]) <= 0.01 * value["fleet.run_ms"], where
                assert value["fleet.epochs"] > 0 and value["fleet.mux_kb"] > 0, where
            else:
                assert value["trace.events"] > 0 and value["sim.replay_ms"] > 0, where
                if workload == "oo7_gc_heavy":
                    assert value["core.estimator_overwrite_calls"] == 0, where
                else:
                    assert value["core.estimator_overwrite_calls"] > 0, where
            print(f"ok   {where}: {result['attempted']} units")

        where = f"{workload} wrong digest"
        rc, result = run(workload, 0, ("--expect-digest", "0123456789abcdef"))
        check_shape(result, SPEC["end_to_end"], where)
        assert rc != 0, where
        assert not result["correct"], where
        assert result["failed"] == result["attempted"], where
        print(f"ok   {where}: rejected, exit {rc}")


if __name__ == "__main__":
    main()
