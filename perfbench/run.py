#!/usr/bin/env python3
"""Entry point of the odbgc end-to-end benchmark (see README.md).

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first call builds the harness
from source (perfbench/CMakeLists.txt, into .bench_build/perfbench);
later calls only check that the build is up to date. Build output goes
to stderr, so the harness's result stays the last line of stdout. At
the default seed and full size the output digest must equal the value
recorded in digests.txt.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DEFAULT_SEED = 1


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no odbgc sources under {ROOT}; run from a full source tree")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return BUILD / "perfbench"


def recorded_digest(workload):
    for line in (HERE / "digests.txt").read_text().splitlines():
        fields = line.split()
        if len(fields) == 2 and fields[0] == workload:
            return fields[1]
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["oo7_saga", "oo7_gc_heavy", "fleet"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: OO7 Tiny and a dozen fleet clients")
    parser.add_argument("--expect-digest",
                        help="override the recorded digest (hex)")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    expect = args.expect_digest
    if expect is None and args.size == "full" and args.seed == DEFAULT_SEED:
        expect = recorded_digest(args.workload)

    cmd = [str(build()), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--size={args.size}"]
    if expect:
        cmd.append(f"--expect-digest={expect}")
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
