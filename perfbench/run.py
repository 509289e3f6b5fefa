#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  Builds the perfbench executable (and the
MERSIT libraries it links) from source into the build directory:
$CARGO_TARGET_DIR if set, else .bench_build.  Then runs the workload, checks
that its result line names only metrics BENCHMARK.json declares, adds their
units from there, and prints the workload's report with the result JSON as
the last line.  A traced run also writes its per-path rows to
<build dir>/traces/.  --selftest builds and runs the tracing self-test
instead.

Exits 1 without a result line if the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(out, target):
    """Configure once, then build incrementally; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", target, "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if r.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {r.returncode}")
    return out / target


def declared_metrics(trace):
    """BENCHMARK.json's metrics of one run kind, in order: [(name, unit)]."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def with_units(result, trace):
    """Attach BENCHMARK.json's units to the workload's {name: value} metrics.

    An unknown name or a missing end-to-end metric is a benchmark bug; a
    per-layer metric the workload does not exercise is reported as 0.
    """
    declared = declared_metrics(trace)
    got = result["metrics"]
    unknown = sorted(set(got) - {name for name, _ in declared})
    if unknown:
        fail(f"metrics not in BENCHMARK.json: {unknown}")
    missing = [name for name, _ in declared if name not in got]
    if missing and not trace:
        fail(f"end-to-end metrics not measured: {missing}")
    result["metrics"] = {name: {"value": got.get(name, 0.0), "unit": unit}
                         for name, unit in declared}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    out = build_dir() / "perfbench"
    if args.selftest:
        sys.exit(subprocess.run([str(build(out, "trace_selftest"))],
                                check=False).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")

    exe = build(out, "perfbench")
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if r.returncode != 0:
        fail(f"{args.workload} exited {r.returncode}")
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the workload printed no result line")
    result = with_units(result, args.trace == "1")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
