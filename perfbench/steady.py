#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and report spread.

    python3 perfbench/steady.py [--workloads a,b] [--write-baseline FILE]

Runs perfbench/run.py 10 times per workload in each of two sets, each run
with its own seed (seeds 1-10, then 11-20).  For every end-to-end metric it
prints each set's median and interquartile spread (q3 - q1 over the median,
quartiles as statistics.quantiles(values, n=4) gives them), and the
agreement between the sets: how much worse the second median is than the
first, as a share of the first.  A metric passes when both spreads and the
disagreement stay within the bound BENCHMARK.json gives it.  --write-baseline records the medians and
quartiles.  Exits 1 if any run fails or any metric misses its bound.

Seed 97 is held out: do not use it while tuning a change; check the claim on
it afterwards.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2
FIRST_SEED = 1


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       check=False)
    if r.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {r.returncode}")
    return json.loads(r.stdout.rstrip("\n").split("\n")[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--write-baseline")
    args = ap.parse_args()

    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]
    ok = True
    baseline = {"run_seconds": seconds, "runs_per_set": RUNS,
                "sets": SETS, "host": platform.platform(),
                "quartiles": "statistics.quantiles(values, n=4)",
                "workloads": {}}
    for workload in args.workloads.split(","):
        sets = []
        for k in range(SETS):
            runs = []
            for i in range(RUNS):
                seed = FIRST_SEED + k * RUNS + i
                res = run_once(workload, seed, seconds)
                if not res["correct"] or res["failed"]:
                    print(f"{workload} seed {seed}: {res['failed']} of "
                          f"{res['attempted']} operations failed")
                    ok = False
                runs.append(res)
            sets.append(runs)
        print(f"\n{workload} ({SETS} x {RUNS} runs of {seconds} s)")
        print(f"  {'metric':18} {'median':>12} {'spread':>8} {'last':>12} "
              f"{'spread':>8} {'worse':>8} {'bound':>6}")
        rows = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = [spread([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            first, last = stats[0][1], stats[-1][1]
            worse = (last - first) / first if m["better"] == "lower" else (first - last) / first
            spread_ok = all(s[3] <= bound for s in stats)
            agree_ok = worse <= bound
            ok = ok and spread_ok and agree_ok
            print(f"  {name:18} {first:12.5g} {stats[0][3]:8.3f} {last:12.5g} "
                  f"{stats[-1][3]:8.3f} {worse:8.3f} {bound:6.2f}"
                  f"{'' if spread_ok and agree_ok else '  FAIL'}")
            rows[name] = {"unit": m["unit"], "median": first, "q1": stats[0][0],
                          "q3": stats[0][2], "spread": stats[0][3],
                          "last_set_median": last, "last_set_spread": stats[-1][3]}
        baseline["workloads"][workload] = rows
    if args.write_baseline:
        Path(args.write_baseline).write_text(json.dumps(baseline, indent=2) + "\n",
                                             encoding="utf-8")
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
