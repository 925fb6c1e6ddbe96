#!/usr/bin/env python3
"""Check that the end-to-end benchmark repeats within its own bounds.

    python3 bench/e2e/repeat_check.py [--runs 10] [--seconds S] [--workload W ...]

For each workload, runs two sets of K runs of bench/e2e/run.py (seeds
1..K in each set), alternating which set runs first.  For every end-to-end
metric of BENCHMARK.json it prints each set's median and quartiles (as
statistics.quantiles(values, n=4) gives them) and says:

  spread  the first set's IQR as a share of its median, against the bound
          (setup_s is exempt; "ok" needs the spread within the bound, and
          "tight" below a third of it);
  agree   whether the second set's median is within the bound of the first.

Run from the repository root.  Exit code 0 only when every run was correct,
every spread is within its bound, and every pair of medians agrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "bench", "e2e", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        print(f"  {workload} seed {seed}: run failed (exit {proc.returncode})", file=sys.stderr)
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10, help="runs per set (K)")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append",
                        help="workload to check (repeatable; default all)")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    ok = True
    for workload in workloads:
        sets = ([], [])
        for i in range(args.runs):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for s in order:
                r = run_once(workload, i + 1, args.seconds)
                if r is None:
                    ok = False
                else:
                    sets[s].append(r)
        print(f"\n{workload}: {len(sets[0])} + {len(sets[1])} runs of {args.seconds} s")
        print(f"  {'metric':<14} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12}"
              f"  {'spread':>7} {'bound':>5}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = [r[name] for r in sets[0]]
            b = [r[name] for r in sets[1]]
            if len(a) < 2 or len(b) < 2:
                print(f"  {name:<14} too few runs")
                ok = False
                continue
            qa, qb = summary(a), summary(b)
            spread = (qa[2] - qa[0]) / qa[1]
            shift = (qb[1] - qa[1]) / qa[1]
            spread_ok = name == "setup_s" or spread <= bound
            agree = abs(shift) <= bound
            ok = ok and spread_ok and agree
            tight = "tight" if spread <= bound / 3 else ("ok" if spread_ok else "WIDE")
            if name == "setup_s":
                tight = "exempt"
            for label, q in (("A", qa), ("B", qb)):
                print(f"  {name:<14} {label:>3} {q[0]:>12.6g} {q[1]:>12.6g} {q[2]:>12.6g}", end="")
                if label == "A":
                    print(f"  {spread:>7.2%} {bound:>5.2f}  spread {tight}")
                else:
                    print(f"  {shift:>+7.2%} {bound:>5.2f}  "
                          f"medians {'agree' if agree else 'DISAGREE'}")
    print("\nrepeat_check: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
