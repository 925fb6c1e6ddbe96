#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and flag regressions.

Compare a baseline run against a fresh one, for example the same
microbench filter run on the parent commit and on a change, on one
machine.  The default mode only *warns* on regressions past the
threshold, since runs from different machines drift; pass --strict to
turn warnings into a non-zero exit (useful when comparing runs from the
same machine).

A baseline whose `context.baseline_provenance` starts with PROVISIONAL
(a recording restamped to another core count, not a measurement) is
refused with exit 2.

Usage:
  tools/bench_compare.py --baseline OLD.json --current NEW.json \
      [--threshold 0.20] [--metric cpu_time] [--strict]

Exit codes: 0 = ok (or warnings in non-strict mode), 1 = regressions in
--strict mode, 2 = bad input (including a PROVISIONAL baseline).
"""

import argparse
import json
import sys


def load_benchmarks(path, metric, baseline=False):
    """Return {name: metric_value} for every non-aggregate benchmark entry."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    provenance = str(doc.get("context", {}).get("baseline_provenance", ""))
    if baseline and provenance.startswith("PROVISIONAL"):
        print(f"bench_compare: {path} is a PROVISIONAL restamp, not a measurement; "
              "refusing to compare against it", file=sys.stderr)
        sys.exit(2)
    out = {}
    for entry in doc.get("benchmarks", []):
        if entry.get("run_type", "iteration") == "aggregate":
            continue
        name = entry.get("name")
        value = entry.get(metric)
        if name is None or value is None:
            continue
        out[name] = float(value)
    if not out:
        print(f"bench_compare: no benchmark entries in {path}", file=sys.stderr)
        sys.exit(2)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", required=True, help="baseline JSON")
    parser.add_argument("--current", required=True, help="freshly produced JSON")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="relative slowdown that counts as a regression (default 0.20)")
    parser.add_argument("--metric", default="cpu_time",
                        help="benchmark field to compare (default cpu_time; real_time "
                             "is noisier on shared runners)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 on regressions instead of warning")
    args = parser.parse_args()

    baseline = load_benchmarks(args.baseline, args.metric, baseline=True)
    current = load_benchmarks(args.current, args.metric)

    regressions, improvements, skipped = [], [], []
    width = max(len(n) for n in sorted(set(baseline) | set(current)))
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  {'delta':>8}")
    for name in sorted(set(baseline) | set(current)):
        old, new = baseline.get(name), current.get(name)
        if old is None:
            print(f"{name:<{width}}  {'--':>12}  {new:>12.1f}  {'NEW':>8}")
            continue
        if new is None:
            # A baseline entry the candidate run did not produce (narrower
            # --benchmark_filter, bench compiled out, etc.) is skipped, not
            # an error: the baseline may legitimately be a superset.
            skipped.append(name)
            print(f"{name:<{width}}  {old:>12.1f}  {'--':>12}  {'SKIP':>8}")
            continue
        delta = (new - old) / old if old > 0 else 0.0
        marker = ""
        if delta > args.threshold:
            regressions.append((name, delta))
            marker = "  <-- REGRESSION"
        elif delta < -args.threshold:
            improvements.append((name, delta))
        print(f"{name:<{width}}  {old:>12.1f}  {new:>12.1f}  {delta:>+7.1%}{marker}")

    if skipped:
        print(f"\n{len(skipped)} baseline benchmark(s) absent from the candidate run "
              f"were skipped: {', '.join(skipped)}")
    if improvements:
        print(f"\n{len(improvements)} benchmark(s) improved by more than "
              f"{args.threshold:.0%}.")
    if regressions:
        print(f"\nWARNING: {len(regressions)} benchmark(s) regressed by more than "
              f"{args.threshold:.0%} ({args.metric}):", file=sys.stderr)
        for name, delta in regressions:
            print(f"  {name}: {delta:+.1%}", file=sys.stderr)
        if args.strict:
            return 1
        print("(non-strict mode: warning only — cross-machine baselines are "
              "expected to drift)", file=sys.stderr)
    else:
        print(f"\nAll matched benchmarks within {args.threshold:.0%} of baseline.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
