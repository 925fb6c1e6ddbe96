#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (the command BENCHMARK.json names).

    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/e2e/run.py --smoke

Run from the repository root.  The first run configures and builds
bench_e2e from source (bench/e2e/CMakeLists.txt, Release) into
$CARGO_TARGET_DIR/e2e, default .bench_build/e2e; later runs only rebuild
what changed.  Build output goes to stderr.

One run executes one workload in one bench_e2e process and echoes its
`name value unit` lines.  A traced run (--trace 1) also writes the wall
trace next to the build and checks it with tools/check_trace.py, expecting
every layer span the workload records.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}, holding the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1).  The exit code is 0 only when every op passed.

--smoke runs all four workloads at a twentieth of the budget with every
correctness check on, in well under 15 s once built.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SOURCE = os.path.join(ROOT, "bench", "e2e")
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "e2e")
BINARY = os.path.join(BUILD, "bench_e2e")
WORKLOADS = ["switch-straggler", "topk-wide", "socket-wide", "policy-sweep"]

# Spans a traced run must leave in its trace: the replica's layer spans plus
# the program's own spans for the layers it exercises.
REPLICA_PS = ["bench.step", "data.batch", "nn.grad", "ps.pull", "ps.push"]
EXPECTED_SPANS = {
    "switch-straggler": REPLICA_PS
    + ["step", "drain_wait", "straggler_delay", "phase_start", "protocol_switch"],
    "topk-wide": REPLICA_PS + ["compress.encode", "step", "drain_wait"],
    "socket-wide": ["bench.step", "data.batch", "nn.grad", "net.pull", "net.push", "step",
                    "send Pull", "recv PullReply", "send PushDense", "recv PushReply"],
    "policy-sweep": ["core.sweep", "core.sim"],
}

BINARY_TIMEOUT_S = 150  # the whole run must end within 180 s


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} at {ROOT}: run from a full source tree")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_binary(args):
    """Run bench_e2e; return (exit code, parsed metrics, ops, ops_failed)."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench_e2e {' '.join(args)} did not finish within {BINARY_TIMEOUT_S} s")
    metrics, ops, ops_failed = {}, None, None
    for line in proc.stdout.splitlines():
        print(line)
        parts = line.split()
        if len(parts) == 2 and parts[0] == "ops":
            ops = int(parts[1])
        elif len(parts) == 2 and parts[0] == "ops_failed":
            ops_failed = int(parts[1])
        elif len(parts) == 3:
            metrics[parts[0]] = (float(parts[1]), parts[2])
    if ops is None or ops_failed is None:
        fail(f"bench_e2e {' '.join(args)} exited {proc.returncode} without a result")
    return proc.returncode, metrics, ops, ops_failed


def check_trace(path, workload):
    cmd = [sys.executable, os.path.join(ROOT, "tools", "check_trace.py"), path]
    for name in EXPECTED_SPANS[workload]:
        cmd += ["--expect", name]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def one_run(args):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    cmd = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    trace_path = os.path.join(BUILD, "traces", f"{args.workload}-{args.seed}.json")
    if args.trace:
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        cmd += ["--trace-out", trace_path]
    code, metrics, attempted, failed = run_binary(cmd)
    if args.trace:
        attempted += 1
        failed += 0 if check_trace(trace_path, args.workload) else 1
    out = {}
    for m in declared:
        got = metrics.get(m["name"])
        if got is None or got[1] != m["unit"]:
            fail(f"bench_e2e printed no {m['name']} in {m['unit']}")
        out[m["name"]] = {"value": got[0], "unit": m["unit"]}
    correct = code == 0 and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if correct else 1


def smoke():
    bad = []
    for w in WORKLOADS:
        print(f"== {w}")
        code, _, _, failed = run_binary(["--workload", w, "--seed", "1", "--smoke"])
        if code != 0 or failed:
            bad.append(w)
    print("smoke: " + ("FAILED " + " ".join(bad) if bad else "all workloads passed"))
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke")
    build()
    return smoke() if args.smoke else one_run(args)


if __name__ == "__main__":
    sys.exit(main())
