#!/usr/bin/env python3
"""Build and run the matcha benchmark (workloads and metrics: perfbench/NOTES.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which builds the matcha library from src/) with CMake into
$CARGO_TARGET_DIR (default .bench_build), runs the benchmark binary, echoes
its report, and prints as the last line one JSON object with the keys
correct, attempted, failed and metrics. The metrics are the end_to_end
metrics BENCHMARK.json lists, or with --trace 1 its per_layer metrics.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout kill the whole group
    (make and compiler children included), wait for it, and fail."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=max(1, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out: {' '.join(cmd)}")
    return proc.returncode, out


def build(build_dir):
    """Configure once, then (re)build the benchmark target. Output goes to
    stderr so the last line of stdout stays the result."""
    started = time.monotonic()
    # Compiler scratch files stay inside the build tree.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(max(1, len(os.sched_getaffinity(0))))])
    for cmd in steps:
        left = BUILD_TIMEOUT_S - (time.monotonic() - started)
        code, _ = run(cmd, left, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if code != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    code, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        print("\n".join(lines))
        fail(f"benchmark exited with code {code}")
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result line")

    source = raw["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = source.get(m["name"])
        if got is None:
            fail(f"metric {m['name']} missing from the benchmark output")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, expected {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
