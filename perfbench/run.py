#!/usr/bin/env python3
"""Runs one workload of the ppsc benchmark and prints its metrics.

    python3 perfbench/run.py --workload sim_census --seed 1 \
        --seconds 30 --trace 0

Builds perfbench/ (the library from the checkout's sources plus
perfbench/main.cpp) into .bench_build/perfbench on first use, runs the
workload, and checks every result against its known answer. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: BENCHMARK.json's end_to_end
metrics with --trace 0, its per_layer metrics with --trace 1. A traced
run also prints the workload's per-layer self-time table.

--out FILE additionally writes the full report, stamped with the
machine context, for perfbench/compare.py. README.md in this directory
documents the workloads and every metric.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# A run must end within 180 s; the measuring binary gets what the build
# check leaves.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"
LAYERS = ("core", "sim", "petri", "verify", "obs", "unaccounted")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no library sources beside perfbench/; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", BUILD_JOBS])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def git_rev():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return "none"
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "none"
    return lines[1]


def source_digest():
    """sha256 over the sources the benchmark builds, for checkouts
    without git metadata."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("include", "src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def context(report, args):
    """Machine and build context; compare.py refuses to compare reports
    whose contexts differ (git_rev and source_digest excepted)."""
    built = report["build"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": built["compiler"],
        "build_type": built["build_type"],
        "flags": built["flags"],
        "obs_compiled": built["obs_compiled"],
        "obs_state": ("metric registry on in traced repetitions"
                      if args.trace else "metric registry off"),
        "trace_spans": "off",
        "seconds": args.seconds,
        "git_rev": git_rev(),
        "source_digest": source_digest(),
    }


def quartiles(values):
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n // 4], ordered[n // 2], ordered[(3 * n) // 4]


def print_report(report, per_layer):
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"  operations {attempted}  failed {failed}  "
          f"error_rate {failed / attempted:.6g}")
    for name in ("wall", "setup"):
        samples = report[f"{name}_samples"]
        q1, q2, q3 = quartiles(samples)
        print(f"  {name}_s samples {len(samples)}  q1 {q1:.6g}  "
              f"median {q2:.6g}  q3 {q3:.6g}")
    for name, value in sorted(report["end_to_end"].items()):
        print(f"  {name:<12} {value:.6g}")
    if not report["trace"]:
        return
    wall = per_layer["traced_wall_s"]
    print("  per-layer self time (the traced repetition with the median "
          "traced wall)")
    print(f"    {'layer':<12} {'self_s':>12} {'share':>8}")
    for layer in LAYERS:
        self_s = per_layer[f"self.{layer}_s"]
        print(f"    {layer:<12} {self_s:>12.6f} {self_s / wall:>8.2%}")
    print(f"    {'traced wall':<12} {wall:>12.6f}")
    print(f"    obs.trace_overhead {per_layer['obs.trace_overhead']:+.2%}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", help="write the full report here")
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    build()
    try:
        proc = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"perfbench exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])

    # Metrics a workload's layers never touch read 0 (e.g. the census
    # counters on sim_boundary); a metric listed for no workload's
    # layer is caught by selftest.py.
    per_layer = {m["name"]: report["per_layer"].get(m["name"], 0.0)
                 for m in spec["per_layer"]}
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer if args.trace else report["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        fail("perfbench did not report " + ", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    result = {
        "correct": report["failed"] == 0 and report["attempted"] > 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }

    ctx = context(report, args)
    print_report(report, per_layer)
    print("context " + json.dumps(ctx, sort_keys=True))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"context": ctx, "report": report, "result": result},
                      f, indent=1, sort_keys=True)
            f.write("\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
