#!/usr/bin/env python3
"""Benchmark self-test: exact counts must repeat.

    python3 perfbench/selftest.py [--seed N] [--seconds S] [workload ...]

Runs each workload (default: all in BENCHMARK.json) traced twice at one
seed and requires the two runs to agree exactly on every count: all
registry counters except timers, sim.dispatch, sim.mean_steps and every
other count-valued per-layer metric (compare.py's exact half). It also
requires each run to be correct, and every per-layer metric in
BENCHMARK.json to be nonzero on at least one of the workloads run, so a
misspelt metric cannot read 0 everywhere unnoticed. Exits 1 on failure.
Reports go to .bench_build/selftest/.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
from compare import count_mismatches, load_spec  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "selftest")


def traced_run(workload, seed, seconds, index):
    path = os.path.join(OUT, f"{workload}.{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1", "--out", path]
    if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
        sys.exit(f"selftest: {' '.join(cmd)} failed")
    with open(path) as f:
        doc = json.load(f)
    doc["path"] = path
    return doc


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=1)
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    os.makedirs(OUT, exist_ok=True)

    failed = False
    seen_nonzero = set()
    for workload in args.workloads:
        a, b = (traced_run(workload, args.seed, args.seconds, i)
                for i in (1, 2))
        for doc in (a, b):
            if not doc["result"]["correct"]:
                failed = True
                print(f"{workload}: incorrect result in {doc['path']}")
            seen_nonzero |= {name for name, m in doc["result"]["metrics"]
                             .items() if m["value"] != 0}
        diff = count_mismatches(a, b, spec)
        failed |= bool(diff)
        print(f"{workload}: " + ("counts differ: " + ", ".join(diff)
                                 if diff else "counts identical"))
    if set(args.workloads) == {w["name"] for w in spec["workloads"]}:
        never = [m["name"] for m in spec["per_layer"]
                 if m["name"] not in seen_nonzero]
        if never:
            failed = True
            print("zero on every workload: " + ", ".join(never))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
