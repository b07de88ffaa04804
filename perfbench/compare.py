#!/usr/bin/env python3
"""Compares two sets of benchmark reports written by `run.py --out`.

    python3 perfbench/compare.py --base a1.json a2.json --new b1.json b2.json

Refuses the comparison (exit 2) when the reports' machine contexts
differ: nproc, compiler, build type, flags, obs build and state, span
tracing, or window length. Only git_rev and source_digest may differ,
since they name the code under comparison.

Then, per workload:
  * end-to-end metrics (plain reports): the median of the new set may
    be worse than the median of the base set by at most the metric's
    bound in BENCHMARK.json;
  * counts (traced reports): every per-layer metric whose unit is a
    count (count, id, steps, ratio) and every registry counter except
    timers (*.wall_ns) must be equal between reports of one workload
    and seed.

A workload with plain reports in one set only, or a traced report
whose workload and seed have no traced report in the other set, is a
missing counterpart and fails the comparison.

Exits 1 on a regression, a count mismatch or a missing counterpart,
0 otherwise.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CONTEXT_KEYS = ("nproc", "compiler", "build_type", "flags", "obs_compiled",
                "obs_state", "trace_spans", "seconds")
EXACT_UNITS = ("count", "id", "steps", "ratio")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load(paths):
    reports = []
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        doc["path"] = path
        reports.append(doc)
    return reports


def context_conflicts(reports):
    """Context fields on which reports of one trace mode disagree."""
    conflicts = []
    for trace in (0, 1):
        group = [r for r in reports if r["report"]["trace"] == trace]
        for key in CONTEXT_KEYS:
            values = {json.dumps(r["context"][key]) for r in group}
            if len(values) > 1:
                conflicts.append(f"{key} (trace {trace}): "
                                 + " vs ".join(sorted(values)))
    return conflicts


def exact_counts(report, spec):
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    counts = {name: value for name, value in report["per_layer"].items()
              if units.get(name) in EXACT_UNITS}
    for name, value in report["counters"].items():
        if not name.endswith(".wall_ns"):
            counts["counter " + name] = value
    return counts


def count_mismatches(a, b, spec):
    """Names whose exact counts differ between two traced reports."""
    ca, cb = exact_counts(a["report"], spec), exact_counts(b["report"], spec)
    return sorted(name for name in set(ca) | set(cb)
                  if ca.get(name) != cb.get(name))


def plain_reports(reports, workload):
    return [r["report"] for r in reports
            if r["report"]["workload"] == workload
            and r["report"]["trace"] == 0]


def traced_keys(reports):
    """(workload, seed) of every traced report."""
    return {(r["report"]["workload"], r["report"]["seed"])
            for r in reports if r["report"]["trace"] == 1}


def worse_by(base, new, better):
    """Relative worsening of `new` against `base` (negative = better)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    spec = load_spec()
    base, new = load(args.base), load(args.new)

    conflicts = context_conflicts(base + new)
    if conflicts:
        print("refused: machine contexts differ")
        for line in conflicts:
            print("  " + line)
        sys.exit(2)

    failed = False
    print(f"| workload | metric | base median | new median | worse by "
          f"| bound | verdict |")
    print("|---|---|---|---|---|---|---|")
    missing = []
    for workload in sorted({r["report"]["workload"] for r in base + new}):
        pb, pn = plain_reports(base, workload), plain_reports(new, workload)
        if not pb or not pn:
            if pb or pn:
                side = "new" if pb else "base"
                missing.append(f"{workload}: no plain report in the "
                               f"{side} set")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            mb = statistics.median(r["end_to_end"][name] for r in pb)
            mn = statistics.median(r["end_to_end"][name] for r in pn)
            worse = worse_by(mb, mn, metric["better"])
            ok = worse <= metric["bound"]
            failed |= not ok
            print(f"| {workload} | {name} | {mb:.6g} | {mn:.6g} | "
                  f"{worse:+.2%} | {metric['bound']:.0%} | "
                  f"{'ok' if ok else 'REGRESSION'} |")

    tb, tn = traced_keys(base), traced_keys(new)
    for workload, seed in sorted(tb ^ tn):
        side = "new" if (workload, seed) in tb else "base"
        missing.append(f"{workload} seed {seed}: no traced report in the "
                       f"{side} set")
    for line in missing:
        failed = True
        print("missing counterpart: " + line)

    traced = [r for r in base + new if r["report"]["trace"] == 1]
    for i, a in enumerate(traced):
        for b in traced[i + 1:]:
            if (a["report"]["workload"], a["report"]["seed"]) != \
                    (b["report"]["workload"], b["report"]["seed"]):
                continue
            diff = count_mismatches(a, b, spec)
            if diff:
                failed = True
                print(f"count mismatch {a['path']} vs {b['path']}: "
                      + ", ".join(diff))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
