#!/usr/bin/env python3
"""Compare two sets of benchmark results (run.py records).

    python3 perfbench/compare.py --base DIR_OR_FILE... --new DIR_OR_FILE...

Each argument is a result record written by run.py (under
<build dir>/perfbench/results/) or a directory of them. Only untraced runs
are compared. Refuses, with exit status 3, to compare records whose host
fingerprints (CPU model, nproc, compiler, build type) differ, and any
record marked invalid (the load generator fell behind) or incorrect.

For every workload and end-to-end metric it prints each side's median and
quartiles, the change of the medians, and the base side's spread
(interquartile range / median). A change worse than the metric's bound in
BENCHMARK.json is a regression (exit status 1); where the base spread
exceeds the bound the metric is reported as unresolved.
"""
import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths):
    files = []
    for p in paths:
        files += sorted(glob.glob(os.path.join(p, "*.json"))) if os.path.isdir(p) else [p]
    records = []
    for f in files:
        with open(f) as fh:
            r = json.load(fh)
        if r.get("trace") == 0:
            r["_path"] = f
            records.append(r)
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    base, new = load(args.base), load(args.new)
    if not base or not new:
        print("compare: no untraced result records on one side", file=sys.stderr)
        return 3
    hosts = {json.dumps(r["fingerprint"]["host"], sort_keys=True) for r in base + new}
    if len(hosts) != 1:
        print("compare: refusing, host fingerprints differ:\n  " + "\n  ".join(sorted(hosts)),
              file=sys.stderr)
        return 3
    for r in base + new:
        if not r.get("valid", True) or not r["result"]["correct"]:
            print("compare: refusing, %s is invalid or incorrect" % r["_path"], file=sys.stderr)
            return 3

    regressions = 0
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        b = [r for r in base if r["workload"] == workload]
        n = [r for r in new if r["workload"] == workload]
        print("%s  (base %d runs, new %d runs)" % (workload, len(b), len(n)))
        for m in metrics:
            bv = [r["result"]["metrics"][m["name"]]["value"] for r in b]
            nv = [r["result"]["metrics"][m["name"]]["value"] for r in n]
            bq1, bmed, bq3 = quartiles(bv)
            nq1, nmed, nq3 = quartiles(nv)
            change = (nmed - bmed) / bmed if bmed else 0.0
            worse = change if m["better"] == "lower" else -change
            spread = (bq3 - bq1) / bmed if bmed else 0.0
            verdict = "ok"
            if worse > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif spread > m["bound"]:
                verdict = "unresolved"
            print("  %-13s %-6s base %.6g [%.6g, %.6g]  new %.6g [%.6g, %.6g]  "
                  "change %+.1f%%  spread %.1f%%  bound %.0f%%  %s"
                  % (m["name"], m["unit"], bmed, bq1, bq3, nmed, nq1, nq3,
                     100 * change, 100 * spread, 100 * m["bound"], verdict))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
