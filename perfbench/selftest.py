#!/usr/bin/env python3
"""Smoke self-test of the benchmark (about four minutes).

    python3 perfbench/selftest.py

1. A tiny run of every workload, untraced and traced: each exits 0 and its
   last line is a JSON object with exactly the keys correct, attempted,
   failed and metrics, holding every metric BENCHMARK.json lists for that
   mode with its unit. A traced run may leave a metric at 0 only when its
   layer is one the workload does not load.
2. Determinism: a second untraced run with the same seed must repeat every
   deterministic work counter exactly.
3. A directory holding only BENCHMARK.json and perfbench/ makes run.py
   exit non-zero without printing a result.
"""
import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (build_dir and the workload list)

SECONDS = "2"
# Layers (metric-name prefixes) each workload is chosen to load; a traced
# run must measure these itself rather than leave them at 0.
SERVE = ("gen.", "net.", "admission.", "persist.", "trace.share.admission",
         "trace.share.persist", "trace.share.server_other", "trace.share.wire",
         "trace.overhead_ratio")
LOADED = {
    "serve-light": SERVE + ("repl.",),
    "serve-paper": SERVE,
    "serve-large": SERVE,
    "offline-exact": ("query.", "analysis.", "trace.share.query",
                      "trace.overhead_ratio"),
}

failures = []


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def run_bench(workload, seed, trace, cwd=ROOT):
    p = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", SECONDS, "--trace", str(trace)],
                       cwd=cwd, capture_output=True, text=True, timeout=900)
    return p.returncode, p.stdout.splitlines(), p.stderr


def newest_record(workload, seed, trace):
    pattern = os.path.join(run.build_dir(), "perfbench", "results",
                           "%s-s%d-t%d-*.json" % (workload, seed, trace))
    with open(max(glob.glob(pattern), key=os.path.getmtime)) as f:
        return json.load(f)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, lines, err = run_bench(workload, 1, trace)
            check(rc == 0, "%s trace=%d exits 0 (%s)" % (workload, trace,
                                                        err.strip().splitlines()[-1:]))
            if rc != 0 or not lines:
                continue
            res = json.loads(lines[-1])
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  "%s trace=%d result has exactly the four keys" % (workload, trace))
            for m in bench[key]:
                got = res["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"],
                      "%s trace=%d prints %s [%s]" % (workload, trace, m["name"], m["unit"]))
            if trace:
                rec = newest_record(workload, 1, 1)
                unmeasured = [n for n in rec["not_exercised"]
                              if n.startswith(LOADED[workload])]
                check(not unmeasured, "%s measures every layer it loads %s"
                      % (workload, unmeasured))

        first = newest_record(workload, 1, 0)["counters"]
        rc, _, _ = run_bench(workload, 1, 0)
        second = newest_record(workload, 1, 0)["counters"]
        check(rc == 0 and first and first == second,
              "%s work counters repeat exactly for one seed (%d counters)"
              % (workload, len(first)))

    bare = os.path.join(run.build_dir(), "perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines, _ = run_bench("offline-exact", 1, 0, cwd=bare)
    check(rc != 0 and not (lines and lines[-1].startswith("{")),
          "bare directory: exits %d without a result" % rc)
    shutil.rmtree(bare, ignore_errors=True)

    print("\n%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
