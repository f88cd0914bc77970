#!/usr/bin/env python3
"""Run one workload of the edfkit benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (the library, the real
admission_server and the driver) from source on first use, into
$CARGO_TARGET_DIR (default .bench_build), runs the driver, checks its
metrics against BENCHMARK.json, stores the full record with a host
fingerprint under <build dir>/results/, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints every end_to_end metric; --trace 1 every per_layer metric
(a layer the workload does no work in reads 0). Exit status: 0 = correct,
1 = a correctness mismatch, 2 = the run could not be carried out.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-light", "serve-paper", "serve-large", "offline-exact")
BUILD_TYPE = "Release"
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base) if not os.path.isabs(base) else base


def build(out_dir):
    """Configure once, then let the build tool bring binaries up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "net", "server.hpp")) or \
            not os.path.isfile(os.path.join(ROOT, "examples", "admission_server.cpp")):
        fail("edfkit sources (src/, examples/admission_server.cpp) not found "
             "next to perfbench/")
    cmake_dir = os.path.join(out_dir, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", cmake_dir,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return cmake_dir


def source_digest():
    """The commit when the checkout is a git repository, else a digest of
    every source file the benchmark builds."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "examples", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def host_fingerprint(cmake_dir):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = "unknown"
    try:
        with open(os.path.join(cmake_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
                    out = subprocess.run([cxx, "--version"], capture_output=True,
                                         text=True, timeout=10)
                    compiler = out.stdout.splitlines()[0] if out.stdout else cxx
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {"cpu_model": cpu, "nproc": os.cpu_count(), "compiler": compiler,
            "build_type": BUILD_TYPE}


def run_driver(cmd):
    """Run the driver in its own process group, so a timeout also stops the
    servers it started."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(bench_path) as f:
        bench = json.load(f)
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    out_dir = os.path.join(build_dir(), "perfbench")
    cmake_dir = build(out_dir)
    tag = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    # One run's scratch (data dirs, logs, spans) at a time: a traced run's
    # spans can reach 100 MB, and deleting them here also drops whatever
    # of them the kernel has not yet written back before this run's timing.
    shutil.rmtree(os.path.join(out_dir, "runs"), ignore_errors=True)
    workdir = os.path.join(out_dir, "runs", tag)
    os.makedirs(workdir)
    detail_path = os.path.join(workdir, "detail.json")

    rc, out = run_driver([
        os.path.join(cmake_dir, "perfbench_driver"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--server", os.path.join(cmake_dir, "admission_server"),
        "--workdir", workdir, "--detail", detail_path])
    lines = out.splitlines()
    if rc not in (0, 1) or not lines:
        fail("driver failed (exit %d)" % rc)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    # Every listed metric, with its listed unit, and nothing else.
    got = result["metrics"]
    not_exercised = []
    for m in wanted:
        if m["name"] not in got:
            if not args.trace:
                fail("driver did not report end-to-end metric " + m["name"])
            got[m["name"]] = {"value": 0, "unit": m["unit"]}
            not_exercised.append(m["name"])
        elif got[m["name"]]["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], got[m["name"]]["unit"], m["unit"]))
    extra = sorted(set(got) - {m["name"] for m in wanted})
    if extra:
        fail("driver reported metrics BENCHMARK.json does not list: "
             + ", ".join(extra))
    result["metrics"] = {m["name"]: got[m["name"]] for m in wanted}

    fingerprint = {"host": host_fingerprint(cmake_dir), "commit": source_digest(),
                   "seed": args.seed}
    try:
        with open(detail_path) as f:
            detail = json.load(f)
    except (OSError, ValueError):
        detail = {}
    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "fingerprint": fingerprint,
              "valid": detail.get("valid", True),
              "invalid_reason": detail.get("invalid_reason", ""),
              "counters": detail.get("counters", {}),
              "mismatches": detail.get("mismatches", []),
              "not_exercised": not_exercised, "result": result}
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-%d.json" % (tag, time.time_ns())), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    if not record["valid"]:
        print("run invalid: " + record["invalid_reason"])
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and rc == 0 else 1)


if __name__ == "__main__":
    main()
