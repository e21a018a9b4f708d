#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload tpcc --seed 1 --seconds 20 --trace 0

The program's core library and the facebench binary are built with CMake
into .bench_build/perfbench (Release). facebench's output is passed
through; its last line is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end metrics
of BENCHMARK.json, with --trace 1 the per-layer metrics, and the spans are
written to .bench_out/trace-<workload>-seed<seed>.json.

Exit codes: 0 = every output check passed; 1 = an output check failed (the
result line is printed with "correct": false); 2 = bad arguments or no
program sources beside this directory; 3 = the build failed; 4 = facebench
crashed, timed out or printed a malformed result.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "facebench")
WORKLOADS = ("tpcc", "ycsb-b-zipf", "crash-recovery")
# A run measures about --seconds plus set-up; anything near 3 minutes is hung.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def have_sources():
    return (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src")))


def build():
    """Configure (once) and build facebench; returns True on success.

    A lock file serializes concurrent runs in one checkout, so only one of
    them builds and the others find the binary up to date.
    """
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "facebench",
                      "-j", jobs])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-4000:])
                log(f"build step failed: {' '.join(cmd)}")
                return False
    return True


def declared_metrics(trace):
    """{name: unit} BENCHMARK.json declares for this mode (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"]: m["unit"]
            for m in doc["per_layer" if trace else "end_to_end"]}


def parse_result(line, trace):
    """facebench's result object, or an error string."""
    try:
        res = json.loads(line)
    except ValueError as e:
        return f"result line is not JSON: {e}"
    if not isinstance(res, dict) or set(res) != {
            "correct", "attempted", "failed", "metrics"}:
        return "result keys are not correct/attempted/failed/metrics"
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(res["failed"], int) or res["failed"] < 0:
        return "failed must be a whole number >= 0"
    want = declared_metrics(trace)
    got = {name: m.get("unit") for name, m in res["metrics"].items()}
    if want is not None and got != want:
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        return (f"metrics differ from BENCHMARK.json: missing "
                f"{sorted(set(want) - set(got))}, extra "
                f"{sorted(set(got) - set(want))}, unit mismatch {units}")
    return res


def check_trace_file(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return f"trace {path}: {e}"
    spans = [e for e in doc.get("traceEvents", []) if e.get("ph") == "X"]
    if not spans:
        return f"trace {path}: no complete spans"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    if not have_sources():
        log(f"no program sources (CMakeLists.txt, src/) under {ROOT}")
        return 2
    if not build():
        return 3

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    trace_path = None
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"facebench exceeded {RUN_TIMEOUT_S} s")
        return 4
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        log(f"facebench exited with code {proc.returncode}")
        return 4
    res = parse_result(lines[-1], args.trace)
    if isinstance(res, str):
        sys.stdout.write(proc.stdout)
        log(res)
        return 4
    if trace_path is not None:
        err = check_trace_file(trace_path)
        if err:
            log(err)
            return 4
    for line in lines[:-1]:
        print(line)
    ok = res["correct"] and res["failed"] == 0 and proc.returncode == 0
    print(json.dumps(res), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
