#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale (about a minute).

  python3 perfbench/selftest.py

Checks, on every workload, with facebench's --tiny sizes:
  1. an untraced and a traced run emit exactly the end-to-end and the
     per-layer metrics BENCHMARK.json declares, with their units, and each
     passes every output check;
  2. a second untraced run with the same seed repeats every simulated
     metric exactly;
  3. the traced run's span file is a Chrome trace that bench/check_trace.py
     accepts (when that checker is present);
and that a shadow version corrupted before the first differential check
makes crash-recovery fail (failed > 0, exit code 1). Any failure makes
the exit code 1.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark entry point: build, paths, checks)

SIMULATED = ("tpmc.face_gsc", "tpmc.lc", "hit_pct.face_gsc",
             "flash_write_kb_per_txn.face_gsc")
SECONDS = "1"
errors = []


def drive(workload, seed, trace_out=None, extra=()):
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--tiny", *extra]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
    last = proc.stdout.rstrip("\n").split("\n")[-1]
    return proc.returncode, run.parse_result(last, trace_out is not None)


def expect(cond, msg):
    print(("ok   " if cond else "FAIL ") + msg, flush=True)
    if not cond:
        errors.append(msg)


def expect_run(workload, kind, metrics, code, res):
    expect(isinstance(res, dict),
           f"{workload}: {kind} run emits every {metrics} metric"
           f"{'' if isinstance(res, dict) else ' (' + res + ')'}")
    expect(code == 0 and isinstance(res, dict) and res["failed"] == 0,
           f"{workload}: {kind} run passes every output check")


def main():
    if not run.build():
        print("build failed")
        return 1
    os.makedirs(run.OUT_DIR, exist_ok=True)
    checker = os.path.join(run.ROOT, "bench", "check_trace.py")
    for workload in run.WORKLOADS:
        code, first = drive(workload, 7)
        expect_run(workload, "untraced", "end-to-end", code, first)
        code, second = drive(workload, 7)
        if isinstance(first, dict) and isinstance(second, dict):
            diff = [m for m in SIMULATED
                    if first["metrics"][m]["value"] !=
                    second["metrics"][m]["value"]]
            expect(not diff, f"{workload}: simulated metrics repeat for a "
                   f"fixed seed (differ: {diff})")
        trace = os.path.join(run.OUT_DIR, f"selftest-{workload}.json")
        code, traced = drive(workload, 7, trace_out=trace)
        expect_run(workload, "traced", "per-layer", code, traced)
        if os.path.isfile(checker):
            proc = subprocess.run([sys.executable, checker, trace,
                                   "--min-components", "4"],
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            expect(proc.returncode == 0,
                   f"{workload}: check_trace.py accepts the trace "
                   f"({proc.stdout.strip()})")
    code, corrupt = drive("crash-recovery", 7, extra=["--corrupt-shadow"])
    expect(code == 1 and isinstance(corrupt, dict) and corrupt["failed"] > 0
           and not corrupt["correct"],
           "crash-recovery: a corrupted shadow version fails the run")

    print(f"\n{len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
