#!/usr/bin/env python3
"""Run, summarize and compare sets of benchmark runs.

  # N runs per workload (seeds 1..N), each result line saved under DIR
  python3 perfbench/runset.py run DIR --runs 10 [--workload W ...]
        [--trace 0|1] [--first-seed 1] [--seconds S]

  # per (workload, metric): n, median, quartiles, spread = IQR / median,
  # checked against the metric's bound; plus the tracing overhead when DIR
  # holds traced and untraced runs of a workload
  python3 perfbench/runset.py summarize DIR

  # parent set A against change set B, per (workload, end-to-end metric)
  python3 perfbench/runset.py compare A B

Quartiles are Python's statistics.quantiles(values, n=4). A metric whose
spread exceeds its bound in either set is reported as unresolved, not as
unchanged, unless every run of B is better than every run of A. Bounds,
units and directions come from BENCHMARK.json at the checkout root.

A run that crashes, times out or fails to build is saved as a result with
"correct": false, one failed attempt, no metrics and its exit code. compare
reports a workload as FAILED, and exits 1, when B has fewer runs than A,
more incorrect runs, or more failed attempts.
"""
import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def result_file(directory, workload, seed, trace):
    return os.path.join(directory, f"{workload}-seed{seed}-trace{trace}.json")


# One run builds at most once and measures for at most 180 s.
RUN_TIMEOUT_S = 1200


def cmd_run(args, spec):
    os.makedirs(args.dir, exist_ok=True)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    failures = 0
    for workload in workloads:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            try:
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                      timeout=RUN_TIMEOUT_S)
                code, out = proc.returncode, proc.stdout
            except subprocess.TimeoutExpired:
                code, out = "timeout", ""
            status = "ok" if code == 0 else f"exit {code}"
            print(f"{workload} seed={seed} trace={args.trace}: {status}",
                  flush=True)
            if code in (0, 1):
                line = out.rstrip("\n").split("\n")[-1]
            else:
                line = json.dumps({"correct": False, "attempted": 1,
                                   "failed": 1, "metrics": {}, "exit": code})
            failures += code != 0
            with open(result_file(args.dir, workload, seed, args.trace), "w",
                      encoding="utf-8") as f:
                f.write(line + "\n")
    return 1 if failures else 0


def load_runs(directory):
    """{(workload, trace): [result, ...]} from a run directory."""
    runs = {}
    pattern = os.path.join(directory, "*-seed*-trace*.json")
    for path in sorted(glob.glob(pattern)):
        base = os.path.basename(path)[:-len(".json")]
        workload, rest = base.rsplit("-seed", 1)
        trace = int(rest.rsplit("-trace", 1)[1])
        with open(path, encoding="utf-8") as f:
            runs.setdefault((workload, trace), []).append(json.load(f))
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def metric_specs(spec):
    out = {}
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            out[m["name"]] = dict(m, kind=kind)
    return out


def cmd_summarize(args, spec):
    specs = metric_specs(spec)
    runs = load_runs(args.dir)
    if not runs:
        print(f"no runs under {args.dir}")
        return 1
    bad = 0
    for (workload, trace), results in sorted(runs.items()):
        failed = sum(r["failed"] for r in results)
        incorrect = sum(not r["correct"] for r in results)
        print(f"\n{workload} (trace={trace}, {len(results)} runs, "
              f"{incorrect} incorrect, {failed} failed attempts)")
        print(f"  {'metric':36} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        names = sorted({n for r in results for n in r["metrics"]})
        for name in names:
            values = [r["metrics"][name]["value"] for r in results
                      if name in r["metrics"]]
            q1, med, q3 = quartiles(values)
            bound = specs.get(name, {}).get("bound")
            sp = spread(values) if med else 0.0
            flag = ""
            if bound is not None and sp > bound:
                flag = "  SPREAD > BOUND (unresolved)"
                bad += 1
            elif bound is not None and sp > bound / 3:
                flag = "  spread > bound/3"
            print(f"  {name:36} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{sp:8.4f} {bound if bound is not None else '':>6}{flag}")
        if failed or incorrect:
            bad += 1
    # Tracing overhead: traced minus untraced host throughput.
    for (workload, trace), results in sorted(runs.items()):
        if trace != 1 or (workload, 0) not in runs:
            continue
        traced = [r["metrics"]["bench.traced_txns_per_host_s"]["value"]
                  for r in results if r["metrics"]]
        untraced = [r["metrics"]["sim_txns_per_host_s"]["value"]
                    for r in runs[(workload, 0)] if r["metrics"]]
        if not traced or not untraced:
            continue
        traced = statistics.median(traced)
        untraced = statistics.median(untraced)
        print(f"\ntracing overhead on {workload}: traced - untraced "
              f"sim_txns_per_host_s = {traced - untraced:.6g} 1/s "
              f"({100 * (traced - untraced) / untraced:+.2f}%)")
    return 1 if bad else 0


def cmd_compare(args, spec):
    specs = metric_specs(spec)
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)
    verdicts = {}
    for key in sorted(set(a_runs) | set(b_runs)):
        workload, trace = key
        if trace != 0:
            continue
        a_res, b_res = a_runs.get(key, []), b_runs.get(key, [])
        tally = {name: (len(res), sum(not r["correct"] for r in res),
                        sum(r["failed"] for r in res))
                 for name, res in (("A", a_res), ("B", b_res))}
        print(f"\n{workload}: " + ", ".join(
            f"{name}={n} runs ({bad} incorrect, {failed} failed attempts)"
            for name, (n, bad, failed) in tally.items()))
        (na, bad_a, failed_a), (nb, bad_b, failed_b) = tally["A"], tally["B"]
        if nb < na or bad_b > bad_a or failed_b > failed_a:
            print("  FAILED: B has fewer runs, more incorrect runs or more "
                  "failed attempts than A")
            verdicts["FAILED"] = verdicts.get("FAILED", 0) + 1
        if not a_res or not b_res:
            continue
        print(f"  {'metric':36} {'median A':>14} {'median B':>14} "
              f"{'worse by':>9} {'bound':>6}  verdict")
        for name, m in specs.items():
            if m["kind"] != "end_to_end":
                continue
            a = [r["metrics"][name]["value"] for r in a_res
                 if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in b_res
                 if name in r["metrics"]]
            if not a or not b:
                continue
            lower = m["better"] == "lower"
            ma, mb = statistics.median(a), statistics.median(b)
            worse = ((mb - ma) if lower else (ma - mb)) / abs(ma) if ma else 0.0
            all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
            noisy = spread(a) > m["bound"] or spread(b) > m["bound"]
            if worse > m["bound"]:
                verdict = "REGRESSED"
            elif noisy and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
            print(f"  {name:36} {ma:14.6g} {mb:14.6g} {worse:+9.4f} "
                  f"{m['bound']:6.3f}  {verdict}")
    print("\n" + ", ".join(f"{k}: {v}" for k, v in sorted(verdicts.items())))
    return 1 if verdicts.get("REGRESSED") or verdicts.get("FAILED") else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("dir")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int)
    p = sub.add_parser("summarize")
    p.add_argument("dir")
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    args = ap.parse_args()
    spec = load_spec()
    return {"run": cmd_run, "summarize": cmd_summarize,
            "compare": cmd_compare}[args.cmd](args, spec)


if __name__ == "__main__":
    sys.exit(main())
