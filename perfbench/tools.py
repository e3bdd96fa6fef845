"""Steadiness check and full report for the okacert benchmark.

    python3 perfbench/tools.py steady
    python3 perfbench/tools.py report

``steady`` makes two sets of runs of the same checkout, one run per seed
(1 to 10) in each set and workload, alternating which set runs first, and
prints the median, quartiles and spread (IQR / median) of every end-to-end
metric per workload and set, the ratio of the two medians, and the failed
share of each set, against the bounds in BENCHMARK.json. ``report`` runs
every workload once untraced and once traced, with seed 1, and prints every
end-to-end and per-layer metric by name, with the tracing overhead on pass
time.

Runs are made one at a time, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
RUNS = 10  # runs per set and workload in `steady`, with seeds 1..RUNS
REPORT_SEED = 1


def load_config():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload, seed, seconds, trace):
    """(result line, stderr summary, per-operation lines) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {workload} seed {seed} trace {trace}")
    summary = next(json.loads(line[len("summary "):]) for line in proc.stderr.splitlines()
                   if line.startswith("summary "))
    ops = [line for line in proc.stderr.splitlines() if line.startswith(("op ", "FAIL "))]
    return json.loads(proc.stdout.strip().splitlines()[-1]), summary, ops


def steady(config):
    workloads = [w["name"] for w in config["workloads"]]
    sets = {"A": {w: [] for w in workloads}, "B": {w: [] for w in workloads}}
    for seed in range(1, RUNS + 1):
        for w in workloads:
            for side in ("AB" if seed % 2 else "BA"):
                result, _, _ = run_once(w, seed, config["run_seconds"], 0)
                sets[side][w].append(result)
                print(f"# {side} {w} seed {seed}: "
                      + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items())
                      + f" failed={result['failed']}/{result['attempted']}", flush=True)
    print(f"{'workload':20s} {'metric':14s} {'set':3s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s}  B/A")
    for w in workloads:
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = {}
            for side in "AB":
                values = [r["metrics"][name]["value"] for r in sets[side][w]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                medians[side] = med
                ratio = "" if side == "A" else f"{medians['B'] / medians['A']:.3f}"
                print(f"{w:20s} {name:14s} {side:3s} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                      f"{(q3 - q1) / med:7.3f} {bound:6.2f}  {ratio}")
        for side in "AB":
            rs = sets[side][w]
            shares = sorted({r["failed"] / r["attempted"] for r in rs})
            print(f"{w:20s} failed share set {side}: {shares}; "
                  f"correct: {all(r['correct'] for r in rs)}")


def report(config):
    for w in [w["name"] for w in config["workloads"]]:
        plain, plain_summary, ops = run_once(w, REPORT_SEED, config["run_seconds"], 0)
        traced, traced_summary, _ = run_once(w, REPORT_SEED, config["run_seconds"], 1)
        print(f"== {w} (seed {REPORT_SEED}): attempted {plain['attempted']}, "
              f"failed {plain['failed']}, correct {plain['correct'] and traced['correct']}")
        for line in ops:
            print(f"  {line}")
        for name in ("pass_s", "op_geomean_s"):
            print(f"  {name + ' (raw wall time)':48s} {plain_summary[name]:14.6g} s")
        for name, m in list(plain["metrics"].items()) + list(traced["metrics"].items()):
            print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
        overhead = traced_summary["pass_s"] / plain_summary["pass_s"] - 1.0
        print(f"  tracing overhead on pass_s: {100 * overhead:+.1f} %")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("steady", help="two alternating sets of runs of this checkout")
    sub.add_parser("report", help="every metric of every workload, untraced and traced")
    args = ap.parse_args()
    config = load_config()
    if args.command == "steady":
        steady(config)
    else:
        report(config)


if __name__ == "__main__":
    main()
