"""okacert benchmark: time to a checked certificate, per workload.

    python3 perfbench/run.py --workload certify-smooth --seed 1 --seconds 30 --trace 0

Runs whole passes over the workload's operations (workloads.py) for about
``--seconds`` seconds, checks every output with oracle.py, and prints one JSON
object as the last line of standard output: the end-to-end metrics with
``--trace 0``, the per-layer metrics (tracing.py) with ``--trace 1``. Failed
checks, per-operation median times and a summary go to standard error.
Exits non-zero without a result when okacert cannot be imported from the
checkout's ``src/``.
"""

from __future__ import annotations

import os

# One thread for BLAS and OpenMP, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 11
MIN_PASSES = 3

# Raw wall times (pass_s, op_geomean_s) go to standard error only: on a shared
# host they drift between runs by more than any bound a gate could use.
END_TO_END = (("setup_s", "s"), ("pass_norm", "ref"), ("op_geomean_norm", "ref"),
              ("peak_rss_mib", "MiB"))

# What the pointed-cone operations may fail on without making the run
# incorrect: the hyperplane_disjoint phase fault named in workloads.py.
KNOWN_FAULT_PROBLEMS = ("weak_projective: hyperplane-meets-set: the hyperplane misses",
                        "line_lift: lift-not-disjoint: the hyperplane misses")


def import_program():
    """okacert.cli from this checkout's src/, never from anywhere else."""
    package = os.path.join(SRC, "okacert")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"benchmark: no okacert sources under {SRC}")
    sys.path.insert(0, SRC)
    import okacert.cli
    if os.path.dirname(os.path.abspath(okacert.cli.__file__)) != package:
        raise SystemExit(f"benchmark: okacert imported from {okacert.cli.__file__}")
    return okacert.cli


def reference_kernel():
    """Fixed host-speed probe: a Python loop of small numpy products and solves.

    It does not touch okacert. Dividing an operation's time by the kernel
    times just before and after it removes most of the drift in how fast the
    shared host runs this process.
    """
    import numpy as np
    B = np.array([[2.0, 0.3, 0.1, 0.0], [0.3, 1.5, 0.2, 0.1],
                  [0.1, 0.2, 1.8, 0.3], [0.0, 0.1, 0.3, 1.2]])
    x = np.ones(4)
    acc = 0.0
    for i in range(700):
        v = B @ x
        x = v / float(np.linalg.norm(v)) + 0.01
        acc += math.sqrt(sum(float(t) * float(t) for t in x))
        if i % 10 == 0:
            x = np.linalg.solve(B, x)
    return acc


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def timed_kernel() -> float:
    t = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t


class Runner:
    """Writes a workload's inputs and runs its operations through the CLI."""

    def __init__(self, cli, ops, workdir):
        self.cli = cli
        self.ops = ops
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.inputs = []
        for i, op in enumerate(ops):
            path = None
            if op.spec is not None:
                path = os.path.join(workdir, f"input-{i}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(op.spec, fh)
            self.inputs.append(path)

    def output_path(self, i):
        return os.path.join(self.workdir, f"output-{i}")

    def argv(self, i):
        op, out = self.ops[i], self.output_path(i)
        if op.command == "certify":
            return ["certify", self.inputs[i], "--samples", workloads.SAMPLES, "--out", out]
        if op.command == "approx":
            return ["approx", self.inputs[i], *workloads.APPROX_ARGS, "--out", out]
        return ["basin", self.inputs[i] or "default", "--outdir", out]

    def clear_output(self, i):
        out = self.output_path(i)
        if os.path.isdir(out):
            shutil.rmtree(out)
        elif os.path.exists(out):
            os.remove(out)

    def run(self, i):
        """Exit code of operation i, or the text of the exception it raised."""
        try:
            return self.cli.main(self.argv(i))
        except Exception as exc:  # a crash is a failed operation; the run goes on
            return f"{type(exc).__name__}: {exc}"

    def read_output(self, i):
        """The output files' text, in a fixed order (a missing file gives '')."""
        out = self.output_path(i)
        paths = ([os.path.join(out, "basin_report.json"), os.path.join(out, "basin_grid.csv")]
                 if self.ops[i].command == "basin" else [out])
        texts = []
        for path in paths:
            try:
                with open(path, encoding="utf-8") as fh:
                    texts.append(fh.read())
            except FileNotFoundError:
                texts.append("")
        return texts


def check_output(op, texts, exit_code, seed):
    """Problems with one operation's output, or []."""
    import numpy as np
    import oracle  # imports SciPy, so only after peak RSS has been read
    if isinstance(exit_code, str):
        return [f"raised {exit_code}"]
    if not all(texts):
        return [f"exit code {exit_code} and no output"]
    rng = np.random.default_rng([seed, 7])
    if op.command == "certify":
        return oracle.check_certificate(op.spec, op.expect, texts[0], exit_code)
    if op.command == "basin":
        return oracle.check_basin(texts[0], texts[1], rng, exit_code)
    return oracle.check_approx(op.spec, texts[0], rng, exit_code)


def set_up(cli, workload, seed, workdir) -> Runner:
    """Inputs, spec files and warm-up: everything before the first timed operation."""
    runner = Runner(cli, workloads.build(workload, seed), workdir)
    warm = Runner(cli, workloads.warm_up_ops(workload), os.path.join(workdir, "warm"))
    for i in range(len(warm.ops)):
        warm.run(i)
    timed_kernel()
    return runner


def measure_setup(args) -> float:
    """Median over fresh processes of the time from launch to the end of set-up.

    Each process reports its own end time, because waiting on a process with a
    timeout polls in steps of up to 50 ms, which would round the times.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload",
                               args.workload, "--seed", str(args.seed),
                               "--setup-only", repr(time.time())],
                              check=True, capture_output=True, text=True, timeout=120)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def run_passes(runner, seconds, tracer):
    """Whole passes until the next one would end after ``seconds``.

    A kernel is timed before the first operation of a pass and after each
    operation, so every operation is bracketed by two kernel times.
    """
    n = len(runner.ops)
    op_times = [[] for _ in range(n)]
    op_norms = [[] for _ in range(n)]
    pass_times, pass_norms, pass_walls = [], [], []
    seen = {}  # (op index, output digest) -> (output texts, exit code)
    results = []  # (op index, output digest) of every operation attempted
    start = time.perf_counter()
    while True:
        wall = time.perf_counter()
        kernel, total, total_norm = [timed_kernel()], 0.0, 0.0
        for i in range(n):
            runner.clear_output(i)
            if tracer is not None:
                tracer.active = True
            t = time.perf_counter()
            code = runner.run(i)
            dt = time.perf_counter() - t
            if tracer is not None:
                tracer.active = False
            kernel.append(timed_kernel())
            norm = dt / (0.5 * (kernel[i] + kernel[i + 1]))
            op_times[i].append(dt)
            op_norms[i].append(norm)
            total += dt
            total_norm += norm
            texts = runner.read_output(i)
            key = (i, hashlib.sha256(repr((code, texts)).encode()).hexdigest())
            seen.setdefault(key, (texts, code))
            results.append(key)
        pass_times.append(total)
        pass_norms.append(total_norm)
        pass_walls.append(time.perf_counter() - wall)
        elapsed = time.perf_counter() - start
        if len(pass_times) >= MIN_PASSES and elapsed + statistics.median(pass_walls) > seconds:
            return op_times, op_norms, pass_times, pass_norms, seen, results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", type=float, metavar="LAUNCH_TIME",
                    help="set up, print the seconds since LAUNCH_TIME (a time.time() "
                         "value) and exit; used to time set-up in a fresh process")
    args = ap.parse_args(argv)
    cli = import_program()
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    try:
        if args.setup_only is not None:
            set_up(cli, args.workload, args.seed, workdir)
            print(time.time() - args.setup_only)
            return 0
        setup_s = measure_setup(args)
        runner = set_up(cli, args.workload, args.seed, workdir)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        op_times, op_norms, pass_times, pass_norms, seen, results = run_passes(
            runner, args.seconds, tracer)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # identical outputs need one check; every attempt is counted below
        problems = {key: check_output(runner.ops[key[0]], texts, code, args.seed)
                    for key, (texts, code) in seen.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(OUT)
        except OSError:
            pass

    failed = sum(1 for key in results if problems[key])
    correct = all(
        runner.ops[i].known_fault and all(p.startswith(KNOWN_FAULT_PROBLEMS) for p in probs)
        for (i, _), probs in problems.items() if probs)
    op_medians = [statistics.median(t) for t in op_times]
    pass_s = statistics.median(pass_times)
    op_geomean_s = geomean(op_medians)
    for (i, _), probs in problems.items():
        for p in probs[:3]:
            print(f"FAIL {runner.ops[i].name}: {p}", file=sys.stderr)
    for op, med in zip(runner.ops, op_medians):
        print(f"op {op.name:28s} median {med:8.4f} s", file=sys.stderr)
    summary = {"passes": len(pass_times), "pass_s": pass_s, "op_geomean_s": op_geomean_s,
               "pass_times": pass_times, "setup_s": setup_s}
    print("summary " + json.dumps(summary), file=sys.stderr)

    if args.trace:
        metrics = tracer.metrics(len(pass_times))
    else:
        values = {
            "setup_s": setup_s,
            "pass_norm": statistics.median(pass_norms),
            "op_geomean_norm": geomean([statistics.median(t) for t in op_norms]),
            "peak_rss_mib": peak_rss_mib,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
