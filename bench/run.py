"""nestiq benchmark: time to a drug-model EIG, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload eig-deep-outer --seed 1 --seconds 20 --trace 0

Untraced (``--trace 0``) it repeats the workload with the same inputs until
``--seconds`` of iterations have passed and reports the median wall time of
one iteration (``wall_s``), the median of nine fresh-process set-ups spread
between the iterations (``setup_s``) and the process's peak resident memory
(``peak_rss_mib``).  Traced (``--trace 1``) it alternates untraced iterations
at one and at two threads for ``--seconds`` and at least three pairs, then
runs the workload once with every layer entry point wrapped in a span, and
reports the per-layer metrics of ``bench/layers.py``.

Every iteration is checked: the EIG must lie within 0.03 of the paper's
value, the pipeline's pilot constants and plan must be valid, and every
iteration of a run, traced or at two threads included, must reproduce the
first one's estimate bit for bit.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the full report (machine, per-iteration times and the
``repr`` of every estimate and stderr).

nestiq is imported from ``src/`` of the checkout this file sits in, never
from an installed copy; without it the script exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads  # stdlib only at import time; nestiq loads inside workloads.setup

# one thread everywhere; BLAS reads these only when numpy is first imported
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NESTIQ_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
THREAD_PAIRS = 3  # fewest one-/two-thread iteration pairs in a traced run


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def use_checkout_source():
    if not (SRC / "nestiq" / "__init__.py").is_file():
        print(f"error: no nestiq sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def setup_process(args, workdir, times, errors):
    """Times one fresh process's set-up into times, or its failure into errors."""
    i = len(times) + len(errors)
    cmd = [sys.executable, __file__, "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed)]
    sub = workdir / f"setup-{i}"
    sub.mkdir()
    try:
        proc = subprocess.run(cmd, cwd=sub, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        errors.append(f"set-up process {i} timed out")
        return
    try:
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    except (IndexError, ValueError):
        errors.append(f"set-up process {i} exited {proc.returncode}: {proc.stderr[-300:]}")


def iterate(ctx, reference, run=workloads.run):
    """One timed iteration plus its checks; reference is the first estimate's repr."""
    start = time.perf_counter()
    try:
        outcome = run(ctx)
        wall = time.perf_counter() - start
        problems = workloads.check(outcome)
    except Exception as exc:  # a failed iteration is recorded, not fatal
        wall = time.perf_counter() - start
        outcome, problems = {}, [f"{type(exc).__name__}: {exc}"]
    rec = {
        "wall_s": wall,
        "estimate": repr(outcome.get("estimate")),
        "stderr": repr(outcome.get("stderr")),
        "problems": problems,
    }
    if "plan" in outcome:
        rec["plan"] = {k: outcome["plan"][k] for k in ("n_star", "m_star", "kappa_star")}
    if reference is not None and rec["estimate"] != reference:
        problems.append(f"estimate {rec['estimate']} differs from first iteration {reference}")
    return rec


def untraced_loop(ctx, args, workdir):
    """Iterations for --seconds, with the set-up processes spread between them.

    Before each iteration the run catches up to its share of SETUP_REPEATS
    for the iteration time spent so far, so that set-up and iterations are
    measured over the same stretch of the machine's drifting speed.
    """
    records, times, errors = [], [], []
    spent, reference = 0.0, None
    while not records or spent < args.seconds:
        due = min(SETUP_REPEATS, max(1, math.ceil(SETUP_REPEATS * spent / args.seconds)))
        while len(times) + len(errors) < due:
            setup_process(args, workdir, times, errors)
        records.append(iterate(ctx, reference))
        reference = reference or records[0]["estimate"]
        spent += records[-1]["wall_s"]
    while len(times) + len(errors) < SETUP_REPEATS:
        setup_process(args, workdir, times, errors)
    return records, times, errors


def thread_pairs(ctx, seconds):
    """Alternating one- and two-thread iterations for --seconds, THREAD_PAIRS at least."""
    one, two, reference = [], [], None
    while len(one) < THREAD_PAIRS or sum(r["wall_s"] for r in one + two) < seconds:
        one.append(iterate(ctx, reference))
        reference = reference or one[0]["estimate"]
        two.append(two_thread_iteration(ctx, reference))
    return one, two


def traced_iteration(ctx, reference):
    """One iteration with every layer entry point wrapped; returns (record, tracer)."""
    import layers
    from tracer import Tracer

    tracer = Tracer()
    try:
        layers.install(tracer)
        rec = iterate(ctx, reference, run=lambda c: tracer.call(layers.ROOT, workloads.run, c))
    finally:
        stale = tracer.restore()
    if stale:
        rec["problems"].append(f"patched attributes not restored: {stale}")
    return rec, tracer


def two_thread_iteration(ctx, reference):
    os.environ["NESTIQ_THREADS"] = "2"
    try:
        return iterate(ctx, reference)
    finally:
        os.environ["NESTIQ_THREADS"] = "1"


def machine_info():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_ENV},
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    use_checkout_source()
    if args.setup_only:
        start = time.perf_counter()
        workloads.setup(args.workload, args.seed, os.getcwd())
        print(time.perf_counter() - start)
        return 0

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ctx = workloads.setup(args.workload, args.seed, str(workdir))
        report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "machine": machine_info()}
        setup_errors = []
        if args.trace:
            records, two = thread_pairs(ctx, args.seconds)
            wall = statistics.median(r["wall_s"] for r in records)
            two_wall = statistics.median(r["wall_s"] for r in two)
            traced, tracer = traced_iteration(ctx, records[0]["estimate"])
            records += two + [traced]
            import layers

            per_layer = layers.metrics(tracer, traced["wall_s"], wall, wall / two_wall)
            report["unmeasured"] = layers.unmeasured_metrics(tracer)
            report["unmeasured_entry_points"] = sorted(tracer.unmeasured)
            metrics = {k: metric(v, u) for k, (v, u) in sorted(per_layer.items())}
        else:
            records, setup_times, setup_errors = untraced_loop(ctx, args, workdir)
            wall = statistics.median(r["wall_s"] for r in records)
            metrics = {
                "wall_s": metric(wall, "s"),
                "setup_s": metric(statistics.median(setup_times) if setup_times else 0.0, "s"),
                "peak_rss_mib": metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            }
            report["setup_s"] = setup_times
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's directory
            WORK.rmdir()

    problems = setup_errors + [p for r in records for p in r["problems"]]
    attempted = len(records) + (0 if args.trace else SETUP_REPEATS)
    failed = sum(1 for r in records if r["problems"]) + len(setup_errors)
    report.update(iterations=records, attempted=attempted, failed=failed,
                  fail_frac=failed / attempted, problems=problems, metrics=metrics)

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(records)} iterations, "
          f"median {wall:.3f} s, fail_frac {failed / attempted:.3g}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    for p in problems:
        print(f"  FAIL: {p}")
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
