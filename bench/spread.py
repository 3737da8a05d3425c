"""Run the benchmark over several seeds and report each metric's spread.

From the repository root:

    python3 bench/spread.py --workload eig-deep-outer --seeds 1-10

For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile spread as
a share of the median, next to the bound in BENCHMARK.json.  The runs are
made one after another, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    ok = True
    for workload in args.workload:
        values, failed = {}, 0
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()
                if k in bounds and bounds[k] is not None), flush=True)
        print(f"== {workload}: {len(values.get(next(iter(values), ''), []))} runs, "
              f"{failed} failed operations")
        ok = ok and failed == 0
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            rel = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "ok" if rel < bound / 3 else "WIDE" if rel > bound else "within bound"
            print(f"  {name:34s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {rel:.4f} bound {bound} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
