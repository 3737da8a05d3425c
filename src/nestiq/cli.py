"""Config-driven command line: pilot runs, allocation plans, estimates, sweeps.

Commands read a flat dotted-key config file, write JSON-compatible result
files embedding the config hash and master seed, and print a short human
summary to stderr.  Re-running any command with identical inputs reproduces
byte-identical output files.  NESTIQ_THREADS caps internal parallelism.

Exit codes: 0 success, 2 usage, config or file error, 3 infeasible plan,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields

from .allocation import (
    InfeasiblePlanError,
    PilotConstants,
    _bias_value,
    _stat_variance,
    fit_pilot_inner,
    fit_pilot_outer,
    solve_allocation,
)
from .config import ConfigError, ExperimentConfig
from .lds import RandomizationKey
from .oed import _eig_of_mean, build_nested_problem

_USAGE_EXIT = 2
_INFEASIBLE_EXIT = 3
_NUMERICAL_EXIT = 4


def _record(obj, *omit) -> dict:
    """A dataclass's fields by name, less those named in omit."""
    return {f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in omit}


def _write_json(path: str, payload: dict):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _summary(lines):
    for k, v in lines:
        print(f"{k:>16}: {v}", file=sys.stderr)


def _parse_list(text: str, flag: str, kind):
    try:
        return [kind(t) for t in text.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"{flag}: expected a comma-separated {kind.__name__} list")


# ---------------------------------------------------------------------------
# pilot
# ---------------------------------------------------------------------------


def cmd_pilot(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    outer_ladder = _parse_list(args.outer_ladder, "--outer-ladder", int)
    seed = cfg.seed if args.seed is None else args.seed
    key = RandomizationKey(seed, tag="pilot")
    problem = cfg.build_problem()
    family, sampler = cfg.family_and_sampler()

    nested = build_nested_problem(problem, family=family)
    # the Laplace-only estimator has one inner point and no inner pilot
    laplace = family == "laplace"
    if args.S < 8 or (args.R < 8 and not laplace):
        raise ConfigError("pilot runs need --S >= 8 (and, with an inner pilot, --R >= 8)")
    inner_ladder = None if laplace else _parse_list(args.inner_ladder, "--inner-ladder", int)
    outer = fit_pilot_outer(
        nested, outer_ladder, 1 if laplace else args.m_fixed, args.S,
        key.child("outer"), sampler=sampler,
    )
    meta = {
        "estimator": cfg.estimator,
        "outer_ladder": outer_ladder,
        "outer_variances": list(outer.rung_variances),
        "outer_residual": outer.residual,
        # the top rung's EIG, as the estimate command forms it
        "outer_top_eig": _eig_of_mean(problem, family, outer.top_estimate),
        "outer_top_stderr": outer.top_stderr,
        "S": args.S,
        "seed": seed,
        "config_hash": cfg.config_hash(),
    }
    c_q2 = c_q3 = delta = 0.0
    if not laplace:
        inner = fit_pilot_inner(
            nested, inner_ladder, args.n_fixed, args.R,
            key.child("inner"), sampler=sampler,
        )
        c_q2, c_q3, delta = inner.c_q2, inner.c_q3, inner.delta
        meta.update({
            "inner_ladder": inner_ladder,
            "inner_variances": list(inner.rung_variances),
            "inner_residual": inner.residual,
            "R": args.R,
            "m_fixed": args.m_fixed, "n_fixed": args.n_fixed,
        })
    consts = PilotConstants(
        c_q1=outer.c_q1, beta=outer.beta, c_q2=c_q2, c_q3=c_q3, delta=delta,
        **cfg.discretization(), metadata=meta,
    )
    payload = _record(consts)
    _write_json(args.out, payload)
    # the five fitted constants lead the dataclass's fields
    _summary([("pilot", args.out), *list(payload.items())[:5]])
    return 0


def _read_file(path: str, kind: str, read):
    """read(data) of a pilot or plan file's JSON; a file that is not JSON, or
    lacks a field or holds a bad value, is a config error naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return read(json.load(fh))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{kind} file {path} is not a valid {kind} file ({exc!r})") from None


def _constants(data: dict) -> PilotConstants:
    """A pilot file's, or a plan's, constants; a field data lacks takes its default."""
    names = {f.name for f in fields(PilotConstants)}
    return PilotConstants(**{k: v for k, v in data.items() if k in names})


def _plan_fields(plan: dict):
    """A plan's (N*, M*, h*, constants): N* and M* positive integers, h* null
    or a positive finite number."""
    n, m, h = plan["n_star"], plan["m_star"], plan.get("h_star")
    for name, count in (("n_star", n), ("m_star", m)):
        if type(count) is not int or count < 1:
            raise ValueError(f"{name} must be a positive integer, got {count!r}")
    if h is not None and (type(h) not in (int, float) or not 0 < h < math.inf):
        raise ValueError(f"h_star must be null or a positive finite number, got {h!r}")
    return n, m, h, _constants(plan["constants"])


def _load_pilot(path: str) -> PilotConstants:
    return _read_file(path, "pilot", _constants)


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def cmd_plan(args) -> int:
    consts = _load_pilot(args.pilot)
    plan = solve_allocation(
        consts, args.tol, args.alpha, chebyshev=args.chebyshev, h_min=args.h_min
    )
    _write_json(args.out, _record(plan, "metadata") | {
        "constants": _record(consts, "metadata"),
        "config_hash": consts.metadata.get("config_hash"),
        "seed": consts.metadata.get("seed"),
    })
    _summary([
        ("plan", args.out), ("tol", plan.tol), ("kappa*", plan.kappa_star),
        ("N*", plan.n_star), ("M*", plan.m_star), ("h*", plan.h_star),
        ("work", plan.predicted_work), ("C_alpha", plan.c_alpha),
    ])
    return 0


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def cmd_estimate(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    h = None
    predicted_stddev = predicted_bias = None
    if args.plan:
        if args.N is not None or args.M is not None:
            raise ConfigError("--plan sets N and M; drop --N and --M")
        n, m, h, consts = _read_file(args.plan, "plan", _plan_fields)
        # the plan's error model for one randomization at (N*, M*, h*)
        predicted_stddev = math.sqrt(_stat_variance(consts, n, m))
        predicted_bias = _bias_value(consts, m, h)
    elif args.N is not None:
        n, m = args.N, args.M
    else:
        raise ConfigError("provide either --plan or explicit --N (and --M)")
    key = RandomizationKey(seed, tag="estimate")
    result = cfg.run_estimator(n, m, args.S, args.R, key, h=h)
    _write_json(args.out, _record(result, "replicate_values", "extras") | {
        "estimator": cfg.estimator,
        "model": cfg.values["model"],
        "h": h,
        "predicted_stddev": predicted_stddev,
        "predicted_bias": predicted_bias,
        "config_hash": cfg.config_hash(),
    })
    _summary([
        ("estimate", result.estimate),
        ("stderr", result.stderr),
        ("predicted stddev", predicted_stddev),
        ("predicted bias", predicted_bias),
        ("counts", result.counts),
        ("work", result.work),
        ("out", args.out),
    ])
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_SWEEP_COLUMNS = (
    "tol", "kappa_star", "N_star", "M_star", "h_star", "predicted_work",
    "estimate", "stderr", "realized_work", "seed", "error",
)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_sweep(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    consts = _load_pilot(args.pilot)
    tols = _parse_list(args.tols, "--tols", float) if args.tols else []
    seed = cfg.seed if args.seed is None else args.seed
    rows = []
    for i, tol in enumerate(tols):
        row_seed = seed + i
        try:
            plan = solve_allocation(consts, tol, args.alpha)
            key = RandomizationKey(row_seed, tag="sweep")
            result = cfg.run_estimator(
                plan.n_star, plan.m_star, args.S, args.R, key, h=plan.h_star
            )
            rows.append({
                "tol": tol,
                "kappa_star": plan.kappa_star,
                "N_star": plan.n_star,
                "M_star": plan.m_star,
                "h_star": plan.h_star,
                "predicted_work": plan.predicted_work,
                "estimate": result.estimate,
                "stderr": result.stderr,
                "realized_work": result.work,
                "seed": row_seed,
                "error": None,
            })
        except (ArithmeticError, ValueError) as exc:
            rows.append({c: None for c in _SWEEP_COLUMNS} | {
                "tol": tol, "seed": row_seed, "error": str(exc).replace(",", ";"),
            })
    lines = [",".join(_SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[c]) for c in _SWEEP_COLUMNS))
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    _summary([("sweep", args.out), ("rows", len(rows))])
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nestiq",
        description="Nested randomized-QMC estimation with pilot-based allocation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pilot", help="fit pilot constants for a config")
    p.add_argument("config")
    p.add_argument("--outer-ladder", default="32,64,128,256,512,1024,2048,4096")
    p.add_argument("--inner-ladder", default="32,128,512,2048")
    p.add_argument("--S", type=int, default=16)
    p.add_argument("--R", type=int, default=32)
    p.add_argument("--m-fixed", type=int, default=4)
    p.add_argument("--n-fixed", type=int, default=4)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pilot)

    p = sub.add_parser("plan", help="solve the allocation for a tolerance")
    p.add_argument("--pilot", required=True)
    p.add_argument("--tol", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--chebyshev", action="store_true")
    p.add_argument("--h-min", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("estimate", help="run the configured estimator")
    p.add_argument("config")
    p.add_argument("--plan", default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--S", type=int, default=1)
    p.add_argument("--R", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep", help="plan and estimate over a tolerance list")
    p.add_argument("config")
    p.add_argument("--pilot", required=True)
    p.add_argument("--tols", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--S", type=int, default=1)
    p.add_argument("--R", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InfeasiblePlanError as exc:
        print(f"infeasible: {exc} (binding constraint: {exc.binding})", file=sys.stderr)
        return _INFEASIBLE_EXIT
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _NUMERICAL_EXIT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
