"""The three drug-concentration (PK) workloads and their correctness checks.

``setup`` imports nestiq, loads the Sobol table and builds the problem or
config; ``run`` is the timed part; ``check`` lists what is wrong with one
outcome (an empty list means correct).  nestiq is imported inside ``setup``
so that its import cost is part of the measured set-up time.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

# EIG of the drug model from the paper's table; criterion 1 of the
# acceptance tests allows 0.03 at tol 5e-3, and so does every check here.
TABLE_EIG = {"geom": 10.7372, "even": 10.2065}
EIG_LIMIT = 0.03
PLAN_TOL = 5e-3

PIPELINE_CONFIG = """\
model = pk
estimator = rdlqmcis
design = geom
noise.variance = 0.01
seed = {seed}
"""

# name -> (design, N, M); every eig-* workload runs S = R = 1
EIG_WORKLOADS = {
    "eig-deep-outer": ("geom", 2**15, 2**4),
    "eig-wide-inner": ("even", 2**12, 2**8),
}
NAMES = ("pipeline-geom", *EIG_WORKLOADS)


def setup(name, seed, workdir):
    """Everything a run needs before its first timed iteration."""
    if name == "pipeline-geom":
        from nestiq.cli import main
        from nestiq.config import ExperimentConfig
        from nestiq.estimators import default_sobol_params

        default_sobol_params()
        cfg = os.path.join(workdir, "pk-geom.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(PIPELINE_CONFIG.format(seed=seed))
        ExperimentConfig.from_file(cfg).build_problem()
        return {"name": name, "main": main, "cfg": cfg, "workdir": workdir}

    import numpy as np

    import nestiq as nq
    from nestiq.estimators import default_sobol_params

    default_sobol_params()
    design, n, m = EIG_WORKLOADS[name]
    geom, even = nq.pk_designs()
    problem = nq.OEDProblem(
        model=nq.PKModel(),
        xi={"geom": geom, "even": even}[design],
        prior=nq.pk_prior("variance"),
        noise_variances=np.full(15, 0.01),
    )
    return {
        "name": name, "nq": nq, "problem": problem, "design": design,
        "N": n, "M": m, "key": nq.RandomizationKey(seed, tag=name),
    }


def run(ctx):
    """One timed iteration; returns the outcome that ``check`` inspects."""
    if ctx["name"] == "pipeline-geom":
        return _run_pipeline(ctx)
    res = ctx["nq"].eig_importance_sampled(
        ctx["problem"], ctx["N"], ctx["M"], S=1, R=1, key=ctx["key"]
    )
    return {"design": ctx["design"], "estimate": res.estimate, "stderr": res.stderr}


def _run_pipeline(ctx):
    wd, cfg, main = ctx["workdir"], ctx["cfg"], ctx["main"]
    pilot, plan, est = (os.path.join(wd, f) for f in ("pilot.json", "plan.json", "estimate.json"))
    for f in (pilot, plan, est):
        if os.path.exists(f):
            os.remove(f)
    log = io.StringIO()
    with contextlib.redirect_stderr(log):
        codes = [main(["pilot", cfg, "--out", pilot])]
        if codes[-1] == 0:
            codes.append(main(["plan", "--pilot", pilot, "--tol", str(PLAN_TOL), "--out", plan]))
        if codes[-1] == 0:
            codes.append(main(["estimate", cfg, "--plan", plan, "--out", est]))
    out = {"design": "geom", "exit_codes": codes, "log": log.getvalue()[-2000:]}
    if codes != [0, 0, 0]:
        return out
    for key, path in (("pilot", pilot), ("plan", plan), ("result", est)):
        with open(path, encoding="utf-8") as fh:
            out[key] = json.load(fh)
    out["estimate"] = out["result"]["estimate"]
    out["stderr"] = out["result"]["stderr"]
    return out


def _plan_feasible(plan):
    """Re-check the two constraints of the plan from its own constants (PK has no h)."""
    c = plan["constants"]
    n, m, kappa = plan["n_star"], plan["m_star"], plan["kappa_star"]
    variance = c["c_q1"] / n ** (1 + c["beta"]) + c["c_q2"] / (n * m ** (1 + c["delta"]))
    bias = c["c_q3"] / m ** (1 + c["delta"])
    slack = 1 + 1e-9
    return (
        variance <= (kappa * plan["tol"] / plan["c_alpha"]) ** 2 * slack
        and bias <= (1 - kappa) * plan["tol"] * slack
    )


def check(outcome):
    problems = []
    if "exit_codes" in outcome:
        if outcome["exit_codes"] != [0, 0, 0]:
            return [f"cli exit codes {outcome['exit_codes']}: {outcome['log'][-300:]}"]
        p = outcome["pilot"]
        consts = [p[k] for k in ("c_q1", "beta", "c_q2", "c_q3", "delta")]
        if not all(math.isfinite(v) for v in consts):
            problems.append(f"pilot constants not finite: {consts}")
        if not (0 <= p["beta"] <= 1 and 0 <= p["delta"] <= 1):
            problems.append(f"beta {p['beta']} or delta {p['delta']} outside [0, 1]")
        plan = outcome["plan"]
        for k in ("n_star", "m_star"):
            v = plan[k]
            if v < 1 or v & (v - 1):
                problems.append(f"plan {k} = {v} is not a power of two")
        if not problems and not _plan_feasible(plan):
            problems.append("plan violates its own constraints")
    est = outcome["estimate"]
    ref = TABLE_EIG[outcome["design"]]
    if not (isinstance(est, float) and abs(est - ref) < EIG_LIMIT):
        problems.append(f"EIG {est!r} not within {EIG_LIMIT} of {ref}")
    return problems
