"""Acceptance criteria, one test per criterion with a printed verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Criterion 1 is checked at desk scale and again at the
production tolerance 5e-4.
"""

import json
import math
import os
import time

import numpy as np
import pytest

import nestiq as nq
from nestiq.allocation import constraints_satisfied
from nestiq.cli import main as cli_main
from nestiq.estimators import (
    NestedProblem,
    _inner_blocks,
    default_sobol_params,
    mc_estimate,
    rqmc_estimate,
)
from nestiq.lds import RandomizationKey
from nestiq.oed import build_nested_problem, inner_replicate_spread

GEOM, EVEN = nq.pk_designs()
TABLE_EIG = {"geom": 10.7372, "even": 10.2065}


def _report(number, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"{verdict} criterion {number}: {detail}")
    assert passed, detail


def pk_problem(design):
    return nq.OEDProblem(
        model=nq.PKModel(),
        xi={"geom": GEOM, "even": EVEN}[design],
        prior=nq.pk_prior("variance"),
        noise_variances=np.full(15, 0.01),
    )


def run_pk_pilot(design, seed=2024):
    problem = pk_problem(design)
    nested = build_nested_problem(problem, family="is")
    key = RandomizationKey(seed, tag=f"pk-{design}")
    outer = nq.fit_pilot_outer(nested, [32, 128, 512, 2048], 4, 32, key.child("o"))
    inner = nq.fit_pilot_inner(nested, [32, 128, 512, 2048], 4, 32, key.child("i"))
    consts = nq.PilotConstants(
        c_q1=outer.c_q1, beta=outer.beta,
        c_q2=inner.c_q2, c_q3=inner.c_q3, delta=inner.delta,
    )
    return problem, consts, key


@pytest.fixture(scope="module")
def pk_pilots():
    return {d: run_pk_pilot(d) for d in ("geom", "even")}


def linear_gaussian_problem():
    return nq.OEDProblem(
        model=nq.LinearGaussianModel(matrix=[[1.0]]),
        xi=np.zeros(0),
        prior=nq.PriorSpec(components=(("normal", 0.0, 1.0),)),
        noise_variances=[1.0],
    )


def test_criterion_1_table_reproduction_desk_scale(pk_pilots):
    t0 = time.time()
    errors = {}
    for design in ("geom", "even"):
        problem, consts, key = pk_pilots[design]
        plan = nq.solve_allocation(consts, 5e-3, 0.05)
        res = nq.eig_importance_sampled(
            problem, plan.n_star, plan.m_star, S=1, R=1,
            sampler="rqmc-sobol-owen", key=key.child("estimate"),
        )
        errors[design] = abs(res.estimate - TABLE_EIG[design])
    elapsed = time.time() - t0
    ok = errors["geom"] < 0.03 and errors["even"] < 0.03 and elapsed < 600
    _report(
        1, ok,
        f"EIG errors at tol 5e-3: geom {errors['geom']:.4f}, "
        f"even {errors['even']:.4f} (limit 0.03 each); {elapsed:.0f}s",
    )


def test_criterion_2_work_rate_slopes(pk_pilots):
    problem, consts, key = pk_pilots["geom"]
    predicted = 2.0 / (1.0 + consts.beta) + 1.0 / (1.0 + consts.delta)
    n_rungs = 7
    tols = [2e-2 * (2.5e-3 / 2e-2) ** (i / (n_rungs - 1)) for i in range(n_rungs)]
    works = []
    for i, tol in enumerate(tols):
        plan = nq.solve_allocation(consts, tol, 0.05)
        res = nq.eig_importance_sampled(
            problem, plan.n_star, plan.m_star, S=1, R=1,
            sampler="rqmc-sobol-owen", key=key.child("sweep", i),
        )
        works.append(res.work)
    slope = -np.polyfit(np.log(tols), np.log(works), 1)[0]

    dlmc_consts = nq.PilotConstants(
        c_q1=consts.c_q1, beta=0.0, c_q2=consts.c_q2, c_q3=consts.c_q3, delta=0.0,
    )
    lt, lw = [], []
    for tol in tols:
        p = nq.solve_allocation(dlmc_consts, tol, 0.05)
        lt.append(math.log(1 / tol))
        lw.append(math.log(p.n_raw * p.m_raw))
    dlmc_slope = np.polyfit(lt, lw, 1)[0]

    ok = abs(slope - predicted) <= 0.25 and abs(dlmc_slope - 3.0) <= 0.2
    _report(
        2, ok,
        f"realized-work slope {slope:.3f} vs fitted prediction {predicted:.3f} "
        f"(|diff| <= 0.25); MC-specialization slope {dlmc_slope:.3f} (3.0 +- 0.2)",
    )


def test_criterion_3_conjugate_oracle_all_estimators():
    problem = linear_gaussian_problem()
    truth = nq.eig_conjugate_oracle([1.0], [1.0], [[1.0]], 1)
    runs = {
        "dlmc": nq.eig_nested(problem, 2**10, 2**6, S=8, sampler="mc",
                              key=RandomizationKey(301)),
        "rdlqmc": nq.eig_nested(problem, 2**10, 2**6, S=8, sampler="rqmc-sobol-owen",
                                key=RandomizationKey(302)),
        "dlmcis": nq.eig_importance_sampled(problem, 2**10, 2**6, S=8, sampler="mc",
                                            key=RandomizationKey(303)),
        "rdlqmcis": nq.eig_importance_sampled(problem, 2**10, 2**6, S=8,
                                              sampler="rqmc-sobol-owen",
                                              key=RandomizationKey(304)),
    }
    deviations = {k: abs(r.estimate - truth) / r.stderr for k, r in runs.items()}
    spread = inner_replicate_spread(problem, 64, 1, 4, key=RandomizationKey(305))
    ok = all(d < 4.0 for d in deviations.values()) and spread < 1e-10
    detail = ", ".join(f"{k} {d:.2f} sigma" for k, d in deviations.items())
    _report(3, ok, f"conjugate truth deviations: {detail}; "
                   f"exact-IS inner spread {spread:.2e} (< 1e-10)")


def test_criterion_4_entropy_term_quadrature():
    worst = 0.0
    for var in (0.01, 1.0, 4.0):
        t, w = np.polynomial.hermite.hermgauss(60)
        eps = math.sqrt(2 * var) * t
        logpdf = -0.5 * np.log(2 * math.pi * var) - eps**2 / (2 * var)
        oracle = float(np.sum(w * logpdf) / math.sqrt(math.pi))
        worst = max(worst, abs(nq.closed_form_entropy_term(1, [var]) - oracle))
    _report(4, worst < 1e-10, f"max |closed form - quadrature| = {worst:.2e} (< 1e-10)")


def test_criterion_5_convergence_rate_separation():
    # single-integral RMSE slopes on x^3 (truth 1/4)
    ms = [2**k for k in range(6, 13)]
    rqmc_rmse, mc_rmse = [], []
    for m in ms:
        sq = [
            (rqmc_estimate(lambda p: p[:, 0] ** 3, 1, m, 1,
                           RandomizationKey(s, tag="rq").child(m)).estimate - 0.25) ** 2
            for s in range(32)
        ]
        rqmc_rmse.append(math.sqrt(np.mean(sq)))
        sq = [
            (mc_estimate(lambda p: p[:, 0] ** 3, 1, m,
                         RandomizationKey(s, tag="mc").child(m)).estimate - 0.25) ** 2
            for s in range(100)
        ]
        mc_rmse.append(math.sqrt(np.mean(sq)))
    rqmc_slope = np.polyfit(np.log2(ms), np.log2(rqmc_rmse), 1)[0]
    mc_slope = np.polyfit(np.log2(ms), np.log2(mc_rmse), 1)[0]

    # nested toy problem: inner-induced outer bias vs M
    def toy():
        def g(y, x):
            return np.exp(x[:, :, 0] * y[:, 0][:, None])

        return NestedProblem(d1=1, d2=1, inner=g, outer_map="log")

    def gbar(y):
        return (np.exp(y) - 1.0) / np.maximum(y, 1e-300)

    spl = "rqmc-sobol-owen"
    params = default_sobol_params()
    key = RandomizationKey(7, tag="bias")
    n, reps = 256, 200
    inner_ms = [2, 4, 8, 16, 32]
    bias_q, bias_mc = [], []
    for m in inner_ms:
        dq, dmc = [], []
        for rep in range(reps):
            k = key.child(m, rep)
            y = k.uniforms((n, 1), salt="outer")
            x = _inner_blocks(toy(), 0, n, m, 1, 0, k, spl, params)
            dq.append(np.mean(np.log(np.exp(x[:, :, 0] * y).mean(axis=1))
                              - np.log(gbar(y[:, 0]))))
            xm = k.uniforms((n, m, 1), salt="mc-inner")
            dmc.append(np.mean(np.log(np.exp(xm[:, :, 0] * y).mean(axis=1))
                               - np.log(gbar(y[:, 0]))))
        bias_q.append(abs(np.mean(dq)))
        bias_mc.append(abs(np.mean(dmc)))
    bias_q_slope = np.polyfit(np.log2(inner_ms), np.log2(bias_q), 1)[0]
    bias_mc_slope = np.polyfit(np.log2(inner_ms), np.log2(bias_mc), 1)[0]

    ok = (
        rqmc_slope <= -0.85
        and abs(mc_slope + 0.5) <= 0.1
        and bias_q_slope <= -1.5
        and abs(bias_mc_slope + 1.0) <= 0.2
    )
    _report(
        5, ok,
        f"RMSE slopes: rqmc {rqmc_slope:.2f} (<= -0.85), mc {mc_slope:.2f} "
        f"(-0.5 +- 0.1); inner-bias slopes: rqmc {bias_q_slope:.2f} (<= -1.5), "
        f"mc {bias_mc_slope:.2f} (-1.0 +- 0.2)",
    )


def test_criterion_6_allocation_solver_vs_oracle():
    rng = np.random.default_rng(1234)
    t0 = time.time()
    worst_ratio, all_feasible = 0.0, True
    for _ in range(50):
        c = nq.PilotConstants(
            c_q1=float(10 ** rng.uniform(-2, 2)),
            beta=float(rng.choice([0, 0.25, 0.5, 0.75, 1.0])),
            c_q2=float(10 ** rng.uniform(-2, 2)),
            c_q3=float(10 ** rng.uniform(-2, 2)),
            delta=float(rng.choice([0, 0.25, 0.5, 0.75, 1.0])),
            c_disc=float(rng.choice([0.0, 10 ** rng.uniform(-2, 1)])),
            eta=float(rng.choice([1.0, 2.0])),
            gamma=float(rng.choice([1.0, 2.0])),
        )
        tol = float(10 ** rng.uniform(-3, -1))
        plan = nq.solve_allocation(c, tol, 0.05)
        oracle = nq.brute_force_allocation(c, tol, 0.05)
        worst_ratio = max(worst_ratio, plan.predicted_work / oracle.predicted_work)
        for p in (plan, oracle):
            all_feasible &= constraints_satisfied(
                c, tol, p.c_alpha, p.kappa_star, p.n_star, p.m_star, p.h_star
            )
    elapsed = time.time() - t0
    ok = worst_ratio <= 1.05 and all_feasible and elapsed < 5.0
    _report(
        6, ok,
        f"worst solver/oracle work ratio {worst_ratio:.4f} (<= 1.05), "
        f"all plans feasible: {all_feasible}, {elapsed:.2f}s (< 5 s)",
    )


def test_criterion_7_lds_correctness():
    params = default_sobol_params()
    exact = all(
        nq.star_discrepancy_1d(nq.sobol_sequence(params, 1, k).fractions()) == 2.0**-k
        for k in range(1, 11)
    )
    pts = nq.owen_scramble(nq.sobol_sequence(params, 2, 6), RandomizationKey(71)).values
    nets = all(
        np.all(np.histogram2d(pts[:, 0], pts[:, 1], bins=[2**j, 2 ** (6 - j)],
                              range=[[0, 1], [0, 1]])[0] == 1)
        for j in range(7)
    )
    vals = np.array([
        rqmc_estimate(lambda p: p[:, 0] ** 3, 1, 64, 1,
                      RandomizationKey(s, tag="unb")).estimate
        for s in range(1000)
    ])
    z = abs(vals.mean() - 0.25) / (vals.std(ddof=1) / math.sqrt(vals.size))
    ok = exact and nets and z < 4.0
    _report(
        7, ok,
        f"first-block discrepancy exact for k<=10: {exact}; elementary "
        f"intervals preserved: {nets}; unbiasedness z = {z:.2f} (< 4)",
    )


def test_criterion_8_truncation_property():
    base = nq.eig_quadrature(linear_gaussian_problem(), 32, 32, 64)
    diffs = {}
    for tol in (1e-2, 1e-3):
        p = nq.OEDProblem(
            model=nq.LinearGaussianModel(matrix=[[1.0]]),
            xi=np.zeros(0),
            prior=nq.PriorSpec(components=(("normal", 0.0, 1.0),)),
            noise_variances=[1.0],
            truncation=nq.TruncationSetting(enabled=True, p=1.0, tol=tol),
        )
        diffs[tol] = abs(nq.eig_quadrature(p, 32, 48, 64) - base)
    ok = all(diffs[tol] < tol for tol in diffs)
    _report(
        8, ok,
        f"truncation differences: {diffs[1e-2]:.2e} (< 1e-2), "
        f"{diffs[1e-3]:.2e} (< 1e-3)",
    )


def test_criterion_9_cli_determinism(tmp_path):
    cfg = tmp_path / "lg.cfg"
    cfg.write_text(
        "model = linear_gaussian\nestimator = rdlqmcis\nseed = 7\n"
        "linear_gaussian.jacobian = 1.0\nlinear_gaussian.prior_variance = 1.0\n"
        "noise.variance = 1.0\n"
    )
    before = os.environ.get("NESTIQ_THREADS")
    outputs = {}
    try:
        for threads in ("1", "8"):
            os.environ["NESTIQ_THREADS"] = threads
            tdir = tmp_path / f"t{threads}"
            tdir.mkdir()
            pilot = str(tdir / "pilot.json")
            plan = str(tdir / "plan.json")
            res = str(tdir / "res.json")
            sweep = str(tdir / "sweep.csv")
            assert cli_main(["pilot", str(cfg), "--outer-ladder", "32,128",
                             "--inner-ladder", "16,64", "--S", "8", "--R", "8",
                             "--out", pilot]) == 0
            assert cli_main(["plan", "--pilot", pilot, "--tol", "0.02",
                             "--out", plan]) == 0
            assert cli_main(["estimate", str(cfg), "--plan", plan, "--S", "4",
                             "--out", res]) == 0
            assert cli_main(["sweep", str(cfg), "--pilot", pilot,
                             "--tols", "0.1,0.05", "--out", sweep]) == 0
            # re-run in place: byte-identical at the same thread count
            rerun = str(tdir / "res2.json")
            assert cli_main(["estimate", str(cfg), "--plan", plan, "--S", "4",
                             "--out", rerun]) == 0
            assert open(res, "rb").read() == open(rerun, "rb").read()
            outputs[threads] = tuple(
                open(f, "rb").read() for f in (pilot, plan, res, sweep)
            )
    finally:
        if before is None:
            os.environ.pop("NESTIQ_THREADS", None)
        else:
            os.environ["NESTIQ_THREADS"] = before
    ok = outputs["1"] == outputs["8"]
    _report(9, ok, "pilot/plan/estimate/sweep outputs byte-identical when "
                   "re-run and across 1 vs 8 threads")


def test_criterion_1_full_tolerance_long(pk_pilots):
    results = {}
    for design in ("geom", "even"):
        problem, consts, key = pk_pilots[design]
        plan = nq.solve_allocation(consts, 5e-4, 0.05)
        res = nq.eig_importance_sampled(
            problem, plan.n_star, plan.m_star, S=1, R=1,
            sampler="rqmc-sobol-owen", key=key.child("long"),
        )
        results[design] = (abs(res.estimate - TABLE_EIG[design]), res.work,
                           plan.n_raw * plan.m_raw)
    # the least-work power-of-two plan costs at least the continuous optimum
    # and at most 4 times it, since rounding that optimum's N and M up to
    # powers of two is feasible
    ok = all(err < 0.005 and raw <= work <= 4 * raw for err, work, raw in results.values())
    _report(
        "1-long", ok,
        "; ".join(
            f"{d}: |err| {err:.5f}, work {work:.2e} (continuous optimum {raw:.2e})"
            for d, (err, work, raw) in results.items()
        ),
    )
