"""Pilot fits, the allocation solver and its continuous optimum, and the oracle."""

import math
import warnings

import numpy as np
import pytest

from nestiq.allocation import (
    FitQualityError,
    InfeasiblePlanError,
    PilotConstants,
    _TOL_MARGIN,
    _bias_value,
    _stat_variance,
    _work,
    brute_force_allocation,
    confidence_constant,
    constraints_satisfied,
    fit_pilot_inner,
    fit_pilot_outer,
    fit_variance_power_law,
    solve_allocation,
)
from nestiq import estimators
from nestiq.estimators import NestedProblem, rdlqmc_estimate
from nestiq.lds import RandomizationKey
from nestiq.stats import replicate_variance

C_ALPHA = confidence_constant(0.05)


def criterion_six_sets():
    """The 50 (constants, tol) pairs of acceptance criterion 6."""
    rng = np.random.default_rng(1234)
    for _ in range(50):
        c = PilotConstants(
            c_q1=float(10 ** rng.uniform(-2, 2)),
            beta=float(rng.choice([0, 0.25, 0.5, 0.75, 1.0])),
            c_q2=float(10 ** rng.uniform(-2, 2)),
            c_q3=float(10 ** rng.uniform(-2, 2)),
            delta=float(rng.choice([0, 0.25, 0.5, 0.75, 1.0])),
            c_disc=float(rng.choice([0.0, 10 ** rng.uniform(-2, 1)])),
            eta=float(rng.choice([1.0, 2.0])),
            gamma=float(rng.choice([1.0, 2.0])),
        )
        yield c, float(10 ** rng.uniform(-3, -1))


def toy_problem():
    def g(y, x):
        return np.exp(x[:, :, 0] * y[:, 0][:, None])

    return NestedProblem(d1=1, d2=1, inner=g, outer_map="log")


class TestVarianceFits:
    def test_exact_two_point_outer(self):
        c, rate, resid = fit_variance_power_law([64, 256], [1e-2, 6.25e-4])
        assert rate == pytest.approx(1.0)
        assert c == pytest.approx(1e-2 * 64**2)
        assert resid < 1e-12

    def test_mc_rate_clamps_to_zero(self):
        v = 3e-3
        c, rate, _ = fit_variance_power_law([64, 256], [v, v / 4])
        assert rate == 0.0

    def test_three_rung_exact(self):
        ns = [64, 256, 1024]
        vals = [2.5 * n**-1.5 for n in ns]
        c, rate, resid = fit_variance_power_law(ns, vals)
        assert rate == pytest.approx(0.5, abs=1e-12)
        assert c == pytest.approx(2.5)
        assert resid < 1e-10

    def test_inner_scaling_convention(self):
        # inner rung variances are C_Q2 / (N M^(1+delta)); the caller scales by N
        n_fixed = 4
        c_scaled, delta, _ = fit_variance_power_law([64, 256], [1e-4, 1e-4 / 16])
        assert delta == pytest.approx(1.0)
        assert c_scaled * n_fixed == pytest.approx(1e-4 * 64**2 * n_fixed)


class TestPilotRuns:
    def test_inner_pilot_prepares_once_with_the_same_result(self):
        from nestiq.models import PKModel, pk_designs, pk_prior
        from nestiq.oed import OEDProblem, build_nested_problem

        problem = OEDProblem(model=PKModel(), xi=pk_designs()[0],
                             prior=pk_prior("variance"), noise_variances=np.full(15, 0.01))
        nested = build_nested_problem(problem, family="is")
        prepared = []
        prepare = nested.prepare
        nested.prepare = lambda y: prepared.append(y.shape) or prepare(y)
        folded = NestedProblem(
            d1=nested.d1, d2=nested.d2, outer_map="log", inner_is_log=True,
            inner=lambda y, x: nested.inner(prepare(y), x),
        )
        key = RandomizationKey(8, tag="prep")
        fit = fit_pilot_inner(nested, [8, 16], 4, 8, key)
        # once a rung, on each fixed row once
        assert prepared == [(4, nested.d1)] * 2
        assert fit == fit_pilot_inner(folded, [8, 16], 4, 8, key)

    def test_outer_pilot_on_toy(self):
        fit = fit_pilot_outer(
            toy_problem(), [32, 128, 512], 64, 16, RandomizationKey(3, tag="po")
        )
        assert fit.c_q1 > 0 and 0.0 <= fit.beta <= 1.0
        # smooth toy: clearly better than the iid rate
        assert fit.beta > 0.4

    def test_outer_pilot_rejects_tiny_s(self):
        with pytest.raises(ValueError, match="S >= 8"):
            fit_pilot_outer(toy_problem(), [32, 128], 8, 4, RandomizationKey(0))

    def test_outer_pilot_flags_nondecreasing_ladder(self):
        # a tall spike on a cell of width 1/4096: at S = 8 the 32-row prefixes
        # miss it and the larger ones hit it, so the sampled variance ladder
        # rises although the true one decays
        def g(y, x):
            row = y[:, 0] + np.where(np.abs(y[:, 0] - 0.3) < 0.5 / 4096, 4096.0, 0.0)
            return np.broadcast_to(row[:, None], x.shape[:2]).copy()

        prob = NestedProblem(d1=1, d2=1, inner=g, outer_map="identity")
        with pytest.raises(FitQualityError, match="not decreasing"):
            fit_pilot_outer(prob, [32, 128, 512], 4, 8, RandomizationKey(6))

    @pytest.mark.parametrize("outer_map", ["identity", "log"])
    def test_outer_pilot_on_a_constant_integrand_stays_finite(self, outer_map):
        # every rung's S means are equal, so each rung variance is exactly 0
        # before the floor at the resolution of the means
        def g(y, x):
            return np.full(x.shape[:2], 2.0)

        prob = NestedProblem(d1=1, d2=1, inner=g, outer_map=outer_map)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fit = fit_pilot_outer(prob, [32, 128, 512], 4, 8, RandomizationKey(5))
        assert math.isfinite(fit.c_q1) and math.isfinite(fit.residual)
        assert 0.0 <= fit.beta <= 1.0

    def test_outer_pilot_top_rung_is_the_estimator_at_its_key(self):
        # the one pass runs the top rung as the nested estimator under the
        # key that rung has always had, so its variance, mean and stderr
        # keep their bits
        key = RandomizationKey(3, tag="po")
        fit = fit_pilot_outer(toy_problem(), [32, 128, 512], 64, 16, key)
        res = rdlqmc_estimate(toy_problem(), 512, 64, 16, 1, key.child("pilot-outer", 2))
        assert fit.rung_variances[-1] == 16 * res.variance_of_mean
        assert (fit.top_estimate, fit.top_stderr) == (res.estimate, res.stderr)

    @pytest.mark.parametrize("sampler", ["rqmc-sobol-owen", "mc"])
    def test_outer_pilot_lower_rungs_are_prefixes(self, sampler):
        # each rung's S means are over the first n rows of the top rung's S
        # randomizations, each evaluated whole here
        prob, key = toy_problem(), RandomizationKey(5, tag="prefix")
        ladder, m, s = [32, 128, 512], 16, 8
        fit = fit_pilot_outer(prob, ladder, m, s, key, sampler=sampler)
        top = key.child("pilot-outer", 2)
        params = estimators.default_sobol_params()
        rows = np.array([
            estimators._outer_values(
                prob,
                estimators._outer_points(prob, 512, r, top, sampler, params),
                estimators._inner_blocks(prob, 0, 512, m, 1, r, top, sampler, params),
            )
            for r in range(s)
        ])
        want = [s * replicate_variance(rows[:, :n].mean(axis=1)) for n in ladder]
        np.testing.assert_allclose(fit.rung_variances, want, rtol=1e-10)
        if sampler == "mc":
            # a prefix of an iid row stream is the estimator at that size
            res = rdlqmc_estimate(prob, 32, m, s, 1, top, sampler="mc")
            assert fit.rung_variances[0] == s * res.variance_of_mean

    @pytest.mark.parametrize("chunk, ladder", [(4096, [128, 512, 2048]), (8, [4, 16, 64])])
    def test_outer_pilot_bits_do_not_depend_on_threads(self, chunk, ladder, monkeypatch):
        # four tasks of two randomizations each; with 8-row chunks the 4-row
        # rung ends inside a segment and the others sum several segments
        monkeypatch.setattr(estimators, "_CHUNK", chunk)
        key = RandomizationKey(9, tag="threads")
        fits = []
        for threads in ("1", "2"):
            monkeypatch.setenv("NESTIQ_THREADS", threads)
            fits.append(fit_pilot_outer(toy_problem(), ladder, 8, 8, key))
        assert fits[0] == fits[1]
        res = rdlqmc_estimate(toy_problem(), ladder[-1], 8, 8, 1, key.child("pilot-outer", 2))
        assert fits[0].rung_variances[-1] == 8 * res.variance_of_mean

    def test_inner_pilot_on_toy(self):
        fit = fit_pilot_inner(
            toy_problem(), [8, 32, 128], 8, 16, RandomizationKey(4, tag="pi")
        )
        assert fit.c_q2 > 0 and fit.c_q3 >= 0 and 0.0 <= fit.delta <= 1.0

    def test_inner_pilot_zero_bias_low_confidence(self):
        # the identity outer map has no inner-induced bias, whatever the
        # inner variance
        def g(y, x):
            return y[:, 0][:, None] * x[:, :, 0]

        prob = NestedProblem(d1=1, d2=1, inner=g, outer_map="identity")
        fit = fit_pilot_inner(prob, [8, 32], 8, 16, RandomizationKey(3, tag="zb"))
        assert fit.c_q2 > 0 and fit.c_q3 == 0.0

    def test_inner_pilot_exact_inner_stays_finite(self):
        # a constant inner integrand has no inner variance at any rung, as
        # importance sampling from an exact Gaussian posterior does
        def g(y, x):
            return np.full(x.shape[:2], 2.0)

        prob = NestedProblem(d1=1, d2=1, inner=g, outer_map="log")
        fit = fit_pilot_inner(prob, [8, 32], 4, 8, RandomizationKey(5))
        assert math.isfinite(fit.delta) and 0.0 <= fit.delta <= 1.0
        assert fit.c_q3 == fit.c_q2 / 2 < 1e-28


class TestInnerBias:
    """The property C_Q3 = C_Q2 / 2 rests on: under the log outer map the
    inner estimate's bias is E[log I_M] - log I ~ -Var(I_M) / (2 I^2), so it
    follows the inner variance law the pilot fits."""

    @pytest.mark.parametrize("sampler, ms", [
        ("mc", (1, 2, 4, 8)),
        # at M = 1 a scrambled net is one uniform point, plain MC, off the
        # fitted delta = 1 law
        ("rqmc-sobol-owen", (2, 4, 8)),
    ])
    def test_log_bias_follows_the_fitted_constant(self, sampler, ms):
        prob, key = toy_problem(), RandomizationKey(17, tag="inner-bias")
        n, r = 1024, 16
        # 256 replicates keep the pilot's variance error (R - 1 degrees of
        # freedom) well below the measured bias's standard error
        fit = fit_pilot_inner(prob, [1, 2, 4, 8], n, 256, key, sampler=sampler)
        # on the pilot's fixed rows, where the inner mean is (e^y - 1) / y
        fixed = key.child("pilot-inner-fixed")
        params = estimators.default_sobol_params() if sampler != "mc" else None
        y = estimators._outer_points(prob, n, 0, fixed, sampler, params)[:, 0]
        log_i = np.log(np.expm1(y) / y)
        for m in ms:
            vals = estimators._inner_replicates(prob, n, m, r, fixed, key.child("bias"), sampler)
            err = vals - log_i[:, None]
            # each (row, replicate) has its own inner randomization
            se = math.sqrt(err.var(axis=1, ddof=1).sum() / r) / n
            predicted = -fit.c_q3 / m ** (1.0 + fit.delta)
            assert abs(err.mean() - predicted) < 3.0 * se, (m, err.mean(), predicted, se)


class TestSolveAllocation:
    def test_laplace_only_constants_take_the_largest_kappa(self):
        # with C_Q2 = C_Q3 = 0 the outer term alone uses the whole tolerance
        # at M = 1, so the exact optimum's error split kappa_analytic is
        # 1 - O(1e-9), and its continuous N is at most the plan's
        c = PilotConstants(c_q1=1.0, beta=0.5, c_q2=0.0, c_q3=0.0, delta=0.0)
        plan = solve_allocation(c, 5e-3, 0.05)
        assert plan.metadata["kappa_analytic"] >= 0.99
        assert plan.n_raw <= plan.n_star
        assert plan.m_raw == 1.0

    def test_plans_satisfy_constraints(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            c = PilotConstants(
                c_q1=float(10 ** rng.uniform(-2, 2)),
                beta=float(rng.choice([0, 0.5, 1.0])),
                c_q2=float(10 ** rng.uniform(-2, 2)),
                c_q3=float(10 ** rng.uniform(-2, 2)),
                delta=float(rng.choice([0, 0.5, 1.0])),
            )
            tol = float(10 ** rng.uniform(-3, -1))
            plan = solve_allocation(c, tol, 0.05)
            assert constraints_satisfied(
                c, tol, plan.c_alpha, plan.kappa_star,
                plan.n_star, plan.m_star, plan.h_star,
            )
            assert 0.0 < plan.kappa_star < 1.0
            assert plan.n_star & (plan.n_star - 1) == 0
            assert plan.m_star & (plan.m_star - 1) == 0

    def test_statistical_error_near_tol_keeps_the_least_work_plan(self):
        # at (1024, 1) the statistical error takes 1 - 1e-10 of tol; a kappa
        # clamped at 1 - 1e-9 failed the plan's own variance check there
        c_alpha = confidence_constant(0.05)
        c = PilotConstants(
            c_q1=(0.01 * (1 - 1e-10) / c_alpha) ** 2 * 2**10,
            beta=0.0, c_q2=0.0, c_q3=0.0, delta=0.0,
        )
        plan = solve_allocation(c, 0.01, 0.05)
        assert (plan.n_star, plan.m_star) == (1024, 1)
        assert constraints_satisfied(c, 0.01, c_alpha, plan.kappa_star, 1024, 1, plan.h_star)

    def test_monotone_raw_allocation(self):
        c = PilotConstants(c_q1=53.1, beta=0.95, c_q2=0.0114, c_q3=0.207, delta=0.65)
        tols = [0.04 / 2**i for i in range(6)]
        plans = [solve_allocation(c, t, 0.05) for t in tols]
        raw_n = [p.n_raw for p in plans]
        raw_m = [p.m_raw for p in plans]
        n_star = [p.n_star for p in plans]
        assert all(a <= b for a, b in zip(raw_n, raw_n[1:]))
        assert all(a <= b for a, b in zip(raw_m, raw_m[1:]))
        assert all(a <= b for a, b in zip(n_star, n_star[1:]))

    def test_scaling_law_raw_slopes(self):
        for beta, delta in [(0.5, 0.5), (1.0, 1.0), (0.25, 0.75)]:
            c = PilotConstants(c_q1=2.0, beta=beta, c_q2=0.8, c_q3=1.5, delta=delta)
            lt, ln, lm = [], [], []
            for tol in [0.02 / 2**i for i in range(6)]:
                p = solve_allocation(c, tol, 0.05)
                lt.append(math.log(1 / tol))
                ln.append(math.log(p.n_raw))
                lm.append(math.log(p.m_raw))
            assert np.polyfit(lt, ln, 1)[0] == pytest.approx(2 / (1 + beta), abs=0.1)
            assert np.polyfit(lt, lm, 1)[0] == pytest.approx(1 / (1 + delta), abs=0.1)

    def test_dlmc_specialization_work_slope(self):
        c = PilotConstants(c_q1=53.1, beta=0.0, c_q2=0.0114, c_q3=0.207, delta=0.0)
        lt, lw = [], []
        for tol in [0.02 / 2 ** (i / 2) for i in range(8)]:
            p = solve_allocation(c, tol, 0.05)
            lt.append(math.log(1 / tol))
            lw.append(math.log(p.n_raw * p.m_raw))
        assert np.polyfit(lt, lw, 1)[0] == pytest.approx(3.0, abs=0.15)

    def test_infeasible_with_h_floor(self):
        c = PilotConstants(
            c_q1=1.0, beta=0.5, c_q2=0.5, c_q3=1.0, delta=0.5,
            c_disc=1.0, eta=2.0, gamma=2.0,
        )
        with pytest.raises(InfeasiblePlanError) as err:
            solve_allocation(c, 1e-3, 0.05, h_min=0.5)
        assert "discretization" in err.value.binding
        with pytest.raises(InfeasiblePlanError):
            brute_force_allocation(c, 1e-3, 0.05, h_min=0.5)

    @pytest.mark.parametrize("tol, h_min, name", [
        (math.nan, None, "tol"), (math.inf, None, "tol"), (0.0, None, "tol"),
        (-1e-3, None, "tol"), (1e-2, -0.1, "h_min"), (1e-2, 0.0, "h_min"),
        (1e-2, math.nan, "h_min"), (1e-2, math.inf, "h_min"),
    ])
    def test_non_finite_or_non_positive_budget_refused(self, tol, h_min, name):
        # eta = 1.5 makes a negative h_min's h_min**eta complex
        c = PilotConstants(c_q1=1.0, beta=0.5, c_q2=0.5, c_q3=0.1, delta=0.5,
                           c_disc=0.01, eta=1.5, gamma=1.0)
        for solver in (solve_allocation, brute_force_allocation):
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                solver(c, tol, 0.05, h_min=h_min)

    def test_predicted_work(self):
        c0 = PilotConstants(c_q1=1.0, beta=0.5, c_q2=0.1, c_q3=0.1, delta=0.5)
        plan = solve_allocation(c0, 0.05, 0.05)
        assert plan.predicted_work == plan.n_star * plan.m_star
        c1 = PilotConstants(
            c_q1=1.0, beta=0.5, c_q2=0.1, c_q3=0.1, delta=0.5,
            c_disc=1.0, eta=1.0, gamma=2.0,
        )
        plan1 = solve_allocation(c1, 0.05, 0.05)
        assert plan1.predicted_work == pytest.approx(
            plan1.n_star * plan1.m_star * plan1.h_star**-2.0
        )

    def test_chebyshev_constant(self):
        assert confidence_constant(0.05) == pytest.approx(1.959963984540054)
        assert confidence_constant(0.05, chebyshev=True) == pytest.approx(math.sqrt(20))


class TestContinuousOptimum:
    def test_mc_rates_closed_form(self):
        # beta = delta = 0: N(M) = C_a^2 (C_Q1 + C_Q2/M) / (T - C_Q3/M)^2 is
        # the least feasible N, and d(M N(M))/dM = 0 is a quadratic in 1/M
        c1, c2, c3, tol = 2.0, 0.8, 1.5, 0.01
        c = PilotConstants(c_q1=c1, beta=0.0, c_q2=c2, c_q3=c3, delta=0.0)
        plan = solve_allocation(c, tol, 0.05)
        t = tol * _TOL_MARGIN
        m = 4 * c2 * c3 / (
            math.sqrt(9 * c1**2 * c3**2 + 8 * c1 * c2 * c3 * t) - 3 * c1 * c3
        )
        n = C_ALPHA**2 * (c1 + c2 / m) / (t - c3 / m) ** 2
        assert plan.m_raw == pytest.approx(m, rel=1e-6)
        assert plan.n_raw == pytest.approx(n, rel=1e-6)
        assert plan.metadata["h_raw"] is None

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_outer_term_only_takes_one_inner_sample(self, beta):
        c = PilotConstants(c_q1=3.0, beta=beta, c_q2=0.0, c_q3=0.0, delta=0.5)
        tol = 5e-3
        plan = solve_allocation(c, tol, 0.05)
        n = (C_ALPHA**2 * 3.0 / (tol * _TOL_MARGIN) ** 2) ** (1 / (1 + beta))
        assert plan.m_raw == 1.0
        assert plan.n_raw == pytest.approx(n, rel=1e-9)

    @pytest.mark.parametrize("h_min", [None, 1e-2])
    def test_feasible_and_no_more_work_than_the_plan(self, h_min):
        feasible = 0
        for c, tol in criterion_six_sets():
            try:
                plan = solve_allocation(c, tol, 0.05, h_min=h_min)
            except InfeasiblePlanError:
                continue
            feasible += 1
            n, m, h = plan.n_raw, plan.m_raw, plan.metadata["h_raw"]
            assert n >= 1.0 and m >= 1.0
            assert (h is None) == (c.c_disc == 0)
            if h is not None and h_min is not None:
                assert h >= h_min
            stat = plan.c_alpha * math.sqrt(_stat_variance(c, n, m))
            assert stat + _bias_value(c, m, h) <= tol
            assert plan.metadata["kappa_analytic"] == pytest.approx(stat / tol)
            assert _work(c, n, m, h) <= plan.predicted_work
        assert feasible >= 48


class TestSolverVsOracle:
    def test_fifty_random_constant_sets(self):
        for c, tol in criterion_six_sets():
            plan = solve_allocation(c, tol, 0.05)
            oracle = brute_force_allocation(c, tol, 0.05)
            assert plan.predicted_work <= oracle.predicted_work
            for p in (plan, oracle):
                assert constraints_satisfied(
                    c, tol, p.c_alpha, p.kappa_star, p.n_star, p.m_star, p.h_star
                )

    def test_oracle_minimal_plan_when_tol_large(self):
        c = PilotConstants(c_q1=1e-8, beta=1.0, c_q2=1e-8, c_q3=1e-8, delta=1.0)
        oracle = brute_force_allocation(c, 0.5, 0.05)
        assert (oracle.n_star, oracle.m_star) == (1, 1)

    def test_oracle_grid_cap(self):
        c = PilotConstants(c_q1=1.0, beta=0.5, c_q2=0.5, c_q3=1.0, delta=0.5)
        with pytest.raises(ValueError, match="grid too large"):
            brute_force_allocation(c, 0.01, 0.05, grid_resolution=10**6)
