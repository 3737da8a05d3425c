"""Pilot fits, the error-split cubic, and the allocation solver vs oracle."""

import math

import numpy as np
import pytest

from nestiq.allocation import (
    FitQualityError,
    InfeasiblePlanError,
    PilotConstants,
    _M_CAP,
    _continuous_m_h,
    _work,
    brute_force_allocation,
    confidence_constant,
    constraints_satisfied,
    fit_bias_constant,
    fit_pilot_inner,
    fit_pilot_outer,
    fit_variance_power_law,
    solve_allocation,
    solve_kappa,
)
from nestiq.estimators import NestedProblem
from nestiq.lds import RandomizationKey

C_ALPHA = confidence_constant(0.05)


def toy_problem():
    def g(y, x, h):
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

    def test_bias_constant_exact(self):
        ms = [16, 32, 64, 128]
        b = [2.0 * m**-2.0 for m in ms]
        assert fit_bias_constant(ms, b, 1.0) == pytest.approx(2.0, abs=1e-9)


class TestPilotRuns:
    def test_inner_pilot_prepares_once_with_the_same_result(self):
        from nestiq.models import PKModel, pk_designs, pk_prior
        from nestiq.oed import OEDProblem, build_nested_problem

        problem = OEDProblem(model=PKModel(), xi=pk_designs()[0],
                             prior=pk_prior("variance"), noise_variances=np.full(15, 0.01))
        nested = build_nested_problem(problem, family="is")
        prepared = []
        prepare = nested.prepare
        nested.prepare = lambda y, h: prepared.append(y.shape) or prepare(y, h)
        folded = NestedProblem(
            d1=nested.d1, d2=nested.d2, outer_map="log", inner_is_log=True,
            inner=lambda y, x, h: nested.inner(prepare(y, h), x, h),
        )
        key = RandomizationKey(8, tag="prep")
        fit = fit_pilot_inner(nested, [8, 16], 4, 8, key)
        # once a rung (2 rungs and the reference), on every (row, replicate) pair
        assert prepared == [(4 * 8, nested.d1)] * 3
        assert fit == fit_pilot_inner(folded, [8, 16], 4, 8, key)

    def test_outer_pilot_on_toy(self):
        fit = fit_pilot_outer(
            toy_problem(), [32, 128, 512], 64, 16, RandomizationKey(3, tag="po")
        )
        c_q1, beta = fit
        assert c_q1 > 0 and 0.0 <= beta <= 1.0
        # smooth toy: clearly better than the iid rate
        assert beta > 0.4

    def test_outer_pilot_rejects_tiny_s(self):
        with pytest.raises(ValueError, match="S >= 8"):
            fit_pilot_outer(toy_problem(), [32, 128], 8, 4, RandomizationKey(0))

    def test_outer_pilot_flags_nondecreasing_ladder(self):
        # integrand amplitude grows with the rung size, so the variance
        # ladder increases instead of decaying
        def g(y, x, h):
            amp = float(y.shape[0]) ** 2
            return np.broadcast_to(
                amp * (y[:, 0] - 0.5)[:, None], x.shape[:2]
            ).copy()

        prob = NestedProblem(d1=1, d2=1, inner=g, outer_map="identity")
        with pytest.raises(FitQualityError, match="not decreasing"):
            fit_pilot_outer(prob, [32, 128, 512], 4, 8, RandomizationKey(6))

    def test_inner_pilot_on_toy(self):
        fit = fit_pilot_inner(
            toy_problem(), [8, 32, 128], 8, 16, RandomizationKey(4, tag="pi")
        )
        c_q2, c_q3, delta = fit
        assert c_q2 > 0 and c_q3 >= 0 and 0.0 <= delta <= 1.0

    def test_inner_pilot_zero_bias_low_confidence(self):
        # identity outer map has no inner-induced bias: the measured rung
        # biases are pure replicate noise and the fit must say so
        def g(y, x, h):
            return y[:, 0][:, None] * x[:, :, 0]

        prob = NestedProblem(d1=1, d2=1, inner=g, outer_map="identity")
        fit = fit_pilot_inner(prob, [8, 32], 8, 16, RandomizationKey(3, tag="zb"))
        assert fit.low_confidence
        # the fitted constant is noise-scale, far below the variance constant
        assert abs(fit.c_q3) < 0.1
        assert max(fit.rung_biases) < 1e-3

    def test_inner_pilot_exact_inner_stays_finite(self):
        # a constant inner integrand has no inner variance at any rung, as
        # importance sampling from an exact Gaussian posterior does
        def g(y, x, h):
            return np.full(x.shape[:2], 2.0)

        prob = NestedProblem(d1=1, d2=1, inner=g, outer_map="log")
        c_q2, c_q3, delta = fit_pilot_inner(prob, [8, 32], 4, 8, RandomizationKey(5))
        assert math.isfinite(delta) and 0.0 <= delta <= 1.0
        assert 0.0 <= c_q2 < 1e-28 and c_q3 == 0.0

    def test_inner_pilot_rounding_bias_not_significant(self):
        # identical replicates give standard errors of 0; a bias at the
        # rounding resolution must not count as resolved from noise
        def g(y, x, h):
            return np.full(x.shape[:2], 2.0)

        prob = NestedProblem(d1=1, d2=1, inner=g, outer_map="log")
        fit = fit_pilot_inner(prob, [8, 32], 4, 8, RandomizationKey(5))
        assert fit.low_confidence is True


class TestSolveKappa:
    def test_matches_grid_oracle_no_disc(self):
        c = PilotConstants(c_q1=1.0, beta=0.5, c_q2=0.5, c_q3=1.0, delta=0.5)
        n = 4000.0
        k = solve_kappa(c, n, 0.01, C_ALPHA)
        k_grid = self._grid_oracle(c, n, 0.01)
        assert 0.0 < k < 1.0
        assert abs(k - k_grid) < 1e-3

    def test_feasible_after_halving_tol(self):
        c = PilotConstants(c_q1=1.0, beta=0.5, c_q2=0.5, c_q3=1.0, delta=0.5)
        for tol in (0.01, 0.005):
            k = solve_kappa(c, 40000.0, tol, C_ALPHA)
            assert 0.0 < k < 1.0
            m, h = _continuous_m_h(c, k, 40000.0, tol, C_ALPHA, 0.5)
            assert constraints_satisfied(c, tol, C_ALPHA, k, 40000.0, m, h)

    def test_degenerate_inner_constant_uses_grid(self):
        c = PilotConstants(
            c_q1=1.0, beta=0.5, c_q2=0.0, c_q3=1.0, delta=0.5,
            c_disc=1.0, eta=1.0, gamma=1.0,
        )
        k = solve_kappa(c, 4000.0, 0.01, C_ALPHA)
        k_grid = self._grid_oracle(c, 4000.0, 0.01)
        assert abs(k - k_grid) < 1e-3

    @staticmethod
    def _grid_oracle(c, n, tol, grid=100000):
        best_k, best_w = None, math.inf
        for k in np.arange(1, grid) / grid:
            vb = (k * tol / C_ALPHA) ** 2
            if n * vb - c.c_q1 / n**c.beta <= 0:
                continue
            m, h = _continuous_m_h(c, k, n, tol, C_ALPHA, 0.5)
            if m >= _M_CAP:
                continue
            w = _work(c, n, m, h)
            if w < best_w:
                best_k, best_w = float(k), w
        return best_k


class TestSolveAllocation:
    def test_raw_m_formula_and_rounding(self):
        # at kappa = 0.5 the full bias budget gives raw M = (1/0.01)^(1/2) = 10,
        # which rounds up to 16
        from nestiq.allocation import _ceil_pow2

        c = PilotConstants(c_q1=1e-12, beta=1.0, c_q2=1e-12, c_q3=1.0, delta=1.0)
        m_raw, h = _continuous_m_h(c, 0.5, 4.0, 0.02, C_ALPHA, 0.5)
        assert h is None
        assert m_raw == pytest.approx(10.0, rel=1e-9)
        assert _ceil_pow2(m_raw) == 16

    def test_approximate_n_seed_and_rounding(self):
        # variance dominated by the outer term: raw N = (C_a^2 C_Q1/(k tol)^2)^(1/2)
        # = (4/0.01)^(1/2) = 20 at C_alpha = 2, kappa -> 1, which rounds to 32
        from nestiq.allocation import _ceil_pow2, _n_seed

        c = PilotConstants(c_q1=1.0, beta=1.0, c_q2=0.0, c_q3=1e-15, delta=1.0)
        n_raw = _n_seed(c, 1.0, 0.1, 2.0)
        assert n_raw == pytest.approx(20.0, rel=1e-12)
        assert _ceil_pow2(n_raw) == 32

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


class TestSolverVsOracle:
    def test_fifty_random_constant_sets(self):
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
            tol = float(10 ** rng.uniform(-3, -1))
            plan = solve_allocation(c, tol, 0.05)
            oracle = brute_force_allocation(c, tol, 0.05)
            assert plan.predicted_work <= 1.05 * oracle.predicted_work
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
