"""Single-loop and nested estimators, their rates, and the quadrature oracle."""

import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestiq import estimators
from nestiq.estimators import (
    InnerUnderflowError,
    NestedProblem,
    dlmc_estimate,
    mc_estimate,
    rdlqmc_estimate,
    rqmc_estimate,
    tensor_quadrature_reference,
)
from nestiq.lds import RandomizationKey
from nestiq.stats import replicate_variance

KEY = RandomizationKey(42, tag="est")


def toy_problem():
    """g(y, x) = exp(x y) with outer log; smooth and strictly positive."""

    def g(y, x):
        return np.exp(x[:, :, 0] * y[:, 0][:, None])

    return NestedProblem(d1=1, d2=1, inner=g, outer_map="log")


def toy_log_problem():
    def g(y, x):
        return x[:, :, 0] * y[:, 0][:, None]

    return NestedProblem(d1=1, d2=1, inner=g, outer_map="log", inner_is_log=True)


TOY_ORACLE = tensor_quadrature_reference(toy_problem(), 32, 32)


def dlmc_rows(problem, N, M, R=1):
    """The N row values of one iid randomization, in task order."""
    pieces = estimators._nested_values(problem, N, M, 1, R, KEY, KEY, "mc")
    return estimators._joined([v for _, v in pieces])


class TestMcEstimate:
    def test_constant_integrand(self):
        r = mc_estimate(lambda p: np.full(p.shape[0], 7.0), 1, 50, KEY)
        assert r.estimate == 7.0 and r.variance_of_mean == 0.0

    def test_linear_integrand_ci(self):
        r = mc_estimate(lambda p: p[:, 0], 1, 2**14, KEY)
        assert abs(r.estimate - 0.5) < 4 * r.stderr

    def test_rmse_slope_half(self):
        ms = [2**k for k in range(6, 13)]
        rmse = []
        for m in ms:
            sq = [
                (mc_estimate(lambda p: p[:, 0] ** 2, 1, m,
                             RandomizationKey(s).child(m)).estimate - 1 / 3) ** 2
                for s in range(100)
            ]
            rmse.append(math.sqrt(np.mean(sq)))
        slope = np.polyfit(np.log2(ms), np.log2(rmse), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)

    def test_result_invariants(self):
        r = mc_estimate(lambda p: p[:, 0], 2, 256, KEY)
        assert r.estimate == pytest.approx(float(np.mean(r.replicate_values)))
        assert r.stderr == pytest.approx(math.sqrt(r.variance_of_mean))
        assert r.work == 256


class TestRqmcEstimate:
    def test_linear_integrand_tight(self):
        r = rqmc_estimate(lambda p: p[:, 0], 1, 2**10, 8, KEY)
        assert abs(r.estimate - 0.5) < 1e-3
        assert r.stderr < 1e-3

    def test_constant_exact(self):
        r = rqmc_estimate(lambda p: np.full(p.shape[0], 2.5), 1, 64, 4, KEY)
        assert r.estimate == 2.5 and r.variance_of_mean == 0.0

    def test_scrambling_unbiased(self):
        vals = np.array([
            rqmc_estimate(lambda p: p[:, 0] ** 3, 1, 64, 1,
                          RandomizationKey(s, tag="unb")).estimate
            for s in range(1000)
        ])
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 0.25) < 4 * se

    def test_power_of_two_required(self):
        with pytest.raises(ValueError, match="power of two"):
            rqmc_estimate(lambda p: p[:, 0], 1, 100, 2, KEY)

    def test_variance_uses_replicates(self):
        r = rqmc_estimate(lambda p: p[:, 0] ** 2, 1, 256, 8, KEY)
        assert r.variance_of_mean == pytest.approx(
            replicate_variance(r.replicate_values)
        )


class TestDlmcEstimate:
    def test_identity_outer_equals_grand_mean(self):
        def g(y, x):
            return y[:, 0][:, None] * x[:, :, 0]

        prob = NestedProblem(d1=1, d2=1, inner=g, outer_map="identity")
        r = dlmc_estimate(prob, 500, 8, KEY)
        assert abs(r.estimate - 0.25) < 5 * r.stderr

    def test_log_outer_toy_value(self):
        def g(y, x):
            return y[:, 0][:, None] * x[:, :, 0]

        prob = NestedProblem(d1=1, d2=1, inner=g, outer_map="log")
        analytic = -1.0 - math.log(2.0)  # integral of log(y/2) dy by parts
        with pytest.warns(UserWarning, match="not converged"):
            oracle = tensor_quadrature_reference(prob, 48, 48)
        # the outer integrand has a log endpoint singularity; fixed-order
        # quadrature only gets within ~1e-4 and says so via the warning
        assert oracle == pytest.approx(analytic, abs=1e-3)
        r = dlmc_estimate(prob, 4096, 4096, KEY)
        assert abs(r.estimate - analytic) < 4 * r.stderr + 1e-3

    def test_m1_matches_joint_mc_distribution(self):
        prob = toy_log_problem()  # log g = x*y, f = log -> value x*y
        means_nested, means_joint = [], []
        for s in range(200):
            k = RandomizationKey(s, tag="m1")
            means_nested.append(dlmc_estimate(prob, 256, 1, k).estimate)
            means_joint.append(
                mc_estimate(lambda p: p[:, 0] * p[:, 1], 2, 256, k).estimate
            )
        a, b = np.array(means_nested), np.array(means_joint)
        se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(200)
        assert abs(a.mean() - b.mean()) < 4 * se

    def test_underflow_error_directs_to_log_form(self):
        def g(y, x):
            return x[:, :, 0] - 2.0  # inner mean < 0

        prob = NestedProblem(d1=1, d2=1, inner=g, outer_map="log")
        with pytest.raises(InnerUnderflowError, match="log"):
            dlmc_estimate(prob, 16, 4, KEY)

    @settings(max_examples=20, deadline=None)
    @given(
        N=st.integers(2, 2**13 + 100), M=st.integers(1, 8), R=st.integers(1, 3),
        offset=st.sampled_from([0.0, 1.0, -1e3, 1e6]),
    )
    def test_streamed_variance_is_the_rows_variance(self, N, M, R, offset):
        """The running sums of the rows give their variance of the mean, far
        from zero too; replicate_values hold the one mean."""

        def g(y, x):
            return offset + x[:, :, 0] * y[:, 0][:, None]

        prob = NestedProblem(d1=1, d2=1, inner=g, outer_map="identity")
        res = rdlqmc_estimate(prob, N, M, 1, R, KEY, sampler="mc")
        rows = dlmc_rows(prob, N, M, R)
        assert res.variance_of_mean == pytest.approx(replicate_variance(rows), rel=1e-12)
        assert res.replicate_values.shape == (1,)

    def test_identical_rows_have_exactly_zero_variance(self):
        prob = NestedProblem(d1=1, d2=1, inner=lambda y, x: np.full(x.shape[:2], 0.3))
        res = dlmc_estimate(prob, 2**13 + 100, 4, KEY)  # three chunks
        assert res.variance_of_mean == 0.0 and res.stderr == 0.0

    def test_one_row_has_no_variance(self):
        res = dlmc_estimate(toy_problem(), 1, 4, KEY)
        assert res.variance_of_mean is None and res.stderr is None


class TestRdlqmcEstimate:
    def test_constant_inner_exact(self):
        def g(y, x):
            return np.full(x.shape[:2], 3.0)

        prob = NestedProblem(d1=1, d2=1, inner=g, outer_map="identity")
        r = rdlqmc_estimate(prob, 16, 8, 4, 2, KEY)
        assert r.estimate == pytest.approx(3.0, abs=1e-12)
        assert r.variance_of_mean == pytest.approx(0.0, abs=1e-24)

    def test_toy_accuracy(self):
        r = rdlqmc_estimate(toy_problem(), 2**10, 2**7, 8, 1, KEY)
        assert abs(r.estimate - TOY_ORACLE) < 1e-3

    def test_single_randomization_reproduces_production_form(self):
        r1 = rdlqmc_estimate(toy_problem(), 2**8, 2**4, 1, 1, KEY)
        assert r1.variance_of_mean is None and r1.stderr is None
        assert r1.replicate_values.shape == (1,)

    def test_identity_m1_matches_rqmc_joint_distribution(self):
        def g(y, x):
            return y[:, 0][:, None] * x[:, :, 0]

        prob = NestedProblem(d1=1, d2=1, inner=g, outer_map="identity")
        nested, joint = [], []
        for s in range(200):
            k = RandomizationKey(s, tag="collapse")
            nested.append(rdlqmc_estimate(prob, 128, 1, 1, 1, k).estimate)
            joint.append(
                rqmc_estimate(lambda p: p[:, 0] * p[:, 1], 2, 128, 1, k).estimate
            )
        a, b = np.array(nested), np.array(joint)
        se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(200)
        assert abs(a.mean() - b.mean()) < 4 * se

    def test_work_accounting(self):
        def g(y, x):
            return np.ones(x.shape[:2])

        prob = NestedProblem(d1=1, d2=1, inner=g, outer_map="identity",
                             h=0.5, gamma=2.0)
        r = rdlqmc_estimate(prob, 8, 4, 3, 2, KEY)
        assert r.work == 8 * 4 * 3 * 2 * 0.5**-2

    def test_determinism_across_thread_counts(self):
        before = os.environ.get("NESTIQ_THREADS")
        try:
            os.environ["NESTIQ_THREADS"] = "1"
            r1 = rdlqmc_estimate(toy_problem(), 2**9, 2**4, 4, 2, KEY)
            os.environ["NESTIQ_THREADS"] = "8"
            r8 = rdlqmc_estimate(toy_problem(), 2**9, 2**4, 4, 2, KEY)
        finally:
            if before is None:
                os.environ.pop("NESTIQ_THREADS", None)
            else:
                os.environ["NESTIQ_THREADS"] = before
        np.testing.assert_array_equal(r1.replicate_values, r8.replicate_values)
        assert r1.estimate == r8.estimate


class TestRates:
    def test_variance_slope_separation_in_n(self):
        """Outer-variance decay: scrambled nets beat iid sampling.

        The inner contribution decays only like 1/N, so M is kept large
        enough for the outer term to dominate over the tested range.
        """
        ns = [2**k for k in range(5, 10)]
        v_q, v_mc = [], []
        for n in ns:
            r = rdlqmc_estimate(toy_problem(), n, 256, 32, 1,
                                RandomizationKey(n, tag="vq"))
            v_q.append(32 * r.variance_of_mean)
            runs = [
                dlmc_estimate(toy_problem(), n, 8,
                              RandomizationKey(1000 + 97 * n + s)).estimate
                for s in range(32)
            ]
            v_mc.append(np.var(runs, ddof=1))
        slope_q = np.polyfit(np.log2(ns), np.log2(v_q), 1)[0]
        slope_mc = np.polyfit(np.log2(ns), np.log2(v_mc), 1)[0]
        assert slope_q <= -1.5
        assert slope_mc == pytest.approx(-1.0, abs=0.45)

    def test_inner_bias_slope_separation_in_m(self):
        """Inner-induced outer bias: quadratic-in-discrepancy vs 1/M."""
        rng_key = RandomizationKey(7, tag="bias")
        n, reps = 256, 200
        ms = [2, 4, 8, 16, 32]

        def gbar(y):  # analytic inner integral of exp(x y)
            return np.where(np.abs(y) < 1e-12, 1.0, (np.exp(y) - 1.0) / np.maximum(np.abs(y), 1e-300))

        bias_q, bias_mc = [], []
        for m in ms:
            dq, dmc = [], []
            for rep in range(reps):
                k = rng_key.child(m, rep)
                y = k.uniforms((n, 1), salt="outer")
                prob = toy_problem()
                from nestiq.estimators import _inner_blocks, default_sobol_params

                spl = "rqmc-sobol-owen"
                x = _inner_blocks(prob, 0, n, m, 1, 0, k, spl, default_sobol_params())
                g = np.exp(x[:, :, 0] * y)
                dq.append(np.mean(np.log(g.mean(axis=1)) - np.log(gbar(y[:, 0]))))
                xm = k.uniforms((n, m, 1), salt="mc-inner")
                gm = np.exp(xm[:, :, 0] * y)
                dmc.append(np.mean(np.log(gm.mean(axis=1)) - np.log(gbar(y[:, 0]))))
            bias_q.append(abs(np.mean(dq)))
            bias_mc.append(abs(np.mean(dmc)))
        slope_q = np.polyfit(np.log2(ms), np.log2(bias_q), 1)[0]
        slope_mc = np.polyfit(np.log2(ms), np.log2(bias_mc), 1)[0]
        assert slope_q <= -1.5
        assert slope_mc == pytest.approx(-1.0, abs=0.2)

    def test_inner_randomization_unbiased_at_fixed_outer(self):
        """Mean over inner rescrambles equals the analytic inner integral."""
        from nestiq.estimators import _inner_blocks, default_sobol_params

        key = RandomizationKey(5, tag="fixed-outer")
        y = np.array([[0.7]])
        prob = toy_problem()
        spl = "rqmc-sobol-owen"
        means = []
        for rep in range(500):
            x = _inner_blocks(prob, 0, 1, 8, 1, rep, key, spl, default_sobol_params())
            means.append(np.exp(x[0, :, 0] * 0.7).mean())
        means = np.array(means)
        truth = (math.exp(0.7) - 1.0) / 0.7
        se = means.std(ddof=1) / math.sqrt(means.size)
        assert abs(means.mean() - truth) < 4 * se


class TestVarianceInequality:
    def test_dependent_sum_bounded_by_j_times_sum(self):
        rng = np.random.default_rng(11)
        j = 6
        trials = 10**4
        shared = rng.normal(size=trials)
        xs = [0.8 * shared + 0.6 * rng.normal(size=trials) for _ in range(j)]
        total_var = np.var(np.sum(xs, axis=0), ddof=1)
        bound = j * sum(np.var(x, ddof=1) for x in xs)
        assert total_var <= 1.1 * bound

    def test_fully_dependent_sum_attains_bound(self):
        rng = np.random.default_rng(12)
        j = 5
        x = rng.normal(size=10**4)
        total_var = np.var(j * x, ddof=1)
        bound = j * (j * np.var(x, ddof=1))
        assert total_var == pytest.approx(bound, rel=1e-9)

    def test_independent_sum_is_additive(self):
        rng = np.random.default_rng(13)
        j = 6
        xs = [rng.normal(scale=1 + i, size=10**4) for i in range(j)]
        total_var = np.var(np.sum(xs, axis=0), ddof=1)
        additive = sum(np.var(x, ddof=1) for x in xs)
        assert total_var == pytest.approx(additive, rel=0.1)
        assert total_var <= 1.1 * j * additive


class TestQuadratureOracle:
    def test_unit_integrand(self):
        prob = NestedProblem(d1=1, d2=1,
                             inner=lambda y, x: np.ones(x.shape[:2]),
                             outer_map="identity")
        assert tensor_quadrature_reference(prob, 8, 8) == pytest.approx(1.0)

    def test_product_integrand(self):
        def g(y, x):
            return y[:, 0][:, None] * x[:, :, 0]

        prob = NestedProblem(d1=1, d2=1, inner=g, outer_map="identity")
        assert tensor_quadrature_reference(prob, 16, 16) == pytest.approx(
            0.25, abs=1e-12
        )

    def test_no_inner_dimension(self):
        # d2 = 0: each outer row's inner block is empty, its rule one node
        prob = NestedProblem(d1=1, d2=0,
                             inner=lambda y, x: np.repeat(y, x.shape[1], axis=1),
                             outer_map="identity")
        assert tensor_quadrature_reference(prob, 8, 8) == pytest.approx(0.5, abs=1e-15)

    def test_log_toy_stable_under_doubling(self):
        a = tensor_quadrature_reference(toy_problem(), 24, 24)
        b = tensor_quadrature_reference(toy_problem(), 48, 48)
        assert abs(a - b) < 1e-10

    def test_dimension_limits(self):
        prob = NestedProblem(d1=4, d2=1,
                             inner=lambda y, x: np.ones(x.shape[:2]),
                             outer_map="identity")
        with pytest.raises(ValueError):
            tensor_quadrature_reference(prob, 8, 8)


class TestWorkModel:
    def test_dlmc_work_is_n_times_m(self):
        def g(y, x):
            return np.ones(x.shape[:2])

        prob = NestedProblem(d1=1, d2=1, inner=g, outer_map="identity")
        assert dlmc_estimate(prob, 10, 7, KEY).work == 70

    def test_doubling_n_doubles_work(self):
        def g(y, x):
            return np.ones(x.shape[:2])

        prob = NestedProblem(d1=1, d2=1, inner=g, outer_map="identity")
        w1 = rdlqmc_estimate(prob, 8, 4, 1, 1, KEY).work
        w2 = rdlqmc_estimate(prob, 16, 4, 1, 1, KEY).work
        assert w2 == 2 * w1


class TestChunking:
    def test_outer_rows_are_slices_of_the_scrambled_set(self, monkeypatch):
        from nestiq import estimators
        from nestiq.lds import owen_scramble, sobol_sequence

        seen = []

        def g(y, x):
            seen.append(y.copy())
            return np.ones(x.shape[:2])

        monkeypatch.setattr(estimators, "_CHUNK", 8)
        monkeypatch.setenv("NESTIQ_THREADS", "1")
        prob = NestedProblem(d1=2, d2=1, inner=g, outer_map="identity")
        rdlqmc_estimate(prob, 64, 4, 2, 1, KEY)
        assert len(seen) == 2 * 64 // 8 and all(y.shape == (8, 2) for y in seen)
        base = sobol_sequence(estimators.default_sobol_params(), 2, 6)
        want = np.concatenate(
            [owen_scramble(base, KEY.child("outer", s)).values for s in range(2)]
        )
        np.testing.assert_array_equal(np.concatenate(seen), want)

    @pytest.mark.parametrize("kind", ["mc"])
    @pytest.mark.parametrize("N, lo, hi", [(64, 0, 8), (64, 24, 40), (64, 63, 64), (12, 8, 12)])
    def test_outer_rows_generated_alone(self, kind, N, lo, hi):
        from nestiq import estimators

        prob = NestedProblem(d1=2, d2=1, inner=None)
        got = estimators._outer_points(prob, N, 3, KEY, kind, None, lo, hi)
        whole = KEY.child("outer", 3).uniforms((N, 2), salt="y")
        np.testing.assert_array_equal(got, whole[lo:hi])


class TestSharedChunks:
    """Below one chunk of rows, several outer randomizations share a chunk,
    one inner call and one MAP batch; each randomization's mean must keep
    the bits it has when evaluated alone."""

    @staticmethod
    def _pk_problem():
        from nestiq.models import PKModel, pk_designs, pk_prior
        from nestiq.oed import OEDProblem, build_nested_problem

        problem = OEDProblem(model=PKModel(), xi=pk_designs()[0],
                             prior=pk_prior("variance"), noise_variances=np.full(15, 0.01))
        return build_nested_problem(problem, family="is")

    @staticmethod
    def _alone(problem, N, M, S, R, key, sampler, chunk):
        """Replicate means with every randomization evaluated on its own, in
        pieces of at most `chunk` rows."""
        from nestiq import estimators

        params = estimators.default_sobol_params()
        sums = np.zeros(S)
        for s in range(S):
            for lo in range(0, N, chunk):
                hi = min(lo + chunk, N)
                y = estimators._outer_points(problem, N, s, key, sampler, params, lo, hi)
                x = estimators._inner_blocks(problem, lo, hi, M, R, s, key, sampler, params)
                sums[s] += estimators._outer_values(problem, y, x).sum()
        return sums / N

    @pytest.mark.parametrize("sampler, chunk, N, S, calls", [
        ("rqmc-sobol-owen", 4096, 16, 8, [128]),
        ("rqmc-sobol-owen", 8, 4, 5, [8, 8, 4]),
        ("rqmc-sobol-owen", 8, 8, 3, [8, 8, 8]),
        ("mc", 8, 3, 5, [6, 6, 3]),  # two whole randomizations a chunk
        ("mc", 8, 12, 2, [8, 4, 8, 4]),  # pieces never cross randomizations
    ])
    def test_replicates_bit_identical_to_one_randomization_at_a_time(
        self, sampler, chunk, N, S, calls, monkeypatch
    ):
        from nestiq import estimators

        monkeypatch.setattr(estimators, "_CHUNK", chunk)
        monkeypatch.setenv("NESTIQ_THREADS", "1")
        problem = self._pk_problem()
        seen = []
        inner = problem.inner
        problem.inner = lambda state, x: seen.append(x.shape[0]) or inner(state, x)
        res = rdlqmc_estimate(problem, N, 4, S, 2, KEY, sampler=sampler)
        assert seen == calls
        problem.inner = inner
        np.testing.assert_array_equal(
            res.replicate_values, self._alone(problem, N, 4, S, 2, KEY, sampler, chunk)
        )

    def test_thread_count_does_not_change_bits(self, monkeypatch):
        from nestiq import estimators

        monkeypatch.setattr(estimators, "_CHUNK", 8)
        problem = self._pk_problem()
        monkeypatch.setenv("NESTIQ_THREADS", "1")
        one = rdlqmc_estimate(problem, 4, 4, 5, 1, KEY).replicate_values
        monkeypatch.setenv("NESTIQ_THREADS", "2")
        two = rdlqmc_estimate(problem, 4, 4, 5, 1, KEY).replicate_values
        np.testing.assert_array_equal(one, two)


class TestChunkMemory:
    """The executor hands the integrand at most _INNER_BLOCK inner points a
    call: blocks of whole rows, or parts of one row whose R * M points
    exceed a block.  Neither the blocks nor the thread count move a bit."""

    @staticmethod
    def _spy(monkeypatch):
        """(rows, points, groups) of every _outer_values call."""
        from nestiq import estimators

        calls = []
        outer_values = estimators._outer_values

        def spied(problem, y, x, groups=1, state=None):
            calls.append((x.shape[0], x.shape[1], groups))
            return outer_values(problem, y, x, groups, state)

        monkeypatch.setattr(estimators, "_outer_values", spied)
        return calls

    def test_rows_fit_the_budget_in_powers_of_two(self, monkeypatch):
        from nestiq import estimators

        monkeypatch.setenv("NESTIQ_THREADS", "1")
        calls = self._spy(monkeypatch)
        block, n = estimators._INNER_BLOCK, 4
        # eig-wide-inner's (M, R): 64 whole rows a block; the inner pilot's
        # top rung: a row in parts of 16 replicates; M above the block: a
        # replicate in two parts
        for (M, R), per_replicate in itertools.product(
                [(256, 1), (16, 4), (2048, 32), (2**15, 2)], [False, True]):
            calls.clear()
            if per_replicate:
                estimators._inner_replicates(toy_log_problem(), n, M, R, KEY, KEY)
            else:
                rdlqmc_estimate(toy_log_problem(), n, M, 1, R, KEY)
            assert sum(b * k for b, k, _ in calls) == n * R * M
            for b, k, _ in calls:
                assert b * k <= block
                assert b & (b - 1) == 0 and k & (k - 1) == 0
                # a row wider than a block comes in parts of that row alone
                assert R * M <= block or b == 1

    def test_large_inner_plan_stays_under_ceiling(self, monkeypatch):
        import tracemalloc

        from nestiq import estimators

        monkeypatch.setenv("NESTIQ_THREADS", "1")
        prob = toy_log_problem()
        N, M = 1024, 1024  # one call on the whole chunk would hold 8 MiB of raw values
        tracemalloc.start()
        try:
            res = rdlqmc_estimate(prob, N, M, 1, 1, KEY)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20  # the scramble kernel's tables take 0.75 MiB of it
        # the same plan in one call moves no bit
        monkeypatch.setattr(estimators, "_INNER_BLOCK", N * M)
        whole = rdlqmc_estimate(prob, N, M, 1, 1, KEY)
        assert res.estimate == whole.estimate

    def test_dlmc_large_inner_plan_stays_under_ceiling(self, monkeypatch):
        import tracemalloc

        monkeypatch.setenv("NESTIQ_THREADS", "1")
        prob = toy_log_problem()
        rows = []
        inner = prob.inner
        prob.inner = lambda y, x: rows.append(x.shape[0]) or inner(y, x)
        N, M = 1024, 1024  # 16 rows a block of 2^14 points
        tracemalloc.start()
        try:
            res = dlmc_estimate(prob, N, M, KEY)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == [16] * 64
        assert peak < 2 << 20
        assert abs(res.estimate - TOY_ORACLE) < 5 * res.stderr + 1e-4

    def test_dlmc_rows_do_not_depend_on_the_chunks(self, monkeypatch):
        monkeypatch.setenv("NESTIQ_THREADS", "1")
        whole = dlmc_rows(toy_problem(), 100, 16)
        assert whole.shape == (100,)
        # 16-row blocks, then parts of 5 points of one row
        for block in (16 * 16, 5):
            monkeypatch.setattr(estimators, "_INNER_BLOCK", block)
            np.testing.assert_array_equal(dlmc_rows(toy_problem(), 100, 16), whole)

    @pytest.mark.parametrize("sampler", ["mc", "rqmc-sobol-owen"])
    def test_inner_replicate_rows_do_not_depend_on_the_chunks(self, sampler, monkeypatch):
        from nestiq import estimators

        monkeypatch.setenv("NESTIQ_THREADS", "1")
        inner_key = KEY.child("inner")
        whole = estimators._inner_replicates(toy_problem(), 64, 16, 4, KEY, inner_key, sampler)
        assert whole.shape == (64, 4)
        # 8-row blocks; parts of two replicates and of one; parts of 5
        # points, each replicate spanning four blocks
        for block in (8 * 4 * 16, 40, 5):
            monkeypatch.setattr(estimators, "_INNER_BLOCK", block)
            blocked = estimators._inner_replicates(
                toy_problem(), 64, 16, 4, KEY, inner_key, sampler)
            np.testing.assert_array_equal(blocked, whole)

    def test_dlmc_reduces_the_points_of_the_mc_sampler(self):
        """dlmc_estimate is rdlqmc_estimate(S=1, R=1, sampler="mc"): the same
        points and the same reduction."""
        res = dlmc_estimate(toy_problem(), 2**13 + 100, 8, KEY)  # three chunks
        ref = rdlqmc_estimate(toy_problem(), 2**13 + 100, 8, 1, 1, KEY, sampler="mc")
        assert (res.estimate, res.stderr, res.work) == (ref.estimate, ref.stderr, ref.work)
        np.testing.assert_array_equal(res.replicate_values, ref.replicate_values)

    @pytest.mark.parametrize("estimate", [
        lambda N: rdlqmc_estimate(toy_log_problem(), N, 1, 1, 1, KEY),
        lambda N: dlmc_estimate(toy_log_problem(), N, 1, KEY),
    ], ids=["rqmc-sobol-owen", "mc"])
    def test_memory_does_not_grow_with_the_outer_count(self, estimate):
        """2^20 outer rows, 256 chunks: each chunk's values are reduced as it
        finishes, so the peak is a few chunks' worth, not 8 bytes a row."""
        import tracemalloc

        estimate(2**12)  # the process-wide block and the tables, once
        tracemalloc.start()
        try:
            res = estimate(2**20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(res.estimate)
        assert peak < 2 << 20

    def test_executor_keeps_a_bounded_window(self, monkeypatch):
        """The executor submits at most two tasks per thread ahead of the
        consumer: when the first segment arrives, most of 16 tasks have not
        run."""
        monkeypatch.setattr(estimators, "_CHUNK", 8)
        monkeypatch.setenv("NESTIQ_THREADS", "2")
        prepared = []

        def prepare(y):
            prepared.append(len(y))
            return y

        prob = NestedProblem(d1=1, d2=1, inner=lambda y, x: x[:, :, 0] * y,
                             outer_map="identity", prepare=prepare)
        segments = iter(estimators._nested_values(prob, 16 * 8, 4, 1, 1, KEY, KEY, "mc"))
        next(segments)
        assert len(prepared) <= 2 * 2 + 1
        assert sum(1 for _ in segments) == 15 and prepared == [8] * 16

    @pytest.mark.parametrize("caller", ["pilot", "spread"])
    def test_inner_replicates_honour_the_byte_cap(self, caller, monkeypatch):
        """The inner pilot and the spread diagnostic block like the estimate:
        no inner call gets more than one block of points, and neither the
        blocks nor the thread count move a bit."""
        from nestiq import estimators, oed
        from nestiq.allocation import fit_pilot_inner
        from nestiq.models import PKModel, pk_designs, pk_prior

        problem = oed.OEDProblem(model=PKModel(), xi=pk_designs()[0],
                                 prior=pk_prior("variance"), noise_variances=np.full(15, 0.01))
        key = RandomizationKey(11, tag="cap")
        seen = []
        build = oed.build_nested_problem

        def spied(*args, **kwargs):
            nested = build(*args, **kwargs)
            inner = nested.inner
            nested.inner = lambda state, x: seen.append(x.shape) or inner(state, x)
            return nested

        monkeypatch.setattr(oed, "build_nested_problem", spied)
        if caller == "pilot":  # 16 fixed rows, R = 8, largest rung M = 32

            def run():
                nested = oed.build_nested_problem(problem, family="is")
                return fit_pilot_inner(nested, [16, 32], 16, 8, key)
        else:  # N = 16, M = 64, R = 4

            def run():
                return oed.inner_replicate_spread(problem, 16, 64, 4, key=key)

        monkeypatch.setenv("NESTIQ_THREADS", "1")
        whole = run()
        whole_calls = len(seen)
        # parts of whole replicates; parts of 5 points, one replicate spanning blocks
        for block in (40, 5):
            seen.clear()
            monkeypatch.setattr(estimators, "_INNER_BLOCK", block)
            capped = run()
            assert len(seen) > whole_calls  # the block split the rows
            assert all(b * k <= block for b, k, _ in seen)
            assert capped == whole
        monkeypatch.setenv("NESTIQ_THREADS", "2")
        assert run() == whole

    def test_wide_inner_pk_estimate_stays_under_16_mib(self, monkeypatch):
        """The eig-wide-inner estimate (even design, N = 4096, M = 256, one
        4096-row chunk) holds one block's inner points at a time."""
        import tracemalloc

        from nestiq.models import PKModel, pk_designs, pk_prior
        from nestiq.oed import OEDProblem, eig_importance_sampled

        monkeypatch.setenv("NESTIQ_THREADS", "1")
        problem = OEDProblem(model=PKModel(), xi=pk_designs()[1],
                             prior=pk_prior("variance"), noise_variances=np.full(15, 0.01))
        tracemalloc.start()
        try:
            res = eig_importance_sampled(problem, 4096, 256, S=1, R=1, key=KEY)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(res.estimate - 10.2065) < 0.03
        assert peak < 16 << 20


class TestPinnedStreams:
    """Values recorded once every stream was indexed by (randomization, row,
    replicate): moving the loops must move no random stream and no
    reduction order.  The scrambled-net pilot pin predates that change,
    which moved only iid streams; it was re-recorded when the posterior-mode
    tolerance became 1e-6, which moves every mode in its last digits, and
    again when the Laplace factor came from forward substitution and the
    proposal points from column arithmetic, which moved its first rung's
    variance by 2.9e-13 relative, and again when the tolerance became 1e-3
    (a decrement of 1e-6), which moved its rung variances by up to 2.0e-4
    relative, and again when the Gaussian misfit was summed one output
    column at a time, in time order, which moved them in the last digits."""

    def test_dlmc_over_two_chunks(self):
        # the rows' digest was recorded on replicate_values when those held
        # the rows; the stderr, now from the rows' running sums, has the bits
        # it had from replicate_variance of the rows
        import hashlib

        res = dlmc_estimate(toy_log_problem(), 2**13, 4, KEY)  # two 4096-row chunks
        assert res.estimate.hex() == "0x1.0bb85838cf3bcp-2"
        assert res.stderr.hex() == "0x1.fbed98028b70dp-10"
        assert hashlib.sha256(dlmc_rows(toy_log_problem(), 2**13, 4).tobytes()).hexdigest() == (
            "c74939234f44fba28b3970d539cef594c5dd18c4ef90f02adc15f049f8090367"
        )

    def test_rdlqmc_mc_sampler(self):
        res = rdlqmc_estimate(toy_problem(), 64, 8, 2, 2, KEY, sampler="mc")
        assert [v.hex() for v in res.replicate_values] == [
            "0x1.2c1210e17e948p-2", "0x1.05efa9b594142p-2",
        ]

    def test_rdlqmc_outer_rows_below_the_table_levels(self):
        # two 4096-row chunks of a 2^13-point outer set: each chunk takes
        # levels 0-11 of the scramble tree from the node table and level 12
        # point by point; recorded before the node-table kernel
        res = rdlqmc_estimate(toy_log_problem(), 2**13, 4, 2, 1, KEY)
        assert [v.hex() for v in res.replicate_values] == [
            "0x1.0dd5e2877389cp-2", "0x1.0dfd4faa1d0d8p-2",
        ]

    def test_pk_inner_pilot(self):
        from nestiq.allocation import fit_pilot_inner

        nested = TestSharedChunks._pk_problem()
        fit = fit_pilot_inner(nested, [32, 64], 4, 8, RandomizationKey(5, tag="pin"))
        assert [v.hex() for v in fit.rung_variances] == [
            "0x1.4b81064f3833bp-17", "0x1.a5395cddde5a9p-19",
        ]
        assert (fit.c_q2.hex(), fit.c_q3.hex(), fit.delta.hex()) == (
            "0x1.90568225f949dp-7", "0x1.90568225f949dp-8", "0x1.4f128cc5b4aa4p-1",
        )



@pytest.mark.parametrize("estimator, counts, message", [
    ("dlmc", (0, 4), "N must be >= 1, got 0"),
    ("dlmc", (64, 0), "M must be >= 1, got 0"),
    ("rdlqmc", (0, 4, 1, 1), "N must be >= 1, got 0"),
    ("rdlqmc", (64, 0, 1, 1), "M must be >= 1, got 0"),
    ("rdlqmc", (64, 4, 0, 1), "S must be >= 1, got 0"),
    ("rdlqmc", (64, 4, 1, 0), "R must be >= 1, got 0"),
])
def test_empty_counts_refused(estimator, counts, message):
    with pytest.raises(ValueError, match=message):
        if estimator == "dlmc":
            dlmc_estimate(toy_problem(), *counts, KEY)
        else:
            rdlqmc_estimate(toy_problem(), *counts, KEY, sampler="mc")


def test_unknown_sampler_rejected():
    with pytest.raises(ValueError, match="unknown sampler kind 'rqmc-lattice-shift'"):
        rdlqmc_estimate(toy_problem(), 64, 4, 1, 1, KEY, sampler="rqmc-lattice-shift")
