"""Distribution transforms, truncation, and replicate statistics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest, norm

from nestiq.stats import (
    PriorComponent,
    PriorSpec,
    TruncationSetting,
    inv_norm_cdf,
    log_sum_exp,
    norm_cdf,
    replicate_variance,
    truncated_inv_norm_cdf,
    truncation_radius,
)


def _bisect_inv_cdf(u, lo=-40.0, hi=40.0):
    """Independent oracle: bisection on the erf-based normal CDF."""
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if norm_cdf(mid) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestInvNormCdf:
    def test_median(self):
        assert inv_norm_cdf(0.5) == 0.0

    def test_quantile_0975(self):
        # frozen from the bisection oracle (and re-derived here)
        assert inv_norm_cdf(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
        assert inv_norm_cdf(0.975) == pytest.approx(_bisect_inv_cdf(0.975), abs=1e-9)

    def test_antisymmetry(self):
        u = np.linspace(0.01, 0.49, 25)
        np.testing.assert_allclose(inv_norm_cdf(u), -inv_norm_cdf(1 - u), atol=1e-12)

    def test_accuracy_over_wide_range(self):
        u = np.concatenate([
            np.array([1e-300, 1e-100, 1e-30, 1e-10, 1e-5]),
            np.linspace(1e-4, 1 - 1e-4, 999),
            1.0 - np.array([1e-16, 1e-12, 1e-8, 1e-5]),
        ])
        err = np.abs(inv_norm_cdf(u) - norm.ppf(u))
        assert err.max() < 1e-9

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                inv_norm_cdf(bad)

    @pytest.mark.parametrize("bad", [
        math.nan,
        np.array([0.5, np.nan]),
        np.array([[np.nan, 0.25], [0.5, 0.75]]),
        np.array([0.5, 1.0, np.nan]),
    ])
    def test_nan_rejected(self, bad):
        with pytest.raises(ValueError):
            inv_norm_cdf(bad)

    def test_empty_input_passes_through(self):
        assert inv_norm_cdf(np.empty((0, 3))).shape == (0, 3)


class TestTruncatedInvCdf:
    def test_center(self):
        assert truncated_inv_norm_cdf(0.5, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_endpoints(self):
        assert truncated_inv_norm_cdf(0.0, 3.0) == pytest.approx(-3.0, abs=1e-9)
        assert truncated_inv_norm_cdf(1.0, 3.0) == pytest.approx(3.0, abs=1e-9)

    def test_against_bisection_oracle(self):
        c = 2.0
        z = 2.0 * norm_cdf(c) - 1.0

        def trunc_cdf(x):
            return (norm_cdf(x) - norm_cdf(-c)) / z

        lo, hi = -c, c
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if trunc_cdf(mid) < 0.75:
                lo = mid
            else:
                hi = mid
        assert truncated_inv_norm_cdf(0.75, c) == pytest.approx(
            0.5 * (lo + hi), abs=1e-9
        )

    def test_converges_to_untruncated(self):
        u = np.arange(0.01, 1.0, 0.01)
        diff = np.abs(truncated_inv_norm_cdf(u, 40.0) - inv_norm_cdf(u))
        assert diff.max() < 1e-8

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            truncated_inv_norm_cdf(0.5, 0.0)

    @pytest.mark.parametrize("bad", [
        -0.1, 1.1, math.nan, np.array([0.5, np.nan]), np.array([0.0, np.nan, 1.0]),
    ])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError, match="requires u in"):
            truncated_inv_norm_cdf(bad, 2.0)


class TestTruncationRadius:
    def test_exact_values(self):
        assert truncation_radius(math.exp(-2), 1.0) == pytest.approx(math.sqrt(8.0))
        assert truncation_radius(math.exp(-1), 1.0) == pytest.approx(2.0)

    def test_vanishes_as_tol_to_one(self):
        assert truncation_radius(1 - 1e-12, 1.0) < 1e-5

    def test_setting_carries_radius(self):
        t = TruncationSetting(enabled=True, p=1.0, tol=math.exp(-1))
        assert t.radius == pytest.approx(2.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            truncation_radius(0.0, 1.0)
        with pytest.raises(ValueError):
            truncation_radius(0.5, 0.0)


class TestMapToPrior:
    """Inverse-CDF map of unit-cube rows onto the prior (PriorSpec.transform)."""

    def test_uniform_midpoint(self):
        prior = PriorSpec(components=(("uniform", 0.0, 2.0),))
        assert prior.transform(np.array([[0.5]]))[0, 0] == 1.0

    def test_lognormal_median(self):
        prior = PriorSpec(components=(("lognormal", 0.0, 0.05),))
        assert prior.transform(np.array([[0.5]]))[0, 0] == pytest.approx(1.0)

    def test_normal_quantile(self):
        prior = PriorSpec(components=(("normal", 3.0, 2.0),))
        out = prior.transform(np.array([[0.975]]))[0, 0]
        assert out == pytest.approx(3.0 + 2.0 * 1.959963984540054, abs=1e-8)

    def test_dimension_mismatch(self):
        prior = PriorSpec(components=(("uniform", 0.0, 1.0),))
        with pytest.raises(ValueError):
            prior.transform(np.zeros((4, 2)) + 0.5)

    @pytest.mark.parametrize(
        "comp,cdf",
        [
            (("uniform", -1.0, 3.0), lambda x: (x + 1) / 4),
            (("normal", 1.0, 2.0), lambda x: norm.cdf(x, loc=1, scale=2)),
            (("lognormal", 0.2, 0.7), lambda x: norm.cdf(np.log(x), loc=0.2, scale=0.7)),
        ],
    )
    def test_grid_quantiles_match_distribution(self, comp, cdf):
        prior = PriorSpec(components=(comp,))
        u = ((np.arange(10**4) + 0.5) / 10**4)[:, None]
        samples = prior.transform(u)[:, 0]
        assert kstest(cdf(samples), "uniform").statistic < 0.02

    def test_invariants(self):
        with pytest.raises(ValueError):
            PriorComponent("uniform", 1.0, 1.0)
        with pytest.raises(ValueError):
            PriorComponent("normal", 0.0, 0.0)


class TestLogSumExp:
    def test_pair_of_zeros(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2.0))

    def test_no_underflow(self):
        assert log_sum_exp([-1000.0, -1000.0]) == pytest.approx(-1000.0 + math.log(2.0))

    def test_minus_inf_entries(self):
        assert log_sum_exp([0.0, -np.inf]) == 0.0
        assert log_sum_exp([-np.inf, -np.inf]) == -np.inf

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_sum_exp([])

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=20),
        st.floats(-100, 100),
    )
    @settings(max_examples=100, deadline=None)
    def test_translation_identity(self, values, shift):
        v = np.array(values)
        assert log_sum_exp(v + shift) == pytest.approx(
            log_sum_exp(v) + shift, abs=1e-12
        )

    def test_axis_version(self):
        a = np.log(np.array([[1.0, 3.0], [2.0, 2.0]]))
        np.testing.assert_allclose(log_sum_exp(a, axis=1), np.log([4.0, 4.0]))


class TestReplicateVariance:
    def test_identical_replicates(self):
        assert replicate_variance([3.0, 3.0]) == 0.0

    def test_two_values(self):
        assert replicate_variance([0.0, 1.0]) == pytest.approx(0.25)

    def test_three_values_literal_formula(self):
        # direct evaluation: mean 2, squared deviations sum 2, R(R-1) = 6
        assert replicate_variance([1.0, 2.0, 3.0]) == pytest.approx(2.0 / 6.0)

    def test_requires_two(self):
        with pytest.raises(ValueError):
            replicate_variance([1.0])

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=12), st.floats(0.1, 10))
    @example(values=[0.1] * 3, scale=0.109375)
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariant_and_scaling(self, values, scale):
        v = np.array(values)
        base = replicate_variance(v)
        shuffled = replicate_variance(v[::-1])
        assert shuffled == pytest.approx(base, rel=1e-12, abs=1e-300)
        assert replicate_variance(scale * v) == pytest.approx(
            scale**2 * base, rel=1e-9, abs=1e-300
        )
