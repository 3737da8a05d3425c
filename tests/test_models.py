"""Forward models: compartmental drug model, linear-Gaussian, synthetic."""

import math

import numpy as np
import pytest

from nestiq.models import (
    ForwardModel,
    LinearGaussianModel,
    PKModel,
    SyntheticDiscretizedModel,
    pk_designs,
    pk_prior,
)


class TestPkForward:
    def test_reference_point(self):
        # 20 * (1/0.9) * (e^-0.1 - e^-1), re-keyed by hand
        out = PKModel().evaluate(np.array([1.0, 0.1, 20.0]), np.array([1.0]))
        assert out[0, 0] == pytest.approx(11.93239948587816, rel=1e-12)

    def test_equal_rates_limit(self):
        model = PKModel()
        out = model.evaluate(np.array([0.5, 0.5, 20.0]), np.array([2.0]))
        assert out[0, 0] == pytest.approx(20.0 * 0.5 * 2.0 * math.exp(-1.0), rel=1e-9)
        # continuity against a nearby regular evaluation
        near = model.evaluate(np.array([0.5, 0.5 + 1e-9, 20.0]), np.array([2.0]))
        assert out[0, 0] == pytest.approx(near[0, 0], rel=1e-6)

    def test_vanishes_at_time_zero(self):
        out = PKModel().evaluate(np.array([1.0, 0.1, 20.0]), np.array([1e-14]))
        assert abs(out[0, 0]) < 1e-10

    def test_positive_parameters_required(self):
        with pytest.raises(ValueError):
            PKModel().evaluate(np.array([-1.0, 0.1, 20.0]), np.array([1.0]))

    def test_jacobian_matches_central_differences(self):
        model = PKModel()
        prior = pk_prior()
        rng = np.random.default_rng(1)
        theta = prior.transform(rng.uniform(0.05, 0.95, size=(50, 3)))
        xi = pk_designs()[0]
        analytic = model.jacobian(theta, xi)
        fd = ForwardModel.jacobian(model, theta, xi)
        rel = np.abs(analytic - fd) / (np.abs(fd) + 1e-10)
        assert rel.max() < 1e-6

    def test_jacobian_near_equal_rates(self):
        model = PKModel()
        theta = np.array([[0.5, 0.5 * (1 + 1e-12), 20.0]])
        xi = np.array([1.0, 2.0])
        jac = model.jacobian(theta, xi)
        assert np.all(np.isfinite(jac))
        # limit formulas against a separation where the general quotient is
        # still numerically clean
        jac_near = model.jacobian(np.array([[0.5, 0.5 + 1e-5, 20.0]]), xi)
        np.testing.assert_allclose(jac, jac_near, rtol=1e-4, atol=1e-6)


def _pk_evaluate_reference(model, theta, xi):
    """Both branches in full, selected by np.where."""
    xi = xi[None, :]
    t1, t2, t3 = theta[:, 0:1], theta[:, 1:2], theta[:, 2:3]
    near = np.abs(t1 - t2) < 1e-10 * np.abs(t1)
    denom = np.where(near, 1.0, t1 - t2)
    general = (model.dose / t3) * (t1 / denom) * (np.exp(-t2 * xi) - np.exp(-t1 * xi))
    limit = (model.dose / t3) * t1 * xi * np.exp(-t1 * xi)
    return np.where(near, limit, general)


def _pk_jacobian_reference(model, theta, xi):
    """Both branches in full, selected by np.where."""
    xi = xi[None, :]
    t1, t2, t3 = theta[:, 0:1], theta[:, 1:2], theta[:, 2:3]
    near = np.abs(t1 - t2) < 1e-6 * np.abs(t1)
    denom = np.where(near, 1.0, t1 - t2)
    e1, e2 = np.exp(-t1 * xi), np.exp(-t2 * xi)
    diff = e2 - e1
    amp = model.dose / t3
    g = np.where(near, amp * t1 * xi * e1, amp * (t1 / denom) * diff)
    d1 = amp * (-t2 / denom**2 * diff + (t1 / denom) * xi * e1)
    d2 = amp * (t1 / denom**2 * diff - (t1 / denom) * xi * e2)
    d1_lim = amp * xi * e1 * (1.0 - 0.5 * t1 * xi)
    d2_lim = -amp * t1 * xi**2 * e1 * 0.5
    jac = np.empty(theta.shape[:1] + (xi.shape[1], 3))
    jac[:, :, 0] = np.where(near, d1_lim, d1)
    jac[:, :, 1] = np.where(near, d2_lim, d2)
    jac[:, :, 2] = -g / t3
    return jac


class TestPkKernelBits:
    """evaluate/jacobian compute the th1 ~ th2 limit on the near rows only,
    with the same operations in the same order as the full-branch forms."""

    @staticmethod
    def _theta(rows, near_rows):
        rng = np.random.default_rng(rows)
        theta = pk_prior().transform(rng.uniform(0.01, 0.99, size=(rows, 3)))
        idx = rng.choice(rows, size=3 * near_rows, replace=False)
        eq, n10, n6 = np.split(idx, 3)
        theta[eq, 1] = theta[eq, 0]  # exactly equal rates
        theta[n10, 1] = theta[n10, 0] * (1 + 1e-11)  # inside both windows
        theta[n6, 1] = theta[n6, 0] * (1 + 1e-8)  # inside the Jacobian's window only
        return theta

    @staticmethod
    def _check(design, theta):
        model, xi = PKModel(), pk_designs()[design]
        out, jac = model.evaluate(theta, xi), model.jacobian(theta, xi)
        # the Gauss-Newton products read both as C-contiguous batches
        assert out.flags.c_contiguous and jac.flags.c_contiguous
        np.testing.assert_array_equal(out, _pk_evaluate_reference(model, theta, xi))
        np.testing.assert_array_equal(jac, _pk_jacobian_reference(model, theta, xi))

    @pytest.mark.parametrize("design", [0, 1])
    @pytest.mark.parametrize("rows, near_rows", [(4096, 40), (257, 0), (9, 3), (1, 0)])
    def test_bit_identical_to_both_branch_forms(self, design, rows, near_rows):
        self._check(design, self._theta(rows, near_rows))

    @pytest.mark.parametrize("design", [0, 1])
    @pytest.mark.parametrize("layout", ["fortran", "column-slice"])
    def test_non_contiguous_theta(self, design, layout):
        theta = self._theta(2500, 9)  # several passes of the kernels, the last one partial
        if layout == "fortran":
            theta = np.asfortranarray(theta)
        else:  # rows of a wider array
            wide = np.zeros((theta.shape[0], 5))
            wide[:, 1:4] = theta
            theta = wide[:, 1:4]
        assert not theta.flags.c_contiguous
        self._check(design, theta)


def _pk_pass_reference(model, theta, xi):
    """The pass kernel evaluate used before it was built from output
    columns: (d_y, rows) planes of up to 1024 rows, updated in place."""
    xi = xi[:, None]
    out = np.empty((theta.shape[0], xi.shape[0]))
    for lo in range(0, theta.shape[0], 1024):
        t1, t2, t3 = theta[lo:lo + 1024].T
        near = np.abs(t1 - t2) < 1e-10 * np.abs(t1)
        denom = np.where(near, 1.0, t1 - t2)
        amp = model.dose / t3
        e1 = np.multiply(-t1, xi)
        np.exp(e1, out=e1)
        plane = np.multiply(-t2, xi)
        np.exp(plane, out=plane)
        plane -= e1
        plane *= amp * (t1 / denom)
        if near.any():
            plane[:, near] = amp[near] * t1[near] * xi * e1[:, near]
        out[lo:lo + 1024] = plane.T
    return out


class TestPkOutputColumns:
    """evaluate stacks the output columns; both keep the bits of the pass
    kernel, the th1 ~ th2 limit rows included."""

    @pytest.mark.parametrize("design", [0, 1])
    @pytest.mark.parametrize("rows, near_rows", [(4096, 40), (2500, 9), (9, 3)])
    def test_bit_identical_to_the_pass_kernel(self, design, rows, near_rows):
        model, xi = PKModel(), pk_designs()[design]
        theta = TestPkKernelBits._theta(rows, near_rows)
        want = _pk_pass_reference(model, theta, xi)
        np.testing.assert_array_equal(model.evaluate(theta, xi), want)
        # a (B, K, 3) batch yields (B, K) columns with the same bits
        b = rows // 3
        cols = list(model.output_columns(theta[:3 * b].reshape(b, 3, 3), xi))
        assert len(cols) == xi.size and cols[0].shape == (b, 3)
        np.testing.assert_array_equal(np.stack(cols, axis=-1).reshape(-1, xi.size), want[:3 * b])

    def test_positive_parameters_required(self):
        xi = pk_designs()[0]
        for bad in ([1.0, 0.0, 20.0], [-1.0, 0.1, 20.0]):
            with pytest.raises(ValueError, match="positive"):
                PKModel().output_columns(np.array([[1.0, 0.1, 20.0], bad]), xi)

    def test_default_columns_of_a_linear_model(self):
        model = LinearGaussianModel(matrix=np.arange(6.0).reshape(2, 3))
        theta = np.random.default_rng(3).normal(size=(4, 5, 3))
        cols = list(model.output_columns(theta, None))
        want = model.evaluate(theta.reshape(-1, 3)).reshape(4, 5, 2)
        assert len(cols) == 2
        np.testing.assert_array_equal(np.stack(cols, axis=-1), want)


class TestPkDesigns:
    def test_first_entries(self):
        geom, even = pk_designs()
        assert geom[0] == pytest.approx(0.94)
        assert even[0] == pytest.approx(0.3)

    def test_last_entries(self):
        geom, even = pk_designs()
        assert even[14] == pytest.approx(0.3 + 1.6 * 14)
        assert geom[14] == pytest.approx(0.94 * 1.25**14)
        assert geom[14] < 24.0  # all samples inside the 24 h window

    def test_lengths(self):
        geom, even = pk_designs()
        assert len(geom) == len(even) == 15


class TestPkPrior:
    def test_medians(self):
        prior = pk_prior()
        med = prior.median()
        np.testing.assert_allclose(med, [1.0, 0.1, 20.0])

    def test_samples_positive(self):
        prior = pk_prior()
        rng = np.random.default_rng(2)
        th = prior.transform(rng.uniform(0.001, 0.999, size=(2000, 3)))
        assert np.all(th > 0)

    def test_scale_readings(self):
        assert pk_prior("variance").components[0].b == pytest.approx(math.sqrt(0.05))
        assert pk_prior("stddev").components[0].b == pytest.approx(0.05)
        with pytest.raises(ValueError):
            pk_prior("guess")


class TestLinearGaussian:
    def test_identity(self):
        out = LinearGaussianModel(matrix=np.eye(2)).evaluate(np.array([1.0, 2.0]))
        np.testing.assert_allclose(out[0], [1.0, 2.0])

    def test_zero_map(self):
        out = LinearGaussianModel(matrix=np.zeros((2, 2))).evaluate(np.array([1.0, 2.0]))
        np.testing.assert_allclose(out[0], [0.0, 0.0])

    def test_jacobian_is_matrix(self):
        model = LinearGaussianModel(matrix=[[2.0, 1.0]])
        jac = model.jacobian(np.array([[0.3, 0.4]]))
        np.testing.assert_allclose(jac[0], [[2.0, 1.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LinearGaussianModel(matrix=np.eye(2)).evaluate(np.array([1.0]))


class TestSyntheticModel:
    def test_level_zero_limit(self):
        model = SyntheticDiscretizedModel()
        theta = np.array([[0.4]])
        xi = np.array([0.5, 1.0])
        base = model.evaluate(theta, xi, h=None)
        fine = model.evaluate(theta, xi, h=1e-6)
        np.testing.assert_allclose(fine, base, atol=1e-11)

    def test_halving_h_quarters_the_perturbation(self):
        model = SyntheticDiscretizedModel(eta=2.0)
        theta = np.array([[0.4]])
        xi = np.array([0.5, 1.0])
        base = model.evaluate(theta, xi, h=None)
        d1 = model.evaluate(theta, xi, h=0.4) - base
        d2 = model.evaluate(theta, xi, h=0.2) - base
        np.testing.assert_allclose(d1, 4.0 * d2, rtol=1e-12)

    def test_invalid_level(self):
        model = SyntheticDiscretizedModel()
        with pytest.raises(ValueError):
            model.evaluate(np.array([0.4]), np.array([0.5]), h=0.0)

    def test_jacobian_matches_central_differences(self):
        model = SyntheticDiscretizedModel(d_theta=2)
        rng = np.random.default_rng(3)
        theta = rng.uniform(0.1, 0.9, size=(20, 2))
        xi = np.array([0.5, 1.0])
        analytic = model.jacobian(theta, xi, h=0.3)
        fd = ForwardModel.jacobian(model, theta, xi, h=0.3)
        np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-7)


class TestDiscretizationBiasVisibility:
    """The level-h perturbation must surface as an eta-rate bias in the
    information-gain estimate."""

    def _problem(self, model, h):
        from nestiq.oed import OEDProblem
        from nestiq.stats import PriorSpec

        return OEDProblem(
            model=model,
            xi=np.array([0.5, 1.0]),
            prior=PriorSpec(components=(("uniform", 0.0, 1.0),)),
            noise_variances=[0.25, 0.25],
            h=h,
        )

    def test_quadrature_bias_slope_matches_eta(self):
        from nestiq.oed import eig_quadrature

        model = SyntheticDiscretizedModel(d_theta=1, c_disc=1.0, eta=2.0, gamma=2.0)
        ref = eig_quadrature(self._problem(model, None), 24, 24, 48)
        hs = [0.4, 0.2, 0.1]
        biases = [abs(eig_quadrature(self._problem(model, h), 24, 24, 48) - ref)
                  for h in hs]
        slope = np.polyfit(np.log2(hs), np.log2(biases), 1)[0]
        assert slope == pytest.approx(model.eta, abs=0.3)

    def test_estimator_bias_slope_matches_eta(self):
        # common randomization across levels cancels the statistical error,
        # leaving the deterministic level bias
        from nestiq.lds import RandomizationKey
        from nestiq.oed import eig_nested

        model = SyntheticDiscretizedModel(d_theta=1, c_disc=1.0, eta=2.0, gamma=2.0)
        key = RandomizationKey(9, tag="disc")
        base = eig_nested(self._problem(model, 1e-5), 2**10, 2**6, S=4, R=1, key=key)
        hs = [0.4, 0.2, 0.1]
        biases = [
            abs(eig_nested(self._problem(model, h), 2**10, 2**6, S=4, R=1,
                           key=key).estimate - base.estimate)
            for h in hs
        ]
        slope = np.polyfit(np.log2(hs), np.log2(biases), 1)[0]
        assert slope == pytest.approx(model.eta, abs=0.3)
