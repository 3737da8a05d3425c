"""Information-gain machinery: likelihood, Laplace, and the estimator family."""

import math
from dataclasses import replace

import numpy as np
import pytest

from nestiq.estimators import NestedProblem
from nestiq.lds import RandomizationKey
from nestiq.models import (
    ForwardModel,
    LinearGaussianModel,
    PKModel,
    SyntheticDiscretizedModel,
    pk_designs,
    pk_prior,
)
import nestiq.oed as oed
from nestiq.oed import (
    LaplaceFitError,
    OEDProblem,
    _precision_cholesky,
    closed_form_entropy_term,
    eig_conjugate_oracle,
    eig_importance_sampled,
    eig_laplace_only,
    eig_nested,
    eig_quadrature,
    inner_replicate_spread,
)
from nestiq.stats import PriorComponent, PriorSpec, TruncationSetting, inv_norm_cdf

TRUTH = 0.5 * math.log(2.0)


def linear_gaussian_problem(n_experiments=1, prior_var=1.0, noise_var=1.0):
    return OEDProblem(
        model=LinearGaussianModel(matrix=[[1.0]]),
        xi=np.zeros(0),
        prior=PriorSpec(components=(("normal", 0.0, math.sqrt(prior_var)),)),
        noise_variances=[noise_var],
        n_experiments=n_experiments,
    )


class QuadraticModel(ForwardModel):
    """Mildly nonlinear scalar observable theta + 0.1 theta^2."""

    d_theta = 1
    d_y = 1

    def evaluate(self, theta, xi=None, h=None):
        theta = np.atleast_2d(theta)
        return theta + 0.1 * theta**2

    def jacobian(self, theta, xi=None, h=None):
        theta = np.atleast_2d(theta)
        return (1.0 + 0.2 * theta)[:, :, None]


def _loglik(problem, y, theta):
    """_batch_loglik of one (d_y, N_e) data set at one parameter vector."""
    g = problem.model.evaluate(np.asarray(theta, dtype=np.float64)[None, :], problem.xi)
    y_data = np.asarray(y, dtype=np.float64).T[None, :, :]
    return float(oed._batch_loglik(problem, y_data, np.moveaxis(g[:, None, :], -1, 0))[0, 0])


def _map_one(problem, y, init):
    """The posterior mode of one (d_y, N_e) data set: _map_batch on a
    one-row batch."""
    y_data = np.asarray(y, dtype=np.float64).T[None, :, :]
    theta, _ = oed._map_batch(problem, y_data, np.asarray(init, dtype=np.float64)[None, :])
    return theta[0]


def _laplace_cov(problem, theta):
    """U U^T of _laplace_batch's factor at one point, from the Gauss-Newton
    Hessian in theta built there."""
    theta = np.asarray(theta, dtype=np.float64)[None, :]
    hess = oed._gauss_newton_system(problem, theta)[0]
    cov_chol, _ = oed._laplace_batch(problem, theta, hess=hess)
    return cov_chol[0] @ cov_chol[0].T


class TestLogLikelihood:
    def test_zero_residual(self):
        p = linear_gaussian_problem()
        val = _loglik(p, np.array([[0.0]]), np.array([0.0]))
        assert val == pytest.approx(-0.5 * math.log(2 * math.pi))

    def test_quadratic_penalty(self):
        p = linear_gaussian_problem()
        base = _loglik(p, np.array([[0.0]]), np.array([0.0]))
        val = _loglik(p, np.array([[2.0]]), np.array([0.0]))
        assert val == pytest.approx(base - 2.0)

    def test_additive_over_experiments(self):
        p3 = linear_gaussian_problem(n_experiments=3)
        val = _loglik(p3, np.zeros((1, 3)), np.array([0.0]))
        single = -0.5 * math.log(2 * math.pi)
        assert val == pytest.approx(3 * single)


def _contracted_loglik(problem, y_data, g):
    """The misfit as one contraction of the whole (B, K, N_e, d_y)
    residual, the form the column fold replaced."""
    r = y_data[:, None, :, :] - g[:, :, None, :]
    r *= r
    quad = np.einsum("bkij,j->bk", r, 1.0 / problem.noise_variances)
    const = float(-(problem.n_experiments / 2.0)
                  * np.sum(np.log(2.0 * math.pi * problem.noise_variances)))
    return const - 0.5 * quad


class TestColumnMisfit:
    """_batch_loglik folds the model's output columns into the misfit one
    at a time; it must agree with the whole-residual contraction."""

    @staticmethod
    def _check(problem, theta):
        key = RandomizationKey(41)
        b = theta.shape[0]
        u = key.uniforms((b, problem.d_outer), salt="y")
        g_true = problem.model.evaluate(problem.prior.transform(u[:, :problem.d_theta]),
                                        problem.xi)
        y_data = g_true[:, None, :] + oed._noise_values(problem, u[:, problem.d_theta:])
        got = oed._batch_loglik(problem, y_data, problem.model.output_columns(theta, problem.xi))
        g = problem.model.evaluate(theta.reshape(-1, theta.shape[-1]), problem.xi)
        want = _contracted_loglik(problem, y_data, g.reshape(theta.shape[:-1] + g.shape[-1:]))
        assert got.shape == theta.shape[:-1]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("design", [0, 1])
    @pytest.mark.parametrize("n_experiments", [1, 2])
    def test_pk_columns(self, design, n_experiments):
        problem = OEDProblem(model=PKModel(), xi=pk_designs()[design], prior=pk_prior("variance"),
                             noise_variances=np.linspace(0.005, 0.02, 15),
                             n_experiments=n_experiments)
        u = RandomizationKey(42).uniforms((64, 32, 3), salt="x")
        self._check(problem, problem.prior.transform(u))

    def test_linear_gaussian_default_columns(self):
        matrix = np.arange(12.0).reshape(4, 3) / 10.0 - 0.5
        problem = OEDProblem(
            model=LinearGaussianModel(matrix=matrix), xi=np.zeros(0),
            prior=PriorSpec(components=(("normal", 0.0, 1.0),) * 3),
            noise_variances=[0.5, 1.0, 2.0, 0.25], n_experiments=3,
        )
        u = RandomizationKey(43).uniforms((16, 8, 3), salt="x")
        self._check(problem, problem.prior.transform(u))


class TestEntropyTerm:
    def test_unit_variance(self):
        assert closed_form_entropy_term(1, [1.0]) == pytest.approx(
            -0.5 * (math.log(2 * math.pi) + 1.0)
        )

    def test_linear_in_experiments(self):
        one = closed_form_entropy_term(1, [0.3, 0.7])
        assert closed_form_entropy_term(2, [0.3, 0.7]) == pytest.approx(2 * one)

    @pytest.mark.parametrize("var", [0.01, 1.0, 4.0])
    def test_matches_hermite_quadrature(self, var):
        # independent oracle: E[log phi_sigma] under phi_sigma by Gauss-Hermite
        t, w = np.polynomial.hermite.hermgauss(60)
        eps = math.sqrt(2 * var) * t
        logpdf = -0.5 * np.log(2 * math.pi * var) - eps**2 / (2 * var)
        oracle = float(np.sum(w * logpdf) / math.sqrt(math.pi))
        assert closed_form_entropy_term(1, [var]) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_non_finite_or_non_positive_variance_refused(self, bad):
        with pytest.raises(ValueError, match="noise variances must be positive and finite"):
            closed_form_entropy_term(1, [0.3, bad])
        with pytest.raises(ValueError, match="noise variances must be positive and finite"):
            linear_gaussian_problem(noise_var=bad)

    def test_example_noise_vector(self):
        val = closed_form_entropy_term(1, np.full(15, 0.01))
        assert val == pytest.approx(-(15 / 2) * (math.log(0.02 * math.pi) + 1.0))


class TestSimulateData:
    """Data G(theta) + noise, the noise mapped from unit-cube coordinates by
    _noise_values as every outer row's data is."""

    def test_zero_noise(self):
        p = linear_gaussian_problem()
        g = p.model.evaluate(np.array([[0.7]]), p.xi)
        y = g[:, None, :] + oed._noise_values(p, np.array([[0.5]]))
        np.testing.assert_allclose(y, [[[0.7]]])

    def test_truncated_noise_support(self):
        t = TruncationSetting(enabled=True, p=1.0, tol=math.exp(-2))  # c = sqrt(8)
        p = OEDProblem(
            model=LinearGaussianModel(matrix=[[1.0]]),
            xi=np.zeros(0),
            prior=PriorSpec(components=(("normal", 0.0, 1.0),)),
            noise_variances=[4.0],
            truncation=t,
        )
        u = RandomizationKey(0).uniforms((50, 1), salt="data")
        u = np.concatenate([u, [[2.0**-64], [1.0 - 2.0**-53]]])  # the extreme coordinates
        noise = oed._noise_values(p, u)
        assert noise.shape == (52, 1, 1)
        assert np.all(np.abs(noise) <= t.radius * 2.0 + 1e-12)

    def test_deterministic_from_key(self):
        p = linear_gaussian_problem(n_experiments=2)
        k = RandomizationKey(9)
        a, b = (oed._noise_values(p, k.uniforms((4, 2), salt="data")) for _ in range(2))
        assert a.shape == (4, 2, 1)
        np.testing.assert_array_equal(a, b)


class TestMapEstimate:
    def test_conjugate_posterior_mean(self):
        # prior N(0,1), unit noise, y = 2: posterior mean = 1
        p = linear_gaussian_problem()
        assert _map_one(p, np.array([[2.0]]), np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-8)

    def test_zero_residual_optimum(self):
        prior = PriorSpec(components=(("normal", 0.0, 100.0),))  # near-flat
        p = OEDProblem(
            model=LinearGaussianModel(matrix=[[1.0]]), xi=np.zeros(0),
            prior=prior, noise_variances=[1.0],
        )
        th = _map_one(p, np.array([[0.7]]), np.array([0.5]))
        assert th[0] == pytest.approx(0.7, abs=1e-3)

    def test_stationary_start_returns_immediately(self):
        calls = {"n": 0}

        class Counting(LinearGaussianModel):
            def evaluate(self, theta, xi=None, h=None):
                calls["n"] += 1
                return super().evaluate(theta, xi, h)

        p = OEDProblem(
            model=Counting(matrix=[[1.0]]), xi=np.zeros(0),
            prior=PriorSpec(components=(("normal", 0.0, 1.0),)),
            noise_variances=[1.0],
        )
        _map_one(p, np.array([[2.0]]), np.array([1.0]))
        # the initial objective only: a zero Newton decrement is converged
        assert calls["n"] == 1

    def test_pk_map_recovers_truth_at_small_noise(self):
        model = PKModel()
        geom = pk_designs()[0]
        prior = pk_prior()
        p = OEDProblem(model=model, xi=geom, prior=prior,
                       noise_variances=np.full(15, 1e-6))
        theta_true = np.array([1.05, 0.095, 19.5])
        y = model.evaluate(theta_true[None, :], geom)[0][:, None]
        median = prior.transform(np.full(3, 0.5))
        th = _map_one(p, y, median)
        np.testing.assert_allclose(th, theta_true, rtol=1e-3)


class CubicModel(ForwardModel):
    """Scalar observable theta^3: a Gauss-Newton step from a small theta
    overshoots far past the mode."""

    d_theta = 1
    d_y = 1

    def evaluate(self, theta, xi=None, h=None):
        return np.atleast_2d(theta) ** 3

    def jacobian(self, theta, xi=None, h=None):
        return (3.0 * np.atleast_2d(theta) ** 2)[:, :, None]


def _map_reference(problem, y_data, init, max_iter=100):
    """The whole-batch damped Gauss-Newton loop that _map_batch replaced:
    every iteration evaluates every row, and the damping loop keeps stepping
    accepted rows while any other row is rejected.  A row has converged when
    its Newton decrement grad^T H^-1 grad lies in [0, _MAP_TOL**2], after
    at least one step unless the decrement is exactly 0, and a damping lam
    of 0 gives the undamped step."""
    theta = np.array(init, dtype=np.float64)
    b = theta.shape[0]
    inv_s2 = 1.0 / problem.noise_variances
    lower = problem.prior.support_lower()
    upper = problem.prior.support_upper()
    lam = np.zeros(b)
    obj = oed._neg_log_post(problem, theta, y_data)[0]
    converged = np.zeros(b, dtype=bool)
    iters = np.zeros(b, dtype=np.int64)
    for it in range(max_iter + 1):
        g = problem.model.evaluate(theta, problem.xi, problem.h)
        jac = problem.model.jacobian(theta, problem.xi, problem.h)
        rsum = (y_data - g[:, None, :]).sum(axis=1)
        at = np.swapaxes(jac * inv_s2[None, :, None], 1, 2)
        grad = -(at @ rsum[:, :, None])[:, :, 0] - problem.prior.grad_logpdf(theta)
        hess = problem.n_experiments * (at @ jac)
        hd = -problem.prior.hess_diag_logpdf(theta)
        hess[:, np.arange(problem.d_theta), np.arange(problem.d_theta)] += hd
        dec = -np.sum(grad * np.linalg.solve(hess, -grad[..., None])[..., 0], axis=1)
        converged |= (dec >= 0) & (dec <= oed._MAP_TOL**2) & ((it > 0) | (dec == 0))
        if converged.all():
            break
        if it == max_iter:
            bad = int(np.nonzero(~converged)[0][0])
            raise oed.MapConvergenceError(
                "reference", theta_last=theta[bad],
                grad_norm=float(np.max(np.abs(grad[bad]))), index=bad,
            )
        iters[~converged] = it + 1
        eye = np.eye(problem.d_theta)[None, :, :]
        for _ in range(8):
            active = ~converged
            if not active.any():
                break
            step = np.linalg.solve(hess + lam[:, None, None] * eye, -grad[..., None])[..., 0]
            tiny = np.all(np.abs(step) <= 1e-14 * (1.0 + np.abs(theta)), axis=1)
            converged |= tiny & active & (lam <= 1e-3)
            trial = theta + np.where(active[:, None], step, 0.0)
            inside = np.all((trial > lower) & (trial < upper), axis=1)
            safe = np.where(inside[:, None], trial, theta)
            trial_obj = np.where(inside, oed._neg_log_post(problem, safe, y_data)[0], np.inf)
            slack = 1e-12 * (1.0 + np.abs(obj))
            better = inside & (trial_obj <= obj + slack) & active
            theta = np.where(better[:, None], trial, theta)
            obj = np.where(better, np.minimum(trial_obj, obj), obj)
            decayed = np.where(lam * 0.3 < 1e-12, 0.0, lam * 0.3)
            lam = np.where(better, decayed, np.clip(lam * 10.0, 1e-8, 1e12))
            if (better | converged).all():
                break
    return theta, iters


def _pk_map_inputs(design, n, seed):
    """n PK data sets simulated from prior draws, and those draws as starts."""
    xi = pk_designs()[design]
    problem = OEDProblem(model=PKModel(), xi=xi, prior=pk_prior("variance"),
                         noise_variances=np.full(15, 0.01))
    u = RandomizationKey(seed).uniforms((n, problem.d_outer), salt="map")
    theta = problem.prior.transform(u[:, :3])
    g = problem.model.evaluate(theta, problem.xi)
    y_data = g[:, None, :] + oed._noise_values(problem, u[:, 3:])
    return problem, y_data, theta


class _TabulatedJacobian(ForwardModel):
    """A stub whose Jacobian at a parameter row is the row of a (B, n, d)
    table that its first coordinate indexes."""

    def __init__(self, jac):
        self.jac, self.d_theta = jac, jac.shape[2]

    def jacobian(self, theta, xi=None, h=None):
        return self.jac[theta[:, 0].astype(np.int64)]


def _tabulated_system(jac, rsum):
    """_gauss_newton_system's inputs for a table of Jacobians and residual
    sums: unit noise, one experiment and a flat prior, so the Hessian is
    sum_i J_i^T J_i and the gradient term sum_i J_i rsum_i exactly."""
    b, n, d = jac.shape
    problem = OEDProblem(model=_TabulatedJacobian(jac), xi=np.zeros(0),
                         prior=PriorSpec(components=(("uniform", -1.0, 1e4),) * d),
                         noise_variances=np.ones(n))
    theta = np.zeros((b, d))
    theta[:, 0] = np.arange(b)
    return problem, theta, rsum[:, None, :], np.zeros((b, n))


class TestGaussNewtonTerms:
    @pytest.mark.parametrize("b", [1, 7, 4096])
    @pytest.mark.parametrize("n", [1, 15])
    @pytest.mark.parametrize("d", [1, 3])
    def test_bit_equal_to_einsum(self, b, n, d):
        rng = np.random.default_rng(b * 100 + n * 10 + d)
        # integers: every product and partial sum is exact in any order, so
        # any contraction other than einsum's shows as a bit difference
        jac = rng.integers(-1000, 1000, (b, n, d)).astype(np.float64)
        rsum = rng.integers(-1000, 1000, (b, n)).astype(np.float64)
        problem, theta, y_data, g = _tabulated_system(jac, rsum)
        hess, jtr = oed._gauss_newton_system(problem, theta, y_data, g)
        assert np.array_equal(hess, np.einsum("bij,bik->bjk", jac, jac))
        assert np.array_equal(jtr, np.einsum("bij,bi->bj", jac, rsum))
        hess_only, none = oed._gauss_newton_system(problem, theta)
        assert none is None and np.array_equal(hess_only, hess)

    @pytest.mark.parametrize("d", [1, 3])
    def test_agrees_with_einsum(self, d):
        rng = np.random.default_rng(d)
        jac = rng.standard_normal((4096, 15, d))
        rsum = rng.standard_normal((4096, 15))
        hess, jtr = oed._gauss_newton_system(*_tabulated_system(jac, rsum))
        # relative to the sum of magnitudes, so cancellation cannot inflate it
        scale = np.einsum("bij,bik->bjk", np.abs(jac), np.abs(jac))
        assert np.all(np.abs(hess - np.einsum("bij,bik->bjk", jac, jac)) <= 1e-12 * scale)
        scale = np.einsum("bij,bi->bj", np.abs(jac), np.abs(rsum))
        assert np.all(np.abs(jtr - np.einsum("bij,bi->bj", jac, rsum)) <= 1e-12 * scale)

    @pytest.mark.parametrize("d", [1, 3])
    def test_row_bits_independent_of_batch(self, d):
        rng = np.random.default_rng(d)
        # magnitudes over ten decades, so that any change of summation
        # order shows in the last bits
        jac = rng.standard_normal((4096, 15, d)) * 10.0 ** rng.uniform(-5, 5, (4096, 15, d))
        rsum = rng.standard_normal((4096, 15))
        problem, theta, y_data, g = _tabulated_system(jac, rsum)
        hess, jtr = oed._gauss_newton_system(problem, theta, y_data, g)
        for i in range(4096):
            one = slice(i, i + 1)
            hess1, jtr1 = oed._gauss_newton_system(problem, theta[one], y_data[one], g[one])
            assert np.array_equal(hess1[0], hess[i]) and np.array_equal(jtr1[0], jtr[i])


def _random_precisions(b, d, seed):
    """b well-conditioned symmetric positive-definite d x d matrices whose
    scales span four decades."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((b, d, d))
    scale = 10.0 ** rng.uniform(-2, 2, (b, 1, 1))
    return scale * (a @ np.swapaxes(a, 1, 2) + d * np.eye(d))


def _identity_problem(d):
    """A d-parameter linear-Gaussian problem; the precisions these tests
    hand to _laplace_batch stand in for its Hessians."""
    return OEDProblem(model=LinearGaussianModel(matrix=np.eye(d)), xi=np.zeros(0),
                      prior=PriorSpec(components=(("normal", 0.0, 1.0),) * d),
                      noise_variances=np.ones(d))


def _proposal_inputs(b, k, d, seed):
    rng = np.random.default_rng(seed)
    theta_hat = rng.standard_normal((b, d))
    cov_chol = np.triu(rng.standard_normal((b, d, d)))
    z = rng.standard_normal((b, k, d))
    return theta_hat, cov_chol, z


class TestProposalKernels:
    """The Laplace factor U = (L^-1)^T and the proposal map theta_hat + U z
    run as arithmetic over the batch axis, one d_theta index at a time."""

    @pytest.mark.parametrize("b, k", [(64, 256), (4096, 4), (1, 16384)])
    @pytest.mark.parametrize("d", [1, 3])
    def test_proposal_agrees_with_einsum(self, b, k, d):
        theta_hat, cov_chol, z = _proposal_inputs(b, k, d, b + k + d)
        got = oed._proposal_points(theta_hat, cov_chol, z)
        want = theta_hat[:, None, :] + np.einsum("bij,bkj->bki", cov_chol, z)
        # relative to the sum of magnitudes, so cancellation cannot inflate it
        scale = np.abs(theta_hat)[:, None, :] + np.einsum(
            "bij,bkj->bki", np.abs(cov_chol), np.abs(z)
        )
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    @pytest.mark.parametrize("d", [1, 3])
    def test_proposal_never_reads_below_the_diagonal(self, d):
        theta_hat, cov_chol, z = _proposal_inputs(64, 256, d, d)
        poisoned = cov_chol.copy()
        poisoned[:, np.tril(np.ones((d, d), dtype=bool), -1)] = np.nan
        got = oed._proposal_points(theta_hat, poisoned, z)
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, oed._proposal_points(theta_hat, cov_chol, z))

    @pytest.mark.parametrize("d", [1, 3])
    def test_proposal_row_bits_independent_of_batch(self, d):
        theta_hat, cov_chol, z = _proposal_inputs(64, 256, d, 10 + d)
        cov_chol *= 10.0 ** np.random.default_rng(d).uniform(-5, 5, cov_chol.shape)
        got = oed._proposal_points(theta_hat, cov_chol, z)
        for i in range(64):
            one = slice(i, i + 1)
            one_row = oed._proposal_points(theta_hat[one], cov_chol[one], z[one])
            assert np.array_equal(one_row[0], got[i])

    @pytest.mark.parametrize("d", [1, 3])
    def test_laplace_factor_is_upper_triangular_inverse(self, d):
        prec = _random_precisions(4096, d, d)
        problem = _identity_problem(d)
        cov_chol, log_det_cov = oed._laplace_batch(problem, np.zeros((4096, d)), hess=prec)
        assert np.all(cov_chol[:, np.tril(np.ones((d, d), dtype=bool), -1)] == 0.0)
        eye = cov_chol @ np.swapaxes(cov_chol, 1, 2) @ prec
        assert np.all(np.abs(eye - np.eye(d)) <= 1e-12)
        assert np.allclose(log_det_cov, -np.linalg.slogdet(prec)[1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 3])
    def test_laplace_row_bits_independent_of_batch(self, d):
        prec = _random_precisions(4096, d, 20 + d)
        problem, theta_hat = _identity_problem(d), np.zeros((4096, d))
        cov_chol, log_det_cov = oed._laplace_batch(problem, theta_hat, hess=prec)
        for i in range(4096):
            one = slice(i, i + 1)
            c1, l1 = oed._laplace_batch(problem, theta_hat[one], hess=prec[one])
            assert np.array_equal(c1[0], cov_chol[i]) and l1[0] == log_det_cov[i]


class TestActiveSetMap:
    @pytest.mark.parametrize("design", [0, 1])
    def test_batch_equals_single_row_solves(self, design):
        problem, y_data, init = _pk_map_inputs(design, 256, 50 + design)
        theta, iters = oed._map_batch(problem, y_data, init)
        ref_theta, ref_iters = _map_reference(problem, y_data, init)
        assert np.array_equal(theta, ref_theta) and np.array_equal(iters, ref_iters)
        for i in range(256):
            t1, i1 = oed._map_batch(problem, y_data[i:i + 1], init[i:i + 1])
            assert np.array_equal(t1[0], theta[i]) and i1[0] == iters[i]

    def test_rejected_neighbour_leaves_other_rows_alone(self):
        p = OEDProblem(model=CubicModel(), xi=np.zeros(0),
                       prior=PriorSpec(components=(("normal", 0.0, 1.0),)),
                       noise_variances=[0.01])
        y_data = np.array([1.0, 1.3, 0.8, 1.0, 2.0])[:, None, None]
        init = np.array([[0.9], [1.2], [0.7], [0.1], [1.1]])
        # row 3's first Gauss-Newton step (lambda = 1e-8) overshoots from
        # 0.1 to about 2.76 and raises the objective, so it is rejected
        t0, y0 = 0.1, 1.0
        obj = lambda t: 0.5 * (y0 - t**3) ** 2 / 0.01 + 0.5 * t**2  # noqa: E731
        grad = -(y0 - t0**3) * 3 * t0**2 / 0.01 + t0
        trial = t0 - grad / (9 * t0**4 / 0.01 + 1.0 + 1e-8)
        assert obj(trial) > obj(t0)
        theta, iters = oed._map_batch(p, y_data, init)
        for i in range(5):
            t1, i1 = oed._map_batch(p, y_data[i:i + 1], init[i:i + 1])
            assert np.array_equal(t1[0], theta[i]) and i1[0] == iters[i]

    def test_singular_hessian_row_leaves_other_rows_alone(self):
        # under a flat prior the cubic's Hessian 9 theta^4 / sigma^2 is
        # singular at theta = 0, so the batched solve fails for row 1 only
        p = OEDProblem(model=CubicModel(), xi=np.zeros(0),
                       prior=PriorSpec(components=(("uniform", -1.0, 2.0),)),
                       noise_variances=[0.01])
        y_data = np.array([1.0, 1.2, 0.5])[:, None, None]
        init = np.array([[0.9], [0.0], [0.7]])
        theta, iters = oed._map_batch(p, y_data, init)
        assert theta[1, 0] == 0.0  # a zero gradient there: damping takes no step
        for i in range(3):
            t1, i1 = oed._map_batch(p, y_data[i:i + 1], init[i:i + 1])
            assert np.array_equal(t1[0], theta[i]) and i1[0] == iters[i]

    def test_failure_names_first_unconverged_sample(self):
        problem, y_data, init = _pk_map_inputs(0, 16, 52)
        # rows 0-2 start at their modes and converge at once; row 3 is the
        # first sample of the batch that one iteration cannot solve
        modes, _ = oed._map_batch(problem, y_data[:3], init[:3])
        init = init.copy()
        init[:3] = modes
        with pytest.raises(oed.MapConvergenceError) as ref:
            _map_reference(problem, y_data, init, max_iter=1)
        with pytest.raises(oed.MapConvergenceError) as got:
            oed._map_batch(problem, y_data, init, max_iter=1)
        assert got.value.index == ref.value.index == 3
        assert np.array_equal(got.value.theta_last, ref.value.theta_last)
        assert got.value.grad_norm == ref.value.grad_norm
        assert "sample 3" in str(got.value)


class TestMapStoppingRule:
    """Every mode the search returns is stationary in the posterior's own
    metric: its Newton decrement grad^T H^-1 grad is at most _MAP_TOL**2.

    Gauss-Newton converges linearly, so the last decrements sit just below
    the tolerance; they are recomputed here from the kernel's own pieces,
    whose bits the search saw, rather than from a re-summed formula."""

    @staticmethod
    def _decrement(problem, y_data, theta):
        g = problem.model.evaluate(theta, problem.xi)
        hess, jtr = oed._gauss_newton_system(problem, theta, y_data, g)
        grad = -jtr - problem.prior.grad_logpdf(theta)
        return -np.sum(grad * np.linalg.solve(hess, -grad[..., None])[..., 0], axis=1)

    @pytest.mark.parametrize("design", [0, 1])
    def test_pk_modes_meet_decrement_tolerance(self, design):
        problem, y_data, init = _pk_map_inputs(design, 256, 60 + design)
        theta, _ = oed._map_batch(problem, y_data, init)
        dec = self._decrement(problem, y_data, theta)
        assert np.all((dec > 0) & (dec <= oed._MAP_TOL**2))

    def test_exact_importance_sampling_spread(self):
        # on a linear-Gaussian model the importance-sampling proposal is the
        # posterior itself, so the weighted inner log integrand is constant
        # in the inner normal z up to rounding
        problem = linear_gaussian_problem()
        spreads = [
            inner_replicate_spread(problem, 64, 1, 4, key=RandomizationKey(k))
            for k in range(300, 340)
        ]
        assert max(spreads) <= 1e-12

    def test_start_near_the_mode_takes_one_step(self):
        # prior N(0, 1), unit noise, one experiment: the mode is y / 2 and
        # the precision 2, so a start off it by e has decrement 2 e^2.  Rows
        # 1 and 2 start with 0 < decrement <= _MAP_TOL**2; each still takes
        # the one Gauss-Newton step, which is exact here.  Row 0 starts at
        # the mode with a zero gradient and takes no step.
        problem = linear_gaussian_problem()
        y = np.array([2.0, 2.0, 0.6, 3.0])
        init = np.array([1.0, 1.0 + 1e-4, 0.3 - 3e-4, 0.0])
        y_data, init = y[:, None, None], init[:, None]
        dec0 = self._decrement(problem, y_data, init)
        assert dec0[0] == 0.0
        assert np.all((dec0[1:3] > 0.0) & (dec0[1:3] <= oed._MAP_TOL**2))
        theta, iters = oed._map_batch(problem, y_data, init)
        assert iters.tolist() == [0, 1, 1, 1]
        assert theta[0, 0] == 1.0
        np.testing.assert_allclose(theta[:, 0], y / 2.0, rtol=1e-15, atol=0.0)


class TestHessianHandoff:
    """A posterior-mode search ends each row by its Newton decrement, the
    one of the Gauss-Newton Hessian built at the mode it returns."""

    def test_linear_gaussian_rows_end_by_decrement(self):
        # far from the origin, rounding in the residual leaves decrements up
        # to about 1e-22 at the exact mode, far below the tolerance: every
        # row ends by its decrement after the one Gauss-Newton step
        problem = OEDProblem(
            model=LinearGaussianModel(matrix=[[1.0]]), xi=np.zeros(0),
            prior=PriorSpec(components=(("normal", 1e5, 1.0),)), noise_variances=[1.0],
        )
        u = RandomizationKey(72).uniforms((64, problem.d_outer), salt="handoff")
        theta = problem.prior.transform(u[:, :1])
        y_data = theta[:, None, :] + oed._noise_values(problem, u[:, 1:])
        theta_hat, iters = oed._map_batch(problem, y_data, theta)
        dec = TestMapStoppingRule._decrement(problem, y_data, theta_hat)
        assert np.all((dec >= 0.0) & (dec <= oed._MAP_TOL**2))
        assert np.all(iters == 1)


class LogLinearModel(ForwardModel):
    """G = A log(theta): linear in the Gaussian coordinates of a lognormal
    prior, with the analytic Jacobian A / theta."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.d_y, self.d_theta = self.matrix.shape

    def evaluate(self, theta, xi=None, h=None):
        return np.log(np.atleast_2d(theta)) @ self.matrix.T

    def jacobian(self, theta, xi=None, h=None):
        return self.matrix[None, :, :] / np.atleast_2d(theta)[:, None, :]


def _map_proposal_problem(problem):
    """The importance-sampling nested problem with a proposal centred at the
    posterior mode in theta: a damped Gauss-Newton search from each row's
    parameters, and the Laplace factor at the mode."""
    d = problem.d_theta

    def prepare(y):
        theta = problem.prior.transform(y[:, :d])
        g = problem.model.evaluate(theta, problem.xi)
        y_data = g[:, None, :] + oed._noise_values(problem, y[:, d:])
        theta_hat, _ = oed._map_batch(problem, y_data, theta)
        hess = oed._gauss_newton_system(problem, theta_hat)[0]
        return (y_data, theta_hat, *oed._laplace_batch(problem, theta_hat, hess=hess))

    def inner(state, x):
        y_data, theta_hat, cov_chol, log_det_cov = state
        z = inv_norm_cdf(x)
        theta = oed._proposal_points(theta_hat, cov_chol, z)
        ll = oed._batch_loglik(problem, y_data, problem.model.output_columns(theta, problem.xi))
        log_q = (-0.5 * (d * math.log(2.0 * math.pi) + log_det_cov)[:, None]
                 - 0.5 * np.einsum("bkj,bkj->bk", z, z))
        return ll + problem.prior.logpdf(theta) - log_q

    return NestedProblem(d1=problem.d_outer, d2=d, inner=inner, prepare=prepare,
                         outer_map="log", inner_is_log=True)


def _pk_problem(design):
    return OEDProblem(model=PKModel(), xi=pk_designs()[design], prior=pk_prior("variance"),
                      noise_variances=np.full(15, 0.01))


class TestLinearizedProposal:
    """The importance-sampling proposal is the posterior of the model
    linearized at each outer row's own parameters, in the prior's Gaussian
    coordinates phi: exact on a model linear in phi, built from one
    Jacobian per row, with no posterior-mode search and no solve."""

    def test_log_linear_lognormal_is_exact(self):
        # G = 0.8 log(theta) with log(theta) ~ N(0.3, 0.5^2).  A Gauss-Newton
        # mode search in theta drops the model's curvature -0.8 / theta^2 and
        # converges only linearly on a row with a large residual: centred by
        # that search, key 300 aborted at sample 63 after 100 iterations.  In
        # log(theta) the model is linear, the proposal is the posterior, and
        # every importance weight is the row's evidence.
        problem = OEDProblem(model=LogLinearModel([[0.8]]), xi=np.zeros(0),
                             prior=PriorSpec(components=(("lognormal", 0.3, 0.5),)),
                             noise_variances=[0.2])
        spreads = [
            inner_replicate_spread(problem, 64, 1, 4, key=RandomizationKey(k))
            for k in range(300, 310)
        ]
        assert max(spreads) <= 1e-12
        r = eig_importance_sampled(problem, 2**10, 4, S=8, key=RandomizationKey(3))
        truth = eig_conjugate_oracle([0.25], [0.2], [[0.8]], 1)
        assert abs(r.estimate - truth) < 4 * r.stderr

    @pytest.mark.parametrize("kind", ["normal", "lognormal"])
    def test_closed_form_posterior(self, kind):
        # y_i = A phi + noise, three experiments: the centre and U U^T are the
        # conjugate posterior's mean and covariance to rounding
        a = np.array([[1.0, 0.5], [0.2, 1.0], [0.3, -0.4]])
        loc, scale, nv = np.array([0.4, -0.2]), np.array([0.7, 1.3]), np.array([1.0, 0.5, 0.2])
        problem = OEDProblem(
            model=LinearGaussianModel(matrix=a) if kind == "normal" else LogLinearModel(a),
            xi=np.zeros(0), prior=PriorSpec(components=tuple(zip((kind, kind), loc, scale))),
            noise_variances=nv, n_experiments=3,
        )
        u = RandomizationKey(79).uniforms((32, problem.d_outer), salt="closed-form")
        y_data, phi_hat, cov_chol, log_det_cov = oed.build_nested_problem(problem, "is").prepare(u)
        cov = np.linalg.inv(3.0 * (a.T / nv) @ a + np.diag(scale**-2.0))
        mean = (cov @ ((a.T / nv) @ y_data.sum(axis=1).T + (loc / scale**2)[:, None])).T
        np.testing.assert_allclose(phi_hat, mean, rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(cov_chol @ np.swapaxes(cov_chol, 1, 2),
                                   np.broadcast_to(cov, (32, 2, 2)), rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(log_det_cov, np.linalg.slogdet(cov)[1], rtol=1e-13)

    @pytest.mark.parametrize("design", [0, 1])
    def test_outer_rows_keep_their_bits(self, design):
        # prepare takes theta = exp(phi) of phi = loc + scale Phi^-1(u), the
        # expression prior.transform evaluates, so the rows' parameters and
        # data are those of the plain family
        problem = _pk_problem(design)
        u = RandomizationKey(81 + design).uniforms((256, problem.d_outer), salt="rows")
        y_is = oed.build_nested_problem(problem, "is").prepare(u)[0]
        (y_plain,) = oed.build_nested_problem(problem, "plain").prepare(u)
        theta = problem.prior.transform(u[:, :3])
        want = problem.model.evaluate(theta, problem.xi)[:, None, :] + oed._noise_values(
            problem, u[:, 3:])
        assert np.array_equal(y_is, want) and np.array_equal(y_plain, want)

    def test_mixed_prior_keeps_the_transform(self):
        prior = PriorSpec(components=(("lognormal", 0.2, 0.6), ("normal", -1.0, 2.0),
                                      ("lognormal", -0.5, 0.3)))
        loc, scale, log = prior.gaussian_coordinates()
        assert log.tolist() == [True, False, True]
        u = RandomizationKey(83).uniforms((64, 3), salt="mixed")
        phi = loc + scale * inv_norm_cdf(u)
        assert np.array_equal(oed._from_gaussian(phi, log), prior.transform(u))
        with pytest.raises(ValueError, match="uniform"):
            PriorSpec(components=(("uniform", 0.0, 1.0),)).gaussian_coordinates()

    def test_one_jacobian_per_row_and_no_search(self, monkeypatch):
        problem, rows = _pk_problem(0), []
        model = problem.model

        class Counting(PKModel):
            def jacobian(self, theta, xi=None, h=None):
                rows.append(theta.shape[0])
                return model.jacobian(theta, xi, h)

        def refused(*args, **kwargs):
            raise AssertionError("called on the importance-sampling path")

        monkeypatch.setattr(oed, "_map_batch", refused)
        monkeypatch.setattr(np.linalg, "solve", refused)
        r = eig_importance_sampled(replace(problem, model=Counting()), 512, 4, S=2,
                                   key=RandomizationKey(84))
        assert abs(r.estimate - 10.7372) < 0.1
        assert sum(rows) == 2 * 512

    def test_non_finite_jacobian_raises(self):
        class Broken(LogLinearModel):
            def jacobian(self, theta, xi=None, h=None):
                jac = super().jacobian(theta, xi, h)
                jac[2] = np.nan
                return jac

        problem = OEDProblem(model=Broken([[0.8]]), xi=np.zeros(0),
                             prior=PriorSpec(components=(("lognormal", 0.3, 0.5),)),
                             noise_variances=[0.2])
        u = RandomizationKey(85).uniforms((8, problem.d_outer), salt="broken")
        with pytest.raises(LaplaceFitError) as err:
            oed.build_nested_problem(problem, "is").prepare(u)
        assert err.value.index == 2

    @pytest.mark.parametrize("design", [0, 1])
    def test_pk_inner_variance_below_map_proposal(self, design):
        # mean per-row variance of R inner estimates, against the proposal
        # centred at the theta-space posterior mode; measured 0.64 and 0.42
        # (geometric) and 0.33 and 0.19 (even) of it at M = 4 and 16
        problem = _pk_problem(design)
        for m, bound in ((4, 0.8), (16, 0.6)):
            var = [
                oed._inner_replicates(nested, 1024, m, 16, RandomizationKey(40 + design),
                                      RandomizationKey(50 + design)).var(axis=1, ddof=1).mean()
                for nested in (oed.build_nested_problem(problem, "is"),
                               _map_proposal_problem(problem))
            ]
            assert var[0] <= bound * var[1]


def _cubic_map_inputs():
    """TestActiveSetMap's damped CubicModel rows, row 3 of which has its
    first step rejected, among 35 more rows whose starts overshoot too."""
    p = OEDProblem(model=CubicModel(), xi=np.zeros(0),
                   prior=PriorSpec(components=(("normal", 0.0, 1.0),)),
                   noise_variances=[0.01])
    y = np.concatenate([[1.0, 1.3, 0.8, 1.0, 2.0], np.linspace(0.6, 2.2, 35)])
    init = np.concatenate([[0.9, 1.2, 0.7, 0.1, 1.1], np.linspace(0.05, 1.4, 35)])
    return p, y[:, None, None], init[:, None]


class TestSlicedAssembly:
    """The Gauss-Newton Hessian and gradient are assembled _GN_ROWS rows at
    a time; that may not move a bit."""

    @staticmethod
    def _map(problem, y_data, init):
        theta, iters = oed._map_batch(problem, y_data, init)
        return theta, iters, oed._gauss_newton_system(problem, theta)[0]

    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("fixture", ["pk-geom", "pk-even", "cubic"])
    def test_map_bits_do_not_depend_on_the_slices(self, rows, fixture, monkeypatch):
        if fixture == "cubic":
            problem, y_data, init = _cubic_map_inputs()
        else:
            problem, y_data, init = _pk_map_inputs(fixture == "pk-even", 256, 74)
        default = self._map(problem, y_data, init)
        assert len(set(default[1].tolist())) > 1  # rows leave at different iterations
        monkeypatch.setattr(oed, "_GN_ROWS", rows)
        sliced = self._map(problem, y_data, init)
        assert all(np.array_equal(a, b) for a, b in zip(sliced, default))

    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("design", [0, 1])
    def test_prepare_bits_do_not_depend_on_the_slices(self, rows, design, monkeypatch):
        problem = OEDProblem(model=PKModel(), xi=pk_designs()[design],
                             prior=pk_prior("variance"), noise_variances=np.full(15, 0.01))
        prepare = oed.build_nested_problem(problem, family="is").prepare
        y = RandomizationKey(75 + design).uniforms((256, problem.d_outer), salt="slices")
        default = prepare(y)
        monkeypatch.setattr(oed, "_GN_ROWS", rows)
        sliced = prepare(y)
        assert len(sliced) == len(default) == 4
        assert all(np.array_equal(a, b) for a, b in zip(sliced, default))

    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("fixture", ["pk-geom", "pk-even", "linear"])
    def test_precision_bits_do_not_depend_on_the_slices(self, rows, fixture, monkeypatch):
        if fixture == "linear":
            problem = OEDProblem(
                model=LinearGaussianModel(matrix=[[1.0, 0.5], [0.2, 1.0], [0.3, -0.4]]),
                xi=np.zeros(0), prior=PriorSpec(components=(("normal", 0.0, 1.0),) * 2),
                noise_variances=[1.0, 0.5, 0.2], n_experiments=3,
            )
        else:
            problem = OEDProblem(model=PKModel(), xi=pk_designs()[fixture == "pk-even"],
                                 prior=pk_prior("variance"), noise_variances=np.full(15, 0.01))
        u = RandomizationKey(77).uniforms((100, problem.d_theta), salt="precision")
        theta = problem.prior.transform(u)
        default = oed._gauss_newton_system(problem, theta)[0]
        factors = _precision_cholesky(default)
        monkeypatch.setattr(oed, "_GN_ROWS", rows)
        sliced = oed._gauss_newton_system(problem, theta)[0]
        assert np.array_equal(sliced, default)
        assert all(np.array_equal(a, b) for a, b in zip(_precision_cholesky(sliced), factors))


class TestMapWorkingSet:
    """The importance-sampling prepare of one 4096-row chunk (the first
    chunk of the eig-deep-outer benchmark's outer set) and a posterior-mode
    search of its rows each hold one slice's Jacobian at a time; the search
    reuses the data's model output at its start and frees each damping
    loop's trial arrays.  Measured with tracemalloc: prepare about 2.9 MiB
    (4.9 MiB when it ran the search) and the search about 3.6 MiB, against
    8.7 and 6.9 MiB when the whole batch's Jacobian was built at once."""

    @pytest.mark.parametrize("design", [0, 1])
    def test_prepare_and_search_peaks(self, design):
        import tracemalloc

        from nestiq import estimators

        problem = OEDProblem(model=PKModel(), xi=pk_designs()[design],
                             prior=pk_prior("variance"), noise_variances=np.full(15, 0.01))
        nested = oed.build_nested_problem(problem, family="is")
        key = RandomizationKey(1, tag="eig-deep-outer")
        y = estimators._outer_points(nested, 2**15, 0, key, "rqmc-sobol-owen",
                                     estimators.default_sobol_params(), 0, 4096)
        tracemalloc.start()
        try:
            state = nested.prepare(y)
            prepare_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        y_data, theta = state[0], problem.prior.transform(y[:, :problem.d_theta])
        tracemalloc.start()
        try:
            oed._map_batch(problem, y_data, theta)
            map_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prepare_peak <= 6 << 20
        assert map_peak <= 4.5 * 2**20


class TestLaplaceCovariance:
    def test_conjugate_value(self):
        p = linear_gaussian_problem()
        cov = _laplace_cov(p, np.array([1.0]))
        assert cov[0, 0] == pytest.approx(0.5)

    def test_three_experiments(self):
        p = linear_gaussian_problem(n_experiments=3)
        cov = _laplace_cov(p, np.array([1.0]))
        assert cov[0, 0] == pytest.approx(0.25)

    def test_diagonal_model_gives_diagonal_covariance(self):
        p = OEDProblem(
            model=LinearGaussianModel(matrix=np.diag([1.0, 2.0])),
            xi=np.zeros(0),
            prior=PriorSpec(components=(("normal", 0, 1), ("normal", 0, 1))),
            noise_variances=[1.0, 1.0],
        )
        cov = _laplace_cov(p, np.array([0.0, 0.0]))
        np.testing.assert_allclose(cov, np.diag([1 / 2, 1 / 5]), atol=1e-12)


class TestDiscretizedLevel:
    """The batch posterior-mode search and Laplace factor solve the
    posterior of the problem's own discretization level, on the whole batch
    as on one-row batches."""

    def test_batch_solvers_run_at_the_problem_level(self):
        problem = OEDProblem(
            model=SyntheticDiscretizedModel(d_theta=2), xi=np.array([0.2, 0.5, 0.9]),
            prior=PriorSpec(components=(("normal", 0.5, 0.5),) * 2),
            noise_variances=np.full(3, 0.1), h=0.25,
        )
        u = RandomizationKey(78).uniforms((16, problem.d_outer), salt="level")
        theta = problem.prior.transform(u[:, :2])
        g = problem.model.evaluate(theta, problem.xi, problem.h)
        y_data = g[:, None, :] + oed._noise_values(problem, u[:, 2:])
        init = problem.prior.transform(np.full((16, 2), 0.5))  # the prior median
        theta_hat, _ = oed._map_batch(problem, y_data, init)
        hess = oed._gauss_newton_system(problem, theta_hat)[0]
        cov_chol, _ = oed._laplace_batch(problem, theta_hat, hess=hess)
        for i in range(16):
            assert np.array_equal(theta_hat[i], _map_one(problem, y_data[i].T, init[i]))
            cov = _laplace_cov(problem, theta_hat[i])
            assert np.array_equal(cov_chol[i] @ cov_chol[i].T, cov)
        # the same data read at another level has another mode
        other, _ = oed._map_batch(replace(problem, h=0.125), y_data, init)
        assert not np.any(other == theta_hat)


class TestLaplaceFailure:
    """A zero Jacobian column under a uniform prior leaves that direction
    without curvature, so the posterior precision is singular."""

    @staticmethod
    def _flat_problem():
        return OEDProblem(
            model=LinearGaussianModel(matrix=[[1.0, 0.0]]),
            xi=np.zeros(0),
            prior=PriorSpec(components=(("normal", 0.0, 1.0), ("uniform", 0.0, 1.0))),
            noise_variances=[1.0],
        )

    def test_first_bad_sample_reported(self):
        good = np.eye(2)
        prec = np.stack([good, good, np.diag([1.0, 0.0]), np.diag([1.0, -1.0])])
        with pytest.raises(LaplaceFitError) as err:
            _precision_cholesky(prec)
        assert err.value.index == 2

    @pytest.mark.parametrize("value, bad", [(np.nan, 2), (np.inf, 1), (-np.inf, 3)])
    def test_non_finite_precision_raises(self, value, bad):
        prec = np.stack([np.eye(2)] * 4)
        prec[bad, 0, 1] = value
        with pytest.raises(LaplaceFitError) as err:
            _precision_cholesky(prec)
        assert err.value.index == bad

    def test_rounding_failure_with_positive_eigenvalues(self):
        # Cholesky fails on this matrix by rounding, yet both of the
        # eigenvalues eigvalsh returns are positive
        near = np.array([[3.67156589071382, -1.1616639570428582],
                         [-1.1616639570428582, 0.36754430922935477]])
        prec = np.stack([np.eye(2), near, np.eye(2)])
        with pytest.raises(LaplaceFitError) as err:
            _precision_cholesky(prec)
        assert err.value.index == 1

    def test_laplace_covariance_raises(self):
        with pytest.raises(LaplaceFitError) as err:
            _laplace_cov(self._flat_problem(), np.array([0.0, 0.5]))
        assert err.value.index == 0

    def test_laplace_only_raises(self):
        with pytest.raises(LaplaceFitError) as err:
            eig_laplace_only(self._flat_problem(), 64, sampler="mc",
                             key=RandomizationKey(50))
        assert err.value.index == 0


class TestConjugateOracle:
    def test_scalar_case(self):
        assert eig_conjugate_oracle([1.0], [1.0], [[1.0]], 1) == pytest.approx(TRUTH)

    def test_useless_experiment(self):
        assert eig_conjugate_oracle([1.0], [1.0], [[0.0]], 1) == 0.0

    def test_three_experiments(self):
        assert eig_conjugate_oracle([1.0], [1.0], [[1.0]], 3) == pytest.approx(
            0.5 * math.log(4.0)
        )

    def test_matches_tensor_quadrature(self):
        # verify the closed form against the quadrature route
        q = eig_quadrature(linear_gaussian_problem(), 32, 32, 64)
        assert q == pytest.approx(TRUTH, abs=1e-10)

    def test_lognormal_prior_quadrature(self):
        # G = 0.8 log(theta) with log(theta) ~ N(0.3, 0.5^2) is linear-Gaussian
        # in log(theta), so the quadrature on the lognormal axis is conjugate
        p = OEDProblem(model=LogLinearModel([[0.8]]), xi=np.zeros(0),
                       prior=PriorSpec(components=(("lognormal", 0.3, 0.5),)),
                       noise_variances=[0.2])
        assert eig_quadrature(p) == pytest.approx(
            eig_conjugate_oracle([0.25], [0.2], [[0.8]], 1), abs=1e-12)


class TestNestedEigEstimators:
    @pytest.mark.parametrize("sampler", ["rqmc-sobol-owen", "mc"])
    def test_plain_nested_hits_conjugate_truth(self, sampler):
        r = eig_nested(linear_gaussian_problem(), 2**10, 2**6, S=8, R=1,
                       sampler=sampler, key=RandomizationKey(31))
        assert abs(r.estimate - TRUTH) < 4 * r.stderr

    @pytest.mark.parametrize("sampler", ["rqmc-sobol-owen", "mc"])
    def test_importance_sampled_hits_conjugate_truth(self, sampler):
        r = eig_importance_sampled(linear_gaussian_problem(), 2**10, 2**6, S=8, R=1,
                                   sampler=sampler, key=RandomizationKey(32))
        assert abs(r.estimate - TRUTH) < 4 * r.stderr

    def test_uninformative_noise_limit(self):
        r = eig_nested(linear_gaussian_problem(noise_var=1e6), 2**9, 2**6, S=8,
                       key=RandomizationKey(33))
        assert abs(r.estimate) < max(4 * r.stderr, 1e-3)

    def test_three_experiments(self):
        r = eig_nested(linear_gaussian_problem(n_experiments=3), 2**10, 2**7, S=8,
                       key=RandomizationKey(34))
        assert abs(r.estimate - 0.5 * math.log(4.0)) < 4 * r.stderr

    def test_is_and_plain_agree(self):
        k = RandomizationKey(35)
        a = eig_nested(linear_gaussian_problem(), 2**10, 2**6, S=8, key=k)
        b = eig_importance_sampled(linear_gaussian_problem(), 2**10, 2**6, S=8, key=k)
        assert abs(a.estimate - b.estimate) < 4 * math.hypot(a.stderr, b.stderr)

    def test_exact_laplace_spread_vanishes_at_m1(self):
        spread = inner_replicate_spread(
            linear_gaussian_problem(), 64, 1, 4, key=RandomizationKey(36)
        )
        assert spread < 1e-10

    def test_spread_needs_power_of_two_inner_count(self):
        with pytest.raises(ValueError, match="M must be a power of two, got 3"):
            inner_replicate_spread(linear_gaussian_problem(), 8, 3, 4)

    def test_replicate_spread_unchanged_by_prepare_once(self):
        from nestiq.estimators import (
            _inner_blocks, _outer_points, _outer_values, default_sobol_params,
        )

        geom, _ = pk_designs()
        problem = OEDProblem(model=PKModel(), xi=geom, prior=pk_prior("variance"),
                             noise_variances=np.full(15, 0.01))
        key = RandomizationKey(306)
        spread = inner_replicate_spread(problem, 16, 4, 3, key=key)
        # the same diagnostic with the Laplace proposal solved for every replicate
        nested = oed.build_nested_problem(problem, family="is")
        params = default_sobol_params()
        sampler = "rqmc-sobol-owen"
        y = _outer_points(nested, 16, 0, key, sampler, params)
        blocks = _inner_blocks(nested, 0, 16, 4, 3, 0, key, sampler, params).reshape(16, 3, 4, 3)
        per_rep = np.stack([_outer_values(nested, y, blocks[:, j]) for j in range(3)], axis=1)
        assert spread == float(np.max(per_rep.max(axis=1) - per_rep.min(axis=1)))
        assert spread > 0.0

    def test_importance_weights_finite(self):
        # weighted inner values at any fixed outer sample are finite
        r = eig_importance_sampled(linear_gaussian_problem(), 64, 16, S=1, R=1,
                                   key=RandomizationKey(37))
        assert math.isfinite(r.estimate)

    def test_uniform_prior_rejected_for_is(self):
        p = OEDProblem(
            model=LinearGaussianModel(matrix=[[1.0]]), xi=np.zeros(0),
            prior=PriorSpec(components=(("uniform", -1.0, 1.0),)),
            noise_variances=[1.0],
        )
        with pytest.raises(ValueError, match="uniform"):
            eig_importance_sampled(p, 64, 8, key=RandomizationKey(0))

    def test_counts_and_work(self):
        r = eig_nested(linear_gaussian_problem(), 2**8, 2**4, S=2, R=3,
                       key=RandomizationKey(38))
        assert r.counts == {"N": 256, "M": 16, "S": 2, "R": 3}
        assert r.work == 256 * 16 * 2 * 3


class TestInnerBlocking:
    """The executor hands the integrand at most _INNER_BLOCK inner points a
    call, a few outer rows or a part of one row; the values must not depend
    on how the points are split."""

    @pytest.mark.parametrize("family", ["plain", "is"])
    def test_blocked_values_bit_identical(self, family, monkeypatch):
        from nestiq import estimators

        geom, _ = pk_designs()
        problem = OEDProblem(model=PKModel(), xi=geom, prior=pk_prior("variance"),
                             noise_variances=np.full(15, 0.01))
        nested = oed.build_nested_problem(problem, family=family)
        key = RandomizationKey(39)
        sizes = []
        inner = nested.inner
        nested.inner = lambda state, x: sizes.append(x.shape[0] * x.shape[1]) or inner(state, x)
        monkeypatch.setenv("NESTIQ_THREADS", "1")

        def run(sampler):
            """37 (or 32) rows at R = 3 replicates of M = 16 points: each
            replicate's value, and each row's value over all 48 points."""
            n = 37 if sampler == "mc" else 32
            per_rep = estimators._inner_replicates(nested, n, 16, 3, key, key, sampler)
            pooled = estimators._nested_values(nested, n, 16, 1, 3, key, key, sampler)
            return per_rep, estimators._joined([v for _, v in pooled])

        default = estimators._INNER_BLOCK
        for sampler in ("mc", "rqmc-sobol-owen"):
            runs = []
            # whole rows; 40 points a block: a row in parts of two replicates
            # and of one; 5: a replicate in parts of 5, 5, 5 and 1 points
            for block in (default, 40, 5):
                monkeypatch.setattr(estimators, "_INNER_BLOCK", block)
                sizes.clear()
                runs.append(run(sampler))
                assert max(sizes) <= block
                assert sum(sizes) == 2 * 3 * 16 * (37 if sampler == "mc" else 32)
            for blocked in runs[1:]:
                for got, want in zip(blocked, runs[0]):
                    assert np.array_equal(got, want)


class TestLaplaceOnly:
    def test_conjugate_truth(self):
        r = eig_laplace_only(linear_gaussian_problem(), 2**12, sampler="mc",
                             key=RandomizationKey(40))
        assert abs(r.estimate - TRUTH) < 4 * r.stderr

    def test_rqmc_variant_much_tighter(self):
        r = eig_laplace_only(linear_gaussian_problem(), 2**10,
                             sampler="rqmc-sobol-owen", key=RandomizationKey(41))
        assert abs(r.estimate - TRUTH) < max(4 * r.stderr, 1e-3)

    def test_growth_with_experiment_count(self):
        # conjugate EIG grows like (1/2) log N_e for large N_e
        r1 = eig_laplace_only(linear_gaussian_problem(n_experiments=100), 2**10,
                              sampler="rqmc-sobol-owen", key=RandomizationKey(42))
        r2 = eig_laplace_only(linear_gaussian_problem(n_experiments=10000), 2**10,
                              sampler="rqmc-sobol-owen", key=RandomizationKey(43))
        assert r2.estimate - r1.estimate == pytest.approx(
            0.5 * math.log(10001 / 101), abs=0.01
        )

    def test_deterministic_prior_limit(self):
        r = eig_laplace_only(linear_gaussian_problem(prior_var=1e-8), 2**10,
                             sampler="rqmc-sobol-owen", key=RandomizationKey(44))
        assert abs(r.estimate) < 1e-3

    @pytest.mark.parametrize("sampler, kwargs, message", [
        ("mc", {}, "N must be >= 1, got 0"),
        ("rqmc-sobol-owen", {}, "N must be a power of two, got 0"),
        ("rqmc-sobol-owen", {"s_replicates": 0}, "s_replicates must be >= 1, got 0"),
    ])
    def test_empty_sample_refused(self, sampler, kwargs, message):
        n = 8 if kwargs else 0
        with pytest.raises(ValueError, match=message):
            eig_laplace_only(linear_gaussian_problem(), n, sampler=sampler, **kwargs)

    def test_no_inner_count_in_result(self):
        r = eig_laplace_only(linear_gaussian_problem(), 2**8, sampler="mc",
                             key=RandomizationKey(45))
        assert "M" not in r.counts

    @staticmethod
    def _pk_problem():
        geom, _ = pk_designs()
        return OEDProblem(model=PKModel(), xi=geom, prior=pk_prior("variance"),
                          noise_variances=np.full(15, 0.01))

    @pytest.mark.parametrize("sampler", ["mc", "rqmc-sobol-owen"])
    @pytest.mark.parametrize("s_replicates", [1, 4])
    def test_thread_count_does_not_change_bits(self, sampler, s_replicates, monkeypatch):
        # 2^13 rows are two chunks of each randomization
        values = []
        for threads in ("1", "2"):
            monkeypatch.setenv("NESTIQ_THREADS", threads)
            r = eig_laplace_only(self._pk_problem(), 2**13, sampler=sampler,
                                 key=RandomizationKey(47), s_replicates=s_replicates)
            values.append((r.replicate_values.tobytes(), r.stderr))
            assert r.replicate_values.shape == (s_replicates,)
        assert values[0] == values[1]

    @pytest.mark.parametrize("sampler, s_replicates, pin", [
        ("mc", 1, ("0x1.57612fc7e061fp+3", "58e7fb7e0bb798d2")),
        ("mc", 4, ("0x1.57c9f06faaceep+3", "6bbbafb043417d6c")),
        ("rqmc-sobol-owen", 1, ("0x1.579715cd4cd9bp+3", "8f27347bd112797e")),
        ("rqmc-sobol-owen", 4, ("0x1.57955bab0ac62p+3", "61264bdd3de1d361")),
    ])
    def test_pinned_outputs_without_inner_points(self, sampler, s_replicates, pin, monkeypatch):
        # the integrand reads no inner point, so none is generated: every
        # scramble is of outer rows, one per 4096-row chunk.  The pins were
        # recorded with one unused inner point drawn per row; the (mc, 1)
        # digest again when its replicate values became the one mean
        # instead of the 2^13 rows.
        import hashlib

        from nestiq import estimators

        scrambled = []
        kernel = estimators._scramble_values

        def counting(values, *args):
            scrambled.append(values.shape)
            return kernel(values, *args)

        monkeypatch.setattr(estimators, "_scramble_values", counting)
        r = eig_laplace_only(self._pk_problem(), 2**13, sampler=sampler,
                             key=RandomizationKey(49), s_replicates=s_replicates)
        digest = hashlib.sha256(r.replicate_values.tobytes()).hexdigest()
        assert (r.estimate.hex(), digest[:16]) == pin
        if sampler == "mc":
            assert scrambled == []
        else:
            assert scrambled == [(4096, 3)] * (2 * s_replicates)

    def test_memory_bounded_by_the_chunk(self, monkeypatch):
        import tracemalloc

        monkeypatch.setenv("NESTIQ_THREADS", "1")
        problem = self._pk_problem()
        tracemalloc.start()
        try:
            r = eig_laplace_only(problem, 2**16, sampler="rqmc-sobol-owen",
                                 key=RandomizationKey(48), s_replicates=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(r.estimate)
        assert peak < 24 * 2**20

    # Truths from an adaptive-quadrature oracle over (theta, observation mean):
    # with Gaussian noise the repeated-experiment likelihood depends on the
    # data only through the mean, reducing the information gain to a 2-D
    # integral regardless of the experiment count.  The inner marginal is
    # mode-centered and integrated in log space (scipy.integrate.quad,
    # epsabs 1e-13); see _quadratic_model_eig_oracle below.
    _QUADRATIC_EIG_TRUTHS = {4: 0.79779723, 16: 1.40079314, 64: 2.06742714}

    def test_laplace_bias_decreases_with_experiments(self):
        # the Gaussianization error peaks near n_e = 4 for this model and
        # then decays at the 1/n_e rate, so the decrease is checked from the
        # start of the asymptotic regime
        model = QuadraticModel()
        results = []
        for n_e in (4, 16, 64):
            p = OEDProblem(
                model=model, xi=np.zeros(0),
                prior=PriorSpec(components=(("normal", 0.0, 1.0),)),
                noise_variances=[1.0], n_experiments=n_e,
            )
            est = eig_laplace_only(p, 2**13, sampler="rqmc-sobol-owen",
                                   key=RandomizationKey(46 + n_e),
                                   s_replicates=16).estimate
            results.append(abs(est - self._QUADRATIC_EIG_TRUTHS[n_e]))
        assert results[0] > results[1] > results[2]
        assert results[2] < 0.5 * results[0]


def _quadratic_model_eig_oracle(n_e):  # pragma: no cover - value provenance
    """Oracle used to freeze _QUADRATIC_EIG_TRUTHS (kept for re-derivation)."""
    from scipy.integrate import quad as _quad
    from scipy.optimize import minimize_scalar

    g = lambda t: t + 0.1 * t * t

    def inner_marginal_log(yb):
        expnt = lambda v: -0.5 * n_e * (yb - g(v)) ** 2 - 0.5 * v * v
        res = minimize_scalar(lambda v: -expnt(v), bounds=(-16, 16), method="bounded")
        v0, e0 = res.x, expnt(res.x)
        val, _ = _quad(lambda v: math.exp(expnt(v) - e0), -16, 16,
                       limit=300, points=[v0], epsabs=1e-13, epsrel=1e-11)
        return e0 + math.log(val) - 0.5 * math.log(2 * math.pi)

    t, w = np.polynomial.hermite.hermgauss(80)
    theta = math.sqrt(2.0) * t
    w_theta = w / math.sqrt(math.pi)
    sd = 1.0 / math.sqrt(n_e)
    total = 0.0
    for th, wt in zip(theta, w_theta):
        ybar = g(th) + math.sqrt(2.0) * sd * t
        quad_term = -0.5 * n_e * (ybar - g(th)) ** 2
        inner = np.array([inner_marginal_log(yb) for yb in ybar])
        total += wt * float(np.sum((w / math.sqrt(math.pi)) * (quad_term - inner)))
    return total


class TestTruncationConsistency:
    @pytest.mark.parametrize("tol", [1e-2, 1e-3])
    def test_truncated_quadrature_close_to_untruncated(self, tol):
        base = eig_quadrature(linear_gaussian_problem(), 32, 32, 64)
        p = OEDProblem(
            model=LinearGaussianModel(matrix=[[1.0]]), xi=np.zeros(0),
            prior=PriorSpec(components=(("normal", 0.0, 1.0),)),
            noise_variances=[1.0],
            truncation=TruncationSetting(enabled=True, p=1.0, tol=tol),
        )
        trunc = eig_quadrature(p, 32, 48, 64)
        assert abs(trunc - base) < tol
