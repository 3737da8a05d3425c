"""Expected-information-gain estimation for Bayesian experiment design.

The information gain of an experiment splits into a closed-form entropy term
of the observation noise and the expectation of the log marginal likelihood;
the latter is a nested integral (outer: parameters and noise, inner: the
marginalization over parameters) estimated by the double-loop machinery, in
plain form or with Laplace-based importance sampling for the inner integral.
A single-loop Laplace-only estimator and a conjugate closed form for
linear-Gaussian models round out the family.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .estimators import (
    EstimatorResult,
    NestedProblem,
    _check_pow2,
    _check_sampler,
    _inner_replicates,
    _make_result,
    _tensor_grid,
    default_sobol_params,
    dlmc_estimate,
    rdlqmc_estimate,
)
from .lds import RandomizationKey, owen_scramble, sobol_sequence
from .models import ForwardModel
from .stats import (
    PriorSpec,
    TruncationSetting,
    inv_norm_cdf,
    log_sum_exp,
    norm_cdf,
    truncated_inv_norm_cdf,
)

__all__ = [
    "OEDProblem",
    "MapConvergenceError",
    "LaplaceFitError",
    "log_likelihood",
    "closed_form_entropy_term",
    "simulate_data",
    "map_estimate",
    "laplace_covariance",
    "eig_nested",
    "eig_importance_sampled",
    "eig_laplace_only",
    "eig_conjugate_oracle",
    "eig_quadrature",
]

_LOG_2PI = math.log(2.0 * math.pi)

# Inner points per block of the nested inner integrand (see build_nested_problem).
# A block's temporaries (about 0.4 KiB a point on the PK model) sit beside the
# whole chunk's inner points and values, so they count toward peak memory.
_INNER_BLOCK = 1 << 14
# Newton-decrement tolerance of every posterior-mode search: a row has
# converged when grad^T H^-1 grad <= _MAP_TOL**2.  A mode off by H^-1 grad
# leaves the weighted inner integrand a slope in the inner normal z of about
# the whitened gradient |L^-1 grad| (H = L L^T), so an exact Gaussian
# posterior gives importance weights constant to rounding only when that is
# far below 1e-10.
_MAP_TOL = 1e-12


class MapConvergenceError(ArithmeticError):
    """Posterior-mode search did not converge; carries the last iterate."""

    def __init__(self, message, theta_last=None, grad_norm=None, index=None):
        super().__init__(message)
        self.theta_last = theta_last
        self.grad_norm = grad_norm
        self.index = index


class LaplaceFitError(ArithmeticError):
    """Non-positive-definite posterior precision; carries the sample index."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class OEDProblem:
    """Forward model, design, prior, and noise description of one experiment.

    The outer integration dimension is d_theta + n_experiments * d_y (the
    parameters plus every noise coordinate); the inner dimension is d_theta.
    """

    model: ForwardModel
    xi: np.ndarray
    prior: PriorSpec
    noise_variances: np.ndarray
    n_experiments: int = 1
    truncation: TruncationSetting = field(default_factory=TruncationSetting)
    h: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=np.float64))
        nv = np.atleast_1d(np.asarray(self.noise_variances, dtype=np.float64))
        if np.any(nv <= 0):
            raise ValueError("noise variances must be positive")
        if self.n_experiments < 1:
            raise ValueError("n_experiments must be >= 1")
        object.__setattr__(self, "noise_variances", nv)

    @property
    def d_y(self) -> int:
        return self.noise_variances.size

    @property
    def d_theta(self) -> int:
        return self.prior.dimension

    @property
    def d_outer(self) -> int:
        return self.d_theta + self.n_experiments * self.d_y

    @property
    def d_inner(self) -> int:
        return self.d_theta


# ---------------------------------------------------------------------------
# Likelihood and data simulation
# ---------------------------------------------------------------------------


def closed_form_entropy_term(n_experiments: int, noise_variances) -> float:
    """Exact value of the log-likelihood expectation term: the noise entropy
    with flipped sign, -(N_e/2) * sum_j (log(2 pi sigma_j^2) + 1)."""
    nv = np.atleast_1d(np.asarray(noise_variances, dtype=np.float64))
    if np.any(nv <= 0):
        raise ValueError("noise variances must be positive")
    return float(-(n_experiments / 2.0) * np.sum(np.log(2.0 * math.pi * nv) + 1.0))


def _loglik_const(problem: OEDProblem) -> float:
    return float(
        -(problem.n_experiments / 2.0)
        * np.sum(np.log(2.0 * math.pi * problem.noise_variances))
    )


def _batch_loglik(problem: OEDProblem, y_data: np.ndarray, g_inner: np.ndarray) -> np.ndarray:
    """Log-likelihood of data batches against candidate model outputs.

    y_data: (B, N_e, d_y); g_inner: (B, K, d_y) -> (B, K).
    """
    inv_s2 = 1.0 / problem.noise_variances
    r = y_data[:, None, :, :] - g_inner[:, :, None, :]
    r *= r
    quad = np.einsum("bkij,j->bk", r, inv_s2)
    return _loglik_const(problem) - 0.5 * quad


def log_likelihood(y_data, theta, problem: OEDProblem) -> float:
    """Gaussian log-likelihood of (d_y, N_e) data at one parameter vector."""
    y = np.asarray(y_data, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    if y.shape != (problem.d_y, problem.n_experiments):
        raise ValueError(
            f"data must be (d_y={problem.d_y}, N_e={problem.n_experiments})"
        )
    theta = np.asarray(theta, dtype=np.float64)
    g = problem.model.evaluate(theta[None, :], problem.xi, problem.h)
    if not np.all(np.isfinite(g)):
        raise ValueError("model output is not finite")
    ll = _batch_loglik(problem, y.T[None, :, :], g[:, None, :])
    return float(ll[0, 0])


def _noise_values(problem: OEDProblem, u: np.ndarray) -> np.ndarray:
    """Noise coordinates from unit-cube rows: (B, n_e*d_y) -> (B, N_e, d_y)."""
    if problem.truncation.enabled:
        z = truncated_inv_norm_cdf(u, problem.truncation.radius)
    else:
        z = inv_norm_cdf(u)
    z = z.reshape(u.shape[0], problem.n_experiments, problem.d_y)
    return z * np.sqrt(problem.noise_variances)[None, None, :]


def simulate_data(theta, problem: OEDProblem, noise_draw) -> np.ndarray:
    """Observations G(theta, xi) + sigma * draw, shaped (d_y, N_e).

    ``noise_draw`` is a (d_y, N_e) array of standard-normal (or truncated)
    draws, or a RandomizationKey from which the draw is generated (truncated
    when the problem says so).
    """
    theta = np.asarray(theta, dtype=np.float64)
    if isinstance(noise_draw, RandomizationKey):
        u = noise_draw.uniforms((problem.n_experiments * problem.d_y,), salt="data")
        noise = _noise_values(problem, u[None, :])[0].T  # (d_y, N_e)
    else:
        draw = np.asarray(noise_draw, dtype=np.float64)
        if draw.ndim == 1:
            draw = draw[:, None]
        noise = np.sqrt(problem.noise_variances)[:, None] * draw
    g = problem.model.evaluate(theta[None, :], problem.xi, problem.h)[0]
    return g[:, None] + noise


# ---------------------------------------------------------------------------
# Posterior mode and Laplace surrogate
# ---------------------------------------------------------------------------


def _neg_log_post(problem, theta, y_data, h):
    """Negative log posterior (up to a constant) and the model output at theta."""
    g = problem.model.evaluate(theta, problem.xi, h)
    r = y_data - g[:, None, :]
    r *= r
    quad = np.einsum("bij,j->b", r, 1.0 / problem.noise_variances)
    return 0.5 * quad - problem.prior.logpdf(theta), g


def _gauss_newton_terms(a, jac, rsum=None):
    """sum_i a_i^T jac_i, shape (B, d, d), and sum_i a_i rsum_i, shape (B, d).

    a and jac are (B, n, d), rsum is (B, n) or None.  Both are batched
    matmul products, so each row's bits depend on that row alone.
    """
    at = np.swapaxes(a, 1, 2)
    jtr = None if rsum is None else (at @ rsum[:, :, None])[:, :, 0]
    return at @ jac, jtr


def _gauss_newton_hessian(problem, theta, jac, rsum=None):
    """Gauss-Newton Hessian of the negative log posterior at theta from the
    model Jacobian there, (B, d, d) and not symmetrized, and the
    likelihood's gradient term sum_i J_i^T S^-1 rsum_i when rsum is given."""
    b, n, d = jac.shape
    # jac * S^-1[None, :, None] as one n*d long pass a row, not n passes of d
    w = np.repeat(1.0 / problem.noise_variances, d)
    a = (jac.reshape(b, n * d) * w).reshape(jac.shape)
    jtj, jtr = _gauss_newton_terms(a, jac, rsum)
    hess = problem.n_experiments * jtj
    diag = np.arange(problem.d_theta)
    hess[:, diag, diag] += -problem.prior.hess_diag_logpdf(theta)
    return hess, jtr


def _solve_rows(a, b):
    """x with a_i x_i = b_i for a batch a (B, d, d), b (B, d); a row whose
    matrix is singular is NaN, and every other row has the bits of its own
    one-row solve."""
    try:
        return np.linalg.solve(a, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan)
        for i in range(b.shape[0]):
            with contextlib.suppress(np.linalg.LinAlgError):
                x[i] = np.linalg.solve(a[i:i + 1], b[i:i + 1, :, None])[0, :, 0]
        return x


def _map_batch(problem, y_data, init, h=None, max_iter=100, hess_out=None):
    """Damped Gauss-Newton posterior-mode search, vectorized over samples.

    y_data: (B, N_e, d_y); init: (B, d_theta).  Returns (theta_hat, iters).
    A (B, d_theta, d_theta) ``hess_out`` receives each row's last Hessian:
    the one whose Newton decrement ended the row, built at the mode returned.
    A row has converged when its Newton decrement grad^T H^-1 grad, with H
    the Gauss-Newton Hessian of the negative log posterior, is in
    [0, _MAP_TOL**2]: the gradient measured in the posterior's own
    metric, whatever the parameters' scale.  A negligible near-undamped step
    also ends a row.  The solve behind the decrement gives the undamped
    step -H^-1 grad, which a row tries first while its damping lam is 0; a
    rejected step (or a singular H) raises lam, and accepted steps decay it
    back to 0.  Each iteration works on the rows that have not converged,
    and a row leaves the damping loop once its trial step is accepted, so
    every row takes the path it would take in a batch of its own.
    """
    theta_out = np.array(init, dtype=np.float64)
    iters = np.zeros(theta_out.shape[0], dtype=np.int64)
    lower = problem.prior.support_lower()
    upper = problem.prior.support_upper()
    eye = np.eye(problem.d_theta)
    # state of the unconverged rows; idx holds their batch positions in order
    idx = np.arange(theta_out.shape[0])
    theta, y = theta_out.copy(), y_data
    obj, g = _neg_log_post(problem, theta, y, h)  # g: model output at theta
    lam = np.zeros(idx.size)
    tiny = np.zeros(idx.size, dtype=bool)  # converged by a negligible step

    for it in range(max_iter + 1):
        jac = problem.model.jacobian(theta, problem.xi, h)
        rsum = (y - g[:, None, :]).sum(axis=1)
        hess, jtr = _gauss_newton_hessian(problem, theta, jac, rsum)
        grad = -jtr - problem.prior.grad_logpdf(theta)
        newton = _solve_rows(hess, -grad)
        dec = -np.sum(grad * newton, axis=1)  # grad^T H^-1 grad
        keep = ~(((dec >= 0.0) & (dec <= _MAP_TOL**2)) | tiny)  # NaN keeps a row
        if not keep.all():
            theta_out[idx[~keep]] = theta[~keep]
            if hess_out is not None:
                hess_out[idx[~keep]] = hess[~keep]
            idx, theta, y, obj, g, lam = (v[keep] for v in (idx, theta, y, obj, g, lam))
            hess, grad, newton = hess[keep], grad[keep], newton[keep]
        if idx.size == 0:
            break
        if it == max_iter:
            gnorm = float(np.max(np.abs(grad[0])))
            raise MapConvergenceError(
                f"posterior-mode search failed at sample {idx[0]}: "
                f"|grad| = {gnorm:.3e} after {max_iter} iterations",
                theta_last=theta[0],
                grad_norm=gnorm,
                index=int(idx[0]),
            )
        iters[idx] = it + 1
        pending = np.ones(idx.size, dtype=bool)
        tiny = np.zeros(idx.size, dtype=bool)
        for _ in range(8):
            p = np.nonzero(pending)[0]
            if p.size == 0:
                break
            lam_p = lam[p]
            step = newton[p]
            damped = lam_p > 0.0
            if damped.any():
                q = p[damped]
                step[damped] = _solve_rows(
                    hess[q] + lam_p[damped, None, None] * eye, -grad[q]
                )
            theta_p = theta[p]
            # a near-undamped Newton step below machine precision in theta is
            # numerical stationarity even when rounding in the gradient keeps
            # the decrement above tolerance
            tiny_p = np.all(np.abs(step) <= 1e-14 * (1.0 + np.abs(theta_p)), axis=1)
            tiny_p &= lam_p <= 1e-3
            trial = theta_p + step
            inside = np.all((trial > lower) & (trial < upper), axis=1)  # False on NaN
            trial_obj = np.full(p.size, np.inf)
            trial_g = np.empty((p.size, g.shape[1]))
            if inside.any():
                trial_obj[inside], trial_g[inside] = _neg_log_post(
                    problem, trial[inside], y[p[inside]], h
                )
            obj_p = obj[p]
            better = inside & (trial_obj <= obj_p + 1e-12 * (1.0 + np.abs(obj_p)))
            acc = p[better]
            theta[acc] = trial[better]
            obj[acc] = np.minimum(trial_obj[better], obj_p[better])
            g[acc] = trial_g[better]
            decayed = lam_p * 0.3
            lam[p] = np.where(
                better,
                np.where(decayed < 1e-12, 0.0, decayed),
                np.clip(lam_p * 10.0, 1e-8, 1e12),
            )
            tiny[p] = tiny_p
            pending[p] = ~(better | tiny_p)
    return theta_out, iters


def map_estimate(y_data, problem: OEDProblem, init=None) -> np.ndarray:
    """Posterior mode for one (d_y, N_e) data set."""
    y = np.asarray(y_data, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    init = problem.prior.median() if init is None else np.asarray(init, dtype=np.float64)
    theta, _ = _map_batch(problem, y.T[None, :, :], init[None, :], h=problem.h)
    return theta[0]


def _precision_batch(problem, theta_hat, h=None, hess=None):
    """Symmetrized Gauss-Newton posterior precision at a batch of modes;
    ``hess`` is the Hessian already built there, when a caller has it."""
    if hess is None:
        jac = problem.model.jacobian(theta_hat, problem.xi, h)
        hess = _gauss_newton_hessian(problem, theta_hat, jac)[0]
    return 0.5 * (hess + np.swapaxes(hess, 1, 2))


def _precision_cholesky(prec):
    """Lower Cholesky factors L (prec = L L^T) and log det(prec) of a batch
    of precisions; LaplaceFitError carries the first sample that is not
    finite or not positive definite."""
    finite = np.isfinite(prec).all(axis=(1, 2))
    if not finite.all():
        bad = int(np.argmin(finite))
        raise LaplaceFitError(f"posterior precision not finite at sample {bad}", index=bad)
    try:
        l_prec = np.linalg.cholesky(prec)
    except np.linalg.LinAlgError:
        eig = np.linalg.eigvalsh(prec)
        nonpos = eig[:, 0] <= 0
        # rounding can fail a factorization whose eigenvalues are all
        # positive; then the worst-conditioned sample is named
        bad = int(np.argmax(nonpos) if nonpos.any() else np.argmin(eig[:, 0] / eig[:, -1]))
        raise LaplaceFitError(
            f"posterior precision not positive definite at sample {bad}", index=bad
        ) from None
    log_det_prec = 2.0 * np.sum(np.log(np.diagonal(l_prec, axis1=1, axis2=2)), axis=1)
    return l_prec, log_det_prec


def _laplace_batch(problem, theta_hat, h=None, hess=None):
    """Cholesky pieces of the Laplace surrogate for a batch of modes.

    Returns (chol_cov, log_det_cov) with chol_cov lower-triangular factors
    of the covariance.  ``hess`` is the Hessian that _map_batch built at the
    modes; without it the precision is evaluated at theta_hat.
    """
    prec = _precision_batch(problem, theta_hat, h, hess)
    l_prec, log_det_prec = _precision_cholesky(prec)
    eye = np.broadcast_to(np.eye(problem.d_theta), prec.shape)
    l_inv = np.linalg.solve(l_prec, eye.copy())  # L^-1 with prec = L L^T
    cov_chol = np.swapaxes(l_inv, 1, 2)  # covariance = (L^-1)^T (L^-1)
    return cov_chol, -log_det_prec


def laplace_covariance(theta_hat, problem: OEDProblem) -> np.ndarray:
    """Covariance of the Gaussian posterior surrogate at the given mode."""
    theta_hat = np.asarray(theta_hat, dtype=np.float64)
    prec = _precision_batch(problem, theta_hat[None, :], problem.h)
    _precision_cholesky(prec)
    return np.linalg.inv(prec[0])


# ---------------------------------------------------------------------------
# Nested EIG estimators
# ---------------------------------------------------------------------------


def _check_sampler_prior(problem: OEDProblem, family: str):
    if family == "is" and any(k == "uniform" for k in problem.prior.kinds):
        raise ValueError(
            "importance sampling with a uniform prior creates discontinuous "
            "weights; use the plain nested estimator instead"
        )


def build_nested_problem(
    problem: OEDProblem,
    family: str = "plain",
    laplace_mode: str = "optimized-map",
) -> NestedProblem:
    """Unit-cube nested problem whose outer map is log and whose inner
    integrand is the (importance-weighted) likelihood in log form.

    ``prepare`` simulates each outer row's data and, for importance
    sampling, solves its posterior mode and Laplace factor once; the inner
    integrand reads that state for every inner block.
    """
    if family not in ("plain", "is"):
        raise ValueError("family must be 'plain' or 'is'")
    if laplace_mode not in ("optimized-map", "data-generating-theta"):
        raise ValueError("laplace_mode must be 'optimized-map' or 'data-generating-theta'")
    _check_sampler_prior(problem, family)
    d_theta = problem.d_theta

    def prepare(y, h_level):
        """Data of each outer row and, for importance sampling, its Laplace
        proposal: the posterior mode and the covariance Cholesky factor."""
        theta = problem.prior.transform(y[:, :d_theta])
        noise = _noise_values(problem, y[:, d_theta:])
        g_true = problem.model.evaluate(theta, problem.xi, h_level)
        y_data = g_true[:, None, :] + noise  # (B, N_e, d_y)
        if family == "plain":
            return (y_data,)
        if laplace_mode == "optimized-map":
            hess = np.empty((theta.shape[0], d_theta, d_theta))
            theta_hat, _ = _map_batch(problem, y_data, theta, h=h_level, hess_out=hess)
        else:
            theta_hat, hess = theta, None
        cov_chol, log_det_cov = _laplace_batch(problem, theta_hat, h=h_level, hess=hess)
        return y_data, theta_hat, cov_chol, log_det_cov

    def block_log(state, rows, xb, h_level):
        """Log integrand of the outer rows ``rows`` at their inner points xb."""
        y_data = state[0][rows]
        nb, k = xb.shape[0], xb.shape[1]
        if family == "plain":
            vartheta = problem.prior.transform(xb.reshape(nb * k, d_theta))
            g_in = problem.model.evaluate(vartheta, problem.xi, h_level)
            return _batch_loglik(problem, y_data, g_in.reshape(nb, k, -1))
        _, theta_hat, cov_chol, log_det_cov = state
        z = inv_norm_cdf(xb)  # (rows, K, d_theta)
        vartheta = theta_hat[rows, None, :] + np.einsum("bij,bkj->bki", cov_chol[rows], z)
        g_in = problem.model.evaluate(
            vartheta.reshape(nb * k, d_theta), problem.xi, h_level
        ).reshape(nb, k, -1)
        ll = _batch_loglik(problem, y_data, g_in)
        log_prior = problem.prior.logpdf(vartheta)
        log_proposal = (
            -0.5 * (d_theta * _LOG_2PI + log_det_cov[rows])[:, None]
            - 0.5 * np.einsum("bkj,bkj->bk", z, z)
        )
        return ll + log_prior - log_proposal

    def inner_log(state, x, h_level):
        b, k = x.shape[0], x.shape[1]
        out = np.empty((b, k))
        # each value depends on its row and point alone, so the inner points
        # are evaluated at most _INNER_BLOCK at a time, a few rows or a part
        # of one row, and the (rows, K, d_y) temporaries stay the same size
        # whatever K is; a block's temporaries are freed when block_log
        # returns, before the next block's are made
        step, width = max(1, _INNER_BLOCK // k), min(k, _INNER_BLOCK)
        for lo in range(0, b, step):
            rows = slice(lo, lo + step)
            for k_lo in range(0, k, width):
                pts = slice(k_lo, k_lo + width)
                out[rows, pts] = block_log(state, rows, x[rows, pts], h_level)
        return out

    return NestedProblem(
        d1=problem.d_outer,
        d2=problem.d_inner,
        inner=inner_log,
        prepare=prepare,
        outer_map="log",
        inner_is_log=True,
        h=problem.h,
        gamma=getattr(problem.model, "gamma", 0.0),
    )


def _assemble_eig(problem: OEDProblem, term: EstimatorResult) -> EstimatorResult:
    entropy = closed_form_entropy_term(problem.n_experiments, problem.noise_variances)
    return replace(
        term,
        estimate=float(entropy - term.estimate),
        replicate_values=entropy - term.replicate_values,
    )


def _run_nested(nested, N, M, S, R, sampler, key):
    if sampler == "mc" and S == 1 and R == 1:
        return dlmc_estimate(nested, N, M, key)
    return rdlqmc_estimate(nested, N, M, S, R, key, sampler=sampler)


def eig_nested(
    problem: OEDProblem,
    N: int,
    M: int,
    S: int = 1,
    R: int = 1,
    sampler="rqmc-sobol-owen",
    key: RandomizationKey | None = None,
) -> EstimatorResult:
    """Double-loop EIG estimate: entropy term minus the nested log-marginal."""
    key = key or RandomizationKey(0)
    nested = build_nested_problem(problem, family="plain")
    term = _run_nested(nested, N, M, S, R, sampler, key)
    return _assemble_eig(problem, term)


def eig_importance_sampled(
    problem: OEDProblem,
    N: int,
    M: int,
    S: int = 1,
    R: int = 1,
    sampler="rqmc-sobol-owen",
    laplace_mode: str = "optimized-map",
    key: RandomizationKey | None = None,
) -> EstimatorResult:
    """Nested EIG with the inner integral importance-sampled from the
    per-datum Laplace surrogate."""
    key = key or RandomizationKey(0)
    nested = build_nested_problem(problem, family="is", laplace_mode=laplace_mode)
    term = _run_nested(nested, N, M, S, R, sampler, key)
    return _assemble_eig(problem, term)


def inner_replicate_spread(
    problem: OEDProblem,
    N: int,
    M: int,
    R: int,
    laplace_mode: str = "optimized-map",
    key: RandomizationKey | None = None,
) -> float:
    """Max over outer samples of the spread of R inner-rescramble estimates.

    Diagnostic for importance-sampling exactness: with an exact Gaussian
    posterior the weighted inner integrand is constant and the spread
    vanishes at any M.
    """
    key = key or RandomizationKey(0)
    nested = build_nested_problem(problem, family="is", laplace_mode=laplace_mode)
    per_rep = _inner_replicates(nested, N, M, R, key, key)
    return float(np.max(per_rep.max(axis=1) - per_rep.min(axis=1)))


def eig_laplace_only(
    problem: OEDProblem,
    N: int,
    sampler="mc",
    key: RandomizationKey | None = None,
    s_replicates: int = 8,
) -> EstimatorResult:
    """Single-loop Laplace EIG: prior cross-entropy minus the Gaussian
    posterior entropy at prior samples (no inner loop).

    The posterior covariance is evaluated at each sampled parameter vector
    in place of an optimized mode.
    """
    key = key or RandomizationKey(0)
    sampler = _check_sampler(sampler)
    d = problem.d_theta

    def integrand(u):
        theta = problem.prior.transform(u)
        _, log_det_prec = _precision_cholesky(_precision_batch(problem, theta, problem.h))
        return (
            0.5 * log_det_prec
            - 0.5 * d * _LOG_2PI
            - 0.5 * d
            - problem.prior.logpdf(theta)
        )

    work_factor = 1.0
    if problem.h is not None and getattr(problem.model, "gamma", 0.0) > 0:
        work_factor = problem.h ** (-problem.model.gamma)

    if sampler == "mc":
        if N < 1:
            raise ValueError(f"N must be >= 1, got {N}")
        u = key.uniforms((N, d), salt="laplace")
        values = integrand(u)
        return _make_result(values, {"N": N}, key, work=N * work_factor, divisor=N)
    _check_pow2(N, "N")
    if s_replicates < 1:
        raise ValueError(f"s_replicates must be >= 1, got {s_replicates}")
    params = default_sobol_params()
    base = sobol_sequence(params, d, int(math.log2(N)))
    means = []
    for s in range(s_replicates):
        pts = owen_scramble(base, key.child("laplace", s)).values
        means.append(float(np.mean(integrand(pts))))
    return _make_result(
        means, {"N": N, "S": s_replicates}, key, work=N * s_replicates * work_factor
    )


def eig_conjugate_oracle(prior_variances, noise_variances, jacobian, n_experiments: int) -> float:
    """Closed-form EIG for the linear-Gaussian model:
    0.5 * log det(I + N_e * Sigma_p J^T Sigma_eps^-1 J)."""
    sp = np.atleast_1d(np.asarray(prior_variances, dtype=np.float64))
    se = np.atleast_1d(np.asarray(noise_variances, dtype=np.float64))
    j = np.atleast_2d(np.asarray(jacobian, dtype=np.float64))
    if np.any(sp <= 0) or np.any(se <= 0):
        raise ValueError("variances must be positive")
    a = np.eye(sp.size) + n_experiments * np.diag(sp) @ (j.T / se) @ j
    sign, logdet = np.linalg.slogdet(a)
    if sign <= 0:
        raise ValueError("singular information matrix")
    return float(0.5 * logdet)


# ---------------------------------------------------------------------------
# Quadrature reference for small problems
# ---------------------------------------------------------------------------


def _prior_quadrature_axes(prior: PriorSpec, order: int):
    """Per-component nodes/weights integrating against the prior density."""
    axes = []
    gh_t, gh_w = np.polynomial.hermite.hermgauss(order)
    gl_t, gl_w = np.polynomial.legendre.leggauss(order)
    for comp in prior.components:
        if comp.kind == "uniform":
            nodes = comp.a + (comp.b - comp.a) * 0.5 * (gl_t + 1.0)
            weights = 0.5 * gl_w
        elif comp.kind == "normal":
            nodes = comp.a + comp.b * math.sqrt(2.0) * gh_t
            weights = gh_w / math.sqrt(math.pi)
        else:
            nodes = np.exp(comp.a + comp.b * math.sqrt(2.0) * gh_t)
            weights = gh_w / math.sqrt(math.pi)
        axes.append((nodes, weights))
    return axes


def eig_quadrature(
    problem: OEDProblem,
    order_theta: int = 24,
    order_noise: int = 32,
    order_inner: int = 64,
) -> float:
    """Deterministic tensor-quadrature EIG for small problems.

    Parameters integrate against the prior (Gauss-Hermite for normal and
    lognormal components, Gauss-Legendre for uniform); untruncated noise
    uses Gauss-Hermite while truncated noise maps Gauss-Legendre nodes
    through the truncated inverse CDF.  Limited to d_theta <= 2 and
    n_experiments * d_y <= 2.
    """
    if problem.d_theta > 2 or problem.n_experiments * problem.d_y > 2:
        raise ValueError("quadrature EIG limited to tiny problems")
    theta_nodes, theta_w = _tensor_grid(
        _prior_quadrature_axes(problem.prior, order_theta)
    )
    sigma = np.sqrt(
        np.tile(problem.noise_variances, problem.n_experiments)
    )  # per noise coordinate
    if problem.truncation.enabled:
        # integrate the normalized truncated normal directly on [-c, c]
        c = problem.truncation.radius
        z_norm = 2.0 * norm_cdf(c) - 1.0
        gl_t, gl_w = np.polynomial.legendre.leggauss(order_noise)
        z = c * gl_t
        dens = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        w = gl_w * c * dens / z_norm
        axes = [(z * s, w) for s in sigma]
    else:
        gh_t, gh_w = np.polynomial.hermite.hermgauss(order_noise)
        axes = [(math.sqrt(2.0) * s * gh_t, gh_w / math.sqrt(math.pi)) for s in sigma]
    noise_nodes, noise_w = _tensor_grid(axes)

    inner_nodes, inner_w = _tensor_grid(
        _prior_quadrature_axes(problem.prior, order_inner)
    )
    g_inner = problem.model.evaluate(inner_nodes, problem.xi, problem.h)
    log_w_inner = np.log(inner_w)

    entropy = closed_form_entropy_term(problem.n_experiments, problem.noise_variances)
    inv_s2 = 1.0 / problem.noise_variances
    const = _loglik_const(problem)
    total = 0.0
    ne, dy = problem.n_experiments, problem.d_y
    for t_idx in range(theta_nodes.shape[0]):
        g_t = problem.model.evaluate(theta_nodes[t_idx][None, :], problem.xi, problem.h)[0]
        y_data = g_t[None, None, :] + noise_nodes.reshape(-1, ne, dy)
        r = y_data[:, None, :, :] - g_inner[None, :, None, :]
        ll = const - 0.5 * np.einsum("bkij,j->bk", r * r, inv_s2)
        log_marg = log_sum_exp(ll + log_w_inner[None, :], axis=1)
        total += theta_w[t_idx] * float(noise_w @ log_marg)
    return entropy - total
