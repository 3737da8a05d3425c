"""Expected-information-gain estimation for Bayesian experiment design.

The information gain of an experiment splits into a closed-form entropy term
of the observation noise and the expectation of the log marginal likelihood;
the latter is a nested integral (outer: parameters and noise, inner: the
marginalization over parameters) estimated by the double-loop machinery, in
plain form or with the inner integral importance-sampled from each outer
row's linearized posterior, a Gaussian in the prior's Gaussian coordinates
(log-parameters for lognormal components).  A single-loop Laplace-only
estimator, a conjugate closed form for linear-Gaussian models and a tensor
quadrature for tiny ones round out the family.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .estimators import (
    EstimatorResult,
    NestedProblem,
    _inner_replicates,
    _tensor_grid,
    default_sobol_params,  # noqa: F401  (the Sobol table, importable from oed)
    rdlqmc_estimate,
)
from .lds import RandomizationKey
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

# Newton-decrement tolerance of the posterior-mode search behind
# map_estimate: a row has converged when grad^T H^-1 grad <= _MAP_TOL**2 =
# 1e-6, about 1e-3 posterior standard deviations from the exact mode.  No
# estimator runs the search: the importance-sampling proposal is the
# linearized posterior at each outer row's own parameters
# (_linearized_proposal).
_MAP_TOL = 1e-3

# Rows per slice of the Gauss-Newton assembly: a slice's Jacobian, its
# weighted copy and its residual sums are folded into the batch's Hessian
# and gradient terms and freed before the next slice is built, so a search
# holds at most this many rows' Jacobian at a time.
_GN_ROWS = 1024


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


def _batch_loglik(problem: OEDProblem, y_data: np.ndarray, columns) -> np.ndarray:
    """Log-likelihood of data batches against candidate model outputs.

    y_data: (B, N_e, d_y); columns: the d_y output columns G_j of the
    candidates, each (B, K), as ``model.output_columns`` yields them (a
    caller holding (B, K, d_y) outputs g passes ``np.moveaxis(g, -1, 0)``)
    -> (B, K).  The misfit sum_j sum_i (y_ij - G_j)^2 / sigma_j^2 is
    accumulated in place as the columns arrive, in column order.
    """
    inv_s2 = 1.0 / problem.noise_variances
    quad = 0.0
    for j, g in enumerate(columns):
        for i in range(problem.n_experiments):
            r = y_data[:, i, j, None] - g
            r *= r
            r *= inv_s2[j]
            quad += r
    const = float(
        -(problem.n_experiments / 2.0)
        * np.sum(np.log(2.0 * math.pi * problem.noise_variances))
    )
    quad *= -0.5
    quad += const
    return quad


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
    ll = _batch_loglik(problem, y.T[None, :, :], np.moveaxis(g[:, None, :], -1, 0))
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


def _neg_log_post(problem, theta, y_data, g=None):
    """Negative log posterior (up to a constant) at theta and the model
    output g there, which is evaluated unless the caller has it."""
    if g is None:
        g = problem.model.evaluate(theta, problem.xi, problem.h)
    r = y_data - g[:, None, :]
    r *= r
    quad = np.einsum("bij,j->b", r, 1.0 / problem.noise_variances)
    return 0.5 * quad - problem.prior.logpdf(theta), g


def _gauss_newton_system(problem, theta, y_data=None, g=None, gaussian=False):
    """Gauss-Newton Hessian of the negative log posterior at theta, (B, d, d)
    and not symmetrized, and, given data y_data and the model output g at
    theta, the likelihood's gradient term sum_i J_i^T S^-1 (y_i - g), (B, d),
    or None.

    With ``gaussian`` both are taken in the prior's Gaussian coordinates phi
    (``PriorSpec.gaussian_coordinates``), whose Jacobian is J D with
    D = diag(dtheta/dphi), theta on a lognormal component and 1 on a normal
    one: the likelihood's terms become D (J^T S^-1 J) D and D J^T S^-1 rsum,
    and the prior's term is its constant precision diag(scale^-2).

    The Jacobian is built _GN_ROWS rows at a time; a slice's J^T S^-1 J and
    J^T S^-1 rsum are batched matmul products, so every row's bits are those
    of its own one-row assembly.
    """
    b, d = theta.shape
    hess = np.empty((b, d, d))
    jtr = None if y_data is None else np.empty((b, d))
    # J * S^-1[None, :, None] as one n*d long pass a row, not n passes of d
    w = np.repeat(1.0 / problem.noise_variances, d)
    for lo in range(0, b, _GN_ROWS):
        s = slice(lo, lo + _GN_ROWS)
        jac = problem.model.jacobian(theta[s], problem.xi, problem.h)
        at = np.swapaxes((jac.reshape(len(jac), -1) * w).reshape(jac.shape), 1, 2)
        hess[s] = at @ jac
        if jtr is not None:
            rsum = (y_data[s] - g[s, None, :]).sum(axis=1)
            jtr[s] = (at @ rsum[:, :, None])[:, :, 0]
        # freed here, not when the next slice rebinds them: held while the
        # next Jacobian is built, they would add a slice to the search's peak
        del jac, at
    hess *= problem.n_experiments
    diag = np.arange(d)
    if not gaussian:
        hess[:, diag, diag] += -problem.prior.hess_diag_logpdf(theta)
        return hess, jtr
    _, scale, log = problem.prior.gaussian_coordinates()
    dtheta = np.where(log, theta, 1.0)  # dtheta/dphi
    hess *= dtheta[:, :, None] * dtheta[:, None, :]
    hess[:, diag, diag] += 1.0 / (scale * scale)
    if jtr is not None:
        jtr *= dtheta
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


def _map_batch(problem, y_data, init, max_iter=100, hess_out=None, g_init=None):
    """Damped Gauss-Newton posterior-mode search, vectorized over samples.

    y_data: (B, N_e, d_y); init: (B, d_theta).  Returns (theta_hat, iters).
    A (B, d_theta, d_theta) ``hess_out`` receives each row's last Hessian:
    the one whose Newton decrement ended the row, built at the mode returned.
    ``g_init``, the model output at init (B, d_y) when the caller has it,
    spares the start's model evaluation; the search may overwrite it.
    A row has converged when its Newton decrement grad^T H^-1 grad, with H
    the Gauss-Newton Hessian of the negative log posterior, is in
    [0, _MAP_TOL**2]: the gradient measured in the posterior's own
    metric, whatever the parameters' scale.  Only an exactly stationary
    start (a zero decrement) stops before the first step; every other row
    takes at least one, which is exact on a linear-Gaussian posterior, so
    a start near its mode still returns the mode to rounding.  A negligible
    near-undamped step also ends a row.  The solve behind the decrement
    gives the undamped step -H^-1 grad, which a row tries first while its
    damping lam is 0; a rejected step (or a singular H) raises lam, and
    accepted steps decay it back to 0.  Each iteration works on the rows
    that have not converged, and a row leaves the damping loop once its
    trial step is accepted, so every row takes the path it would take in a
    batch of its own.
    """
    theta_out = np.array(init, dtype=np.float64)
    iters = np.zeros(theta_out.shape[0], dtype=np.int64)
    # state of the unconverged rows; idx holds their batch positions in order
    idx = np.arange(theta_out.shape[0])
    theta, y = theta_out.copy(), y_data
    obj, g = _neg_log_post(problem, theta, y, g_init)  # g: model output at theta
    lam = np.zeros(idx.size)
    tiny = np.zeros(idx.size, dtype=bool)  # converged by a negligible step

    for it in range(max_iter + 1):
        hess, jtr = _gauss_newton_system(problem, theta, y, g)
        grad = -jtr - problem.prior.grad_logpdf(theta)
        newton = _solve_rows(hess, -grad)
        dec = -np.sum(grad * newton, axis=1)  # grad^T H^-1 grad
        stop = (dec >= 0.0) & (dec <= _MAP_TOL**2) & ((it > 0) | (dec == 0.0))
        keep = ~(stop | tiny)  # NaN keeps a row
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
        tiny = _damped_step(problem, theta, y, obj, g, lam, hess, grad, newton)
    return theta_out, iters


def _damped_step(problem, theta, y, obj, g, lam, hess, grad, newton):
    """One damped step of every row of a posterior-mode search.

    A row tries -(H + lam I)^-1 grad (the Newton step while lam is 0) until
    its objective does not rise, for at most 8 tries; a rejected trial
    raises lam and an accepted one decays it.  theta, obj, g and lam are
    updated in place; the rows whose near-undamped step was negligible are
    returned.  The trial arrays are freed when this returns.
    """
    lower = problem.prior.support_lower()
    upper = problem.prior.support_upper()
    eye = np.eye(problem.d_theta)
    pending = np.ones(theta.shape[0], dtype=bool)
    tiny = np.zeros(theta.shape[0], dtype=bool)
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
        # numerical stationarity where the decrement cannot show it, as
        # at a zero gradient with a singular H (a NaN decrement)
        tiny_p = np.all(np.abs(step) <= 1e-14 * (1.0 + np.abs(theta_p)), axis=1)
        tiny_p &= lam_p <= 1e-3
        trial = theta_p + step
        inside = np.all((trial > lower) & (trial < upper), axis=1)  # False on NaN
        if p.size == pending.size and inside.all():  # every row, no row copies
            trial_obj, trial_g = _neg_log_post(problem, trial, y)
        else:
            trial_obj = np.full(p.size, np.inf)
            trial_g = np.empty((p.size, g.shape[1]))
            if inside.any():
                trial_obj[inside], trial_g[inside] = _neg_log_post(
                    problem, trial[inside], y[p[inside]]
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
    return tiny


def map_estimate(y_data, problem: OEDProblem, init=None) -> np.ndarray:
    """Posterior mode for one (d_y, N_e) data set, good to a Newton
    decrement of _MAP_TOL**2 = 1e-6: about 1e-3 posterior standard
    deviations from the exact mode."""
    y = np.asarray(y_data, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    init = problem.prior.median() if init is None else np.asarray(init, dtype=np.float64)
    theta, _ = _map_batch(problem, y.T[None, :, :], init[None, :])
    return theta[0]


def _precision_cholesky(hess):
    """Lower Cholesky factors L and log dets of the posterior precisions
    prec = (hess + hess^T) / 2 = L L^T of a batch of Gauss-Newton Hessians;
    LaplaceFitError carries the first sample whose precision is not finite
    or not positive definite."""
    prec = 0.5 * (hess + np.swapaxes(hess, 1, 2))
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


def _laplace_batch(problem, theta_hat, hess=None):
    """Factor of a Gaussian surrogate's covariance for a batch of points.

    Returns (cov_chol, log_det_cov).  cov_chol[b] = (L^-1)^T, with
    prec = L L^T the lower Cholesky factor of row b's precision, so
    cov_chol cov_chol^T is the covariance and a centre + cov_chol z with z
    standard normal samples the surrogate.  It is upper triangular with
    exact zeros below the diagonal, so _proposal_points may skip those
    terms: each would add an exact zero times a finite z.  ``hess`` is a
    Hessian the caller built (the importance-sampling proposal's, in the
    prior's Gaussian coordinates); without it the Gauss-Newton Hessian in
    theta is built at theta_hat.
    """
    if hess is None:
        hess = _gauss_newton_system(problem, theta_hat)[0]
    l_prec, log_det_prec = _precision_cholesky(hess)
    # L^-1 by forward substitution, one row for the whole batch at a time:
    # row i is (e_i - sum_{k<i} L_ik row_k) / L_ii, zero right of column i
    l_inv = np.zeros_like(l_prec)
    for i in range(l_prec.shape[1]):
        row = l_inv[:, i, :]
        row[:, i] = 1.0
        for k in range(i):
            row -= l_prec[:, i, k, None] * l_inv[:, k, :]
        row /= l_prec[:, i, i, None]
    return np.swapaxes(l_inv, 1, 2), -log_det_prec


def _proposal_points(centre, cov_chol, z):
    """centre_b + U_b z_bk for centres (B, d), upper-triangular factors U
    (B, d, d) and standard-normal points z (B, K, d), as (B, K, d).

    Column i is centre_i + sum_{j>=i} U_ij z_j, written over the whole
    batch; the entries below U's diagonal are never read.  Each row's bits
    depend on that row alone.
    """
    out = np.empty_like(z)
    for i in range(z.shape[-1]):
        col = out[..., i]
        np.multiply(cov_chol[:, i, i, None], z[..., i], out=col)
        for j in range(i + 1, z.shape[-1]):
            col += cov_chol[:, i, j, None] * z[..., j]
        col += centre[:, i, None]
    return out


def laplace_covariance(theta_hat, problem: OEDProblem) -> np.ndarray:
    """Covariance U U^T of the Gaussian posterior surrogate at the given
    mode, the inverse Gauss-Newton Hessian in theta, from the factor U that
    _laplace_batch builds."""
    cov_chol, _ = _laplace_batch(problem, np.asarray(theta_hat, dtype=np.float64)[None, :])
    return cov_chol[0] @ cov_chol[0].T


# ---------------------------------------------------------------------------
# Nested EIG estimators
# ---------------------------------------------------------------------------


def _laplace_only_problem(problem: OEDProblem) -> NestedProblem:
    """The single-loop Laplace EIG integrand as a nested problem with one
    inner point and no inner dimension: ``prepare`` evaluates it at each
    outer row's prior sample, and the inner integrand repeats that value."""
    d_theta = problem.d_theta

    def prepare(y):
        theta = problem.prior.transform(y)
        _, log_det_prec = _precision_cholesky(_gauss_newton_system(problem, theta)[0])
        return (
            0.5 * log_det_prec
            - 0.5 * d_theta * _LOG_2PI
            - 0.5 * d_theta
            - problem.prior.logpdf(theta)
        )

    return NestedProblem(
        d1=d_theta,
        d2=0,
        inner=lambda values, x: np.repeat(values[:, None], x.shape[1], axis=1),
        prepare=prepare,
        h=problem.h,
        gamma=problem.model.gamma,
    )


def _from_gaussian(phi, log):
    """theta from the prior's Gaussian coordinates phi (..., d), a new
    array: exp(phi) on the lognormal components (log True) and phi on the
    normal ones, the expression ``PriorSpec.transform`` evaluates."""
    if log.all():
        return np.exp(phi)
    theta = phi.copy()
    theta[..., log] = np.exp(phi[..., log])
    return theta


def _linearized_proposal(problem, phi, theta, y_data, g):
    """Importance-sampling proposal of each outer row: the exact posterior
    of the model linearized at the row's data-generating parameters, in the
    prior's Gaussian coordinates phi (MacKay 1998), where the prior is
    N(loc, diag(scale^2)) and theta = exp(phi) on lognormal components.

    phi and theta (B, d) are the rows' parameters, y_data (B, N_e, d_y)
    their data and g (B, d_y) the model output at theta.  With J_phi the
    Jacobian in phi and S the noise covariance, the precision
    H = N_e J_phi^T S^-1 J_phi + diag(scale^-2) is positive definite by
    construction, and the centre is phi - H^-1 grad, with
    grad = -J_phi^T S^-1 sum_i (y_i - g) + (phi - loc) / scale^2.  H = L L^T
    is factored once and U = L^-T gives H^-1 = U U^T, so the centre needs no
    solve: one model Jacobian and one Cholesky per row.  On a model linear
    in phi this is the posterior itself, and the importance weights are
    constant; any centre and factor keep the estimator consistent (Beck et
    al. 2018).  Returns (phi_hat, U, log det U U^T); non-finite input raises
    LaplaceFitError.
    """
    loc, scale, _ = problem.prior.gaussian_coordinates()
    hess, jtr = _gauss_newton_system(problem, theta, y_data, g, gaussian=True)
    grad = (phi - loc) / (scale * scale) - jtr
    cov_chol, log_det_cov = _laplace_batch(problem, phi, hess=hess)
    step = np.swapaxes(cov_chol, 1, 2) @ grad[:, :, None]  # U^T grad
    phi_hat = phi - (cov_chol @ step)[:, :, 0]
    return phi_hat, cov_chol, log_det_cov


def build_nested_problem(problem: OEDProblem, family: str = "plain") -> NestedProblem:
    """Unit-cube nested problem of an EIG estimator family.

    For "plain" and "is" the outer map is log and the inner integrand is
    the (importance-weighted) likelihood in log form: ``prepare`` simulates
    each outer row's data and, for importance sampling, builds its proposal
    once (_linearized_proposal); the inner integrand reads that state for
    every inner block.  The proposal is Gaussian in the prior's Gaussian
    coordinates phi, so the inner points are phi_hat + U z and the log
    weight is the log-likelihood at theta(phi) plus the prior's Gaussian
    log density at phi minus the proposal's.  "laplace" is the Laplace-only
    integrand of eig_laplace_only, with the identity outer map.
    """
    if family not in ("plain", "is", "laplace"):
        raise ValueError("family must be 'plain', 'is' or 'laplace'")
    if family == "is" and "uniform" in problem.prior.kinds:
        raise ValueError(
            "importance sampling with a uniform prior creates discontinuous "
            "weights; use the plain nested estimator instead"
        )
    if family == "laplace":
        return _laplace_only_problem(problem)
    d_theta = problem.d_theta
    if family == "is":
        loc, scale, log = problem.prior.gaussian_coordinates()
        log_scale = float(np.sum(np.log(scale)))

    def prepare(y):
        """Data of each outer row and, for importance sampling, its
        proposal: the centre in phi, the covariance's upper Cholesky factor
        and its log determinant."""
        if family == "plain":
            theta = problem.prior.transform(y[:, :d_theta])
        else:
            phi = loc + scale * inv_norm_cdf(y[:, :d_theta])
            theta = _from_gaussian(phi, log)
        noise = _noise_values(problem, y[:, d_theta:])
        g_true = problem.model.evaluate(theta, problem.xi, problem.h)
        noise += g_true[:, None, :]
        y_data = noise  # (B, N_e, d_y)
        if family == "plain":
            return (y_data,)
        return (y_data, *_linearized_proposal(problem, phi, theta, y_data, g_true))

    def inner_log(state, x):
        """Log integrand of the state's outer rows at their inner points x;
        the model's output columns are folded into the misfit as they
        come, so no (points, d_y) output is built."""
        y_data = state[0]
        if family == "plain":
            columns = problem.model.output_columns(
                problem.prior.transform(x), problem.xi, problem.h
            )
            return _batch_loglik(problem, y_data, columns)
        _, phi_hat, cov_chol, log_det_cov = state
        z = inv_norm_cdf(x)  # (rows, K, d_theta)
        v = _proposal_points(phi_hat, cov_chol, z)
        columns = problem.model.output_columns(_from_gaussian(v, log), problem.xi, problem.h)
        ll = _batch_loglik(problem, y_data, columns)
        # log N(v; loc, scale^2) - log N(v; phi_hat, U U^T), with v = phi_hat + U z
        v -= loc
        v /= scale
        ll += 0.5 * (np.einsum("bkj,bkj->bk", z, z) - np.einsum("bkj,bkj->bk", v, v))
        ll += (0.5 * log_det_cov - log_scale)[:, None]
        return ll

    return NestedProblem(
        d1=problem.d_outer,
        d2=problem.d_inner,
        inner=inner_log,
        prepare=prepare,
        outer_map="log",
        inner_is_log=True,
        h=problem.h,
        gamma=problem.model.gamma,
    )


def _eig_of_mean(problem: OEDProblem, family: str, mean):
    """The EIG of a family's nested mean, a number or an array of them: the
    entropy term minus the log-evidence for "plain" and "is"; the
    Laplace-only mean is the EIG itself."""
    if family == "laplace":
        return mean
    return closed_form_entropy_term(problem.n_experiments, problem.noise_variances) - mean


def _eig(problem: OEDProblem, family: str, N, M, S, R, sampler, key) -> EstimatorResult:
    """A family's EIG estimate from its nested problem; the Laplace-only
    family has one inner point, so its counts are N and S."""
    nested = build_nested_problem(problem, family)
    term = rdlqmc_estimate(nested, N, M, S, R, key or RandomizationKey(0), sampler=sampler)
    return replace(
        term,
        estimate=_eig_of_mean(problem, family, term.estimate),
        replicate_values=_eig_of_mean(problem, family, term.replicate_values),
        counts={"N": N, "S": S} if family == "laplace" else term.counts,
    )


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
    return _eig(problem, "plain", N, M, S, R, sampler, key)


def eig_importance_sampled(
    problem: OEDProblem,
    N: int,
    M: int,
    S: int = 1,
    R: int = 1,
    sampler="rqmc-sobol-owen",
    key: RandomizationKey | None = None,
) -> EstimatorResult:
    """Nested EIG with the inner integral importance-sampled from each outer
    row's linearized posterior in the prior's Gaussian coordinates (see
    _linearized_proposal)."""
    return _eig(problem, "is", N, M, S, R, sampler, key)


def inner_replicate_spread(
    problem: OEDProblem,
    N: int,
    M: int,
    R: int,
    key: RandomizationKey | None = None,
) -> float:
    """Max over outer samples of the spread of R inner-rescramble estimates.

    Diagnostic for importance-sampling exactness: on a model linear in the
    prior's Gaussian coordinates the proposal is the posterior itself, the
    weighted inner integrand is constant and the spread vanishes at any M.
    """
    key = key or RandomizationKey(0)
    nested = build_nested_problem(problem, family="is")
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
    in place of an optimized mode.  The nested executor runs it with one
    inner point, and s_replicates is its number S of outer randomizations,
    as in eig_nested.
    """
    if s_replicates < 1:
        raise ValueError(f"s_replicates must be >= 1, got {s_replicates}")
    return _eig(problem, "laplace", N, 1, s_replicates, 1, sampler, key)


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
    total = 0.0
    ne, dy = problem.n_experiments, problem.d_y
    for t_idx in range(theta_nodes.shape[0]):
        g_t = problem.model.evaluate(theta_nodes[t_idx][None, :], problem.xi, problem.h)[0]
        y_data = g_t[None, None, :] + noise_nodes.reshape(-1, ne, dy)
        ll = _batch_loglik(problem, y_data, np.moveaxis(g_inner, -1, 0))
        log_marg = log_sum_exp(ll + log_w_inner[None, :], axis=1)
        total += theta_w[t_idx] * float(noise_w @ log_marg)
    return entropy - total
