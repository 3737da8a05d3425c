"""Pilot-constant fitting and near-optimal sample allocation.

The error budget of a nested estimator at tolerance ``tol`` is split by
kappa into a statistical part and a bias part, with the empirically fitted
constraint pair

    variance:  C_Q1 / N^(1+beta) + C_Q2 / (N * M^(1+delta)) <= (kappa*tol/C_alpha)^2
    bias:      C_disc * h^eta    + C_Q3 / M^(1+delta)       <= (1-kappa)*tol

where beta and delta in [0, 1] are the observed rate gains of randomized
QMC over plain MC.  The plan is the least-work power-of-two (N, M) with the
largest h that fits, found by one exhaustive scan over N; kappa from the
stationarity cubic and N from the N equation give the continuous solution,
reported beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import NestedProblem, _inner_replicates, rdlqmc_estimate
from .lds import RandomizationKey
from .stats import inv_norm_cdf

__all__ = [
    "PilotConstants",
    "AllocationPlan",
    "FitQualityError",
    "InfeasiblePlanError",
    "fit_power_law",
    "fit_variance_power_law",
    "fit_bias_constant",
    "fit_pilot_outer",
    "fit_pilot_inner",
    "solve_kappa",
    "solve_allocation",
    "brute_force_allocation",
    "confidence_constant",
]

_H_MAX = 1.0  # discretization levels are normalized to at most 1
_TOL_MARGIN = 1.0 - 1e-12
_EPS = float(np.finfo(np.float64).eps)
_BIAS_SPLIT = 0.5  # share of the bias budget the continuous h takes


class FitQualityError(ArithmeticError):
    """Pilot data too noisy or inconsistent to fit rate constants."""


class InfeasiblePlanError(ArithmeticError):
    """No allocation satisfies the constraints; carries the binding one."""

    def __init__(self, message: str, binding: str):
        super().__init__(message)
        self.binding = binding


@dataclass(frozen=True)
class PilotConstants:
    """Fitted constraint constants plus discretization metadata."""

    c_q1: float
    beta: float
    c_q2: float
    c_q3: float
    delta: float
    c_disc: float = 0.0
    eta: float = 1.0
    gamma: float = 0.0
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        for name in ("c_q1", "c_q2", "c_q3", "c_disc"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.beta <= 1.0 or not 0.0 <= self.delta <= 1.0:
            raise ValueError("beta and delta must lie in [0, 1]")
        if self.c_disc > 0 and (self.eta <= 0 or self.gamma < 0):
            raise ValueError("discretized constants need eta > 0 and gamma >= 0")


@dataclass(frozen=True)
class AllocationPlan:
    """Near-optimal (kappa, N, M, h) for one tolerance."""

    tol: float
    alpha: float
    c_alpha: float
    kappa_star: float
    n_star: int
    m_star: int
    h_star: float | None
    predicted_work: float
    n_raw: float
    m_raw: float
    metadata: dict = field(default_factory=dict, compare=False)


def confidence_constant(alpha: float, chebyshev: bool = False) -> float:
    """C_alpha: normal quantile by default, 1/sqrt(alpha) under Chebyshev."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return 1.0 / math.sqrt(alpha) if chebyshev else inv_norm_cdf(1.0 - alpha / 2.0)


# ---------------------------------------------------------------------------
# Power-law fitting
# ---------------------------------------------------------------------------


def fit_power_law(sizes, values):
    """Least squares of log(values) on log(sizes): values ~ C * sizes^(-p).

    Returns (C, p, residual) with residual the max absolute log deviation.
    """
    x = np.log(np.asarray(sizes, dtype=np.float64))
    y = np.log(np.asarray(values, dtype=np.float64))
    if x.size < 2:
        raise ValueError("need at least two rungs to fit a power law")
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.max(np.abs(y - (intercept + slope * x))))
    return float(math.exp(intercept)), float(-slope), residual


def fit_variance_power_law(sizes, variances):
    """Fit v = C * n^-(1+rate) with the rate gain clamped to [0, 1].

    Returns (C, rate, residual); the intercept is refitted at the clamped
    rate when clamping was required.
    """
    c, p, residual = fit_power_law(sizes, variances)
    rate = min(max(p - 1.0, 0.0), 1.0)
    if abs((1.0 + rate) - p) > 1e-12:
        x = np.log(np.asarray(sizes, dtype=np.float64))
        y = np.log(np.asarray(variances, dtype=np.float64))
        c = float(math.exp(np.mean(y + (1.0 + rate) * x)))
        residual = float(np.max(np.abs(y - (math.log(c) - (1.0 + rate) * x))))
    return c, rate, residual


def fit_bias_constant(sizes, biases, delta: float) -> float:
    """Least-squares amplitude of bias ~ C * M^-(1+delta) at fixed delta."""
    x = np.asarray(sizes, dtype=np.float64) ** (-(1.0 + delta))
    b = np.asarray(biases, dtype=np.float64)
    denom = float(np.dot(x, x))
    return float(np.dot(b, x) / denom) if denom > 0 else 0.0


# ---------------------------------------------------------------------------
# Pilot runs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OuterPilot:
    c_q1: float
    beta: float
    rung_variances: tuple
    residual: float

    def __iter__(self):
        return iter((self.c_q1, self.beta))


@dataclass(frozen=True)
class InnerPilot:
    c_q2: float
    c_q3: float
    delta: float
    low_confidence: bool
    rung_variances: tuple
    rung_biases: tuple
    residual: float

    def __iter__(self):
        return iter((self.c_q2, self.c_q3, self.delta))


def _check_ladder(ladder):
    ladder = [int(n) for n in ladder]
    if len(ladder) < 2:
        raise ValueError("ladder needs at least two rungs")
    for n in ladder:
        if n < 1 or (n & (n - 1)) != 0:
            raise ValueError(f"ladder entries must be powers of two, got {n}")
    if sorted(set(ladder)) != ladder:
        raise ValueError("ladder must be strictly increasing")
    return ladder


def fit_pilot_outer(
    problem: NestedProblem,
    ladder,
    m_fixed: int,
    s: int,
    key: RandomizationKey,
    sampler="rqmc-sobol-owen",
) -> OuterPilot:
    """Estimate (C_Q1, beta) from the outer-randomization variance ladder.

    Each rung runs the nested estimator with S outer randomizations; the
    sample variance across the S outer means estimates the total
    single-randomization variance, fitted as C_Q1 * N^-(1+beta).
    """
    ladder = _check_ladder(ladder)
    if s < 8:
        raise ValueError("outer pilot needs S >= 8 randomizations")
    variances = []
    for i, n in enumerate(ladder):
        res = rdlqmc_estimate(
            problem, n, m_fixed, S=s, R=1,
            key=key.child("pilot-outer", i), sampler=sampler,
        )
        variances.append(s * res.variance_of_mean)
    for lo, hi in zip(variances, variances[1:]):
        if hi > 2.0 * lo:
            raise FitQualityError(
                f"variance ladder not decreasing: {variances} over N={ladder}"
            )
    c_q1, beta, residual = fit_variance_power_law(ladder, variances)
    return OuterPilot(c_q1, beta, tuple(variances), residual)


def fit_pilot_inner(
    problem: NestedProblem,
    ladder,
    n_fixed: int,
    r: int,
    key: RandomizationKey,
    sampler="rqmc-sobol-owen",
) -> InnerPilot:
    """Estimate (C_Q2, C_Q3, delta) from inner rescrambles at fixed outer points.

    Per rung M, the variance across R independent inner randomizations
    (outer points held fixed) scaled by N fits C_Q2 and delta; the bias per
    rung is measured against a reference rung at 4x the largest M and fits
    C_Q3 at the already-fitted delta.  When the bias is indistinguishable
    from noise at every rung the returned C_Q3 carries a low-confidence flag.
    """
    ladder = _check_ladder(ladder)
    if r < 8:
        raise ValueError("inner pilot needs R >= 8 randomizations")
    fixed = key.child("pilot-inner-fixed")
    per_rung = []
    for i, m in enumerate(ladder + [4 * ladder[-1]]):
        grid = _inner_replicates(
            problem, n_fixed, m, r, fixed, key.child("pilot-inner", i), sampler
        )
        per_rung.append(np.array([float(np.mean(reps)) for reps in grid.T]))

    # with an exact inner estimator (importance sampling from a Gaussian
    # posterior) the variance is rounding noise and can come out exactly 0;
    # the floor at the resolution of the values keeps the log-log fit finite
    variances = []
    for reps in per_rung[:-1]:
        floor = (_EPS * max(1.0, float(np.abs(reps).max()))) ** 2
        variances.append(max(float(np.var(reps, ddof=1)), floor))
    c_scaled, delta, residual = fit_variance_power_law(ladder, variances)
    c_q2 = c_scaled * n_fixed

    ref = per_rung[-1]
    est_ref, se_ref = float(ref.mean()), float(ref.std(ddof=1) / math.sqrt(r))
    # a bias within a few ulps of the values is rounding, never significant,
    # even when identical replicates give standard errors of 0
    bias_floor = 16.0 * _EPS * max(1.0, abs(est_ref))
    biases, significant = [], False
    for m, reps in zip(ladder, per_rung[:-1]):
        est, se = float(reps.mean()), float(reps.std(ddof=1) / math.sqrt(r))
        b = abs(est - est_ref)
        biases.append(b)
        if b > bias_floor and b >= 2.0 * math.hypot(se, se_ref):
            significant = True
    c_q3 = fit_bias_constant(ladder, biases, delta)
    return InnerPilot(
        c_q2, c_q3, delta, not significant, tuple(variances), tuple(biases), residual
    )


# ---------------------------------------------------------------------------
# Constraint helpers
# ---------------------------------------------------------------------------


def _stat_variance(c: PilotConstants, n: float, m: float) -> float:
    return c.c_q1 / n ** (1.0 + c.beta) + c.c_q2 / (n * m ** (1.0 + c.delta))


def _bias_value(c: PilotConstants, m: float, h: float | None) -> float:
    disc = c.c_disc * h**c.eta if (h is not None and c.c_disc > 0) else 0.0
    return disc + c.c_q3 / m ** (1.0 + c.delta)


def constraints_satisfied(
    c: PilotConstants, tol: float, c_alpha: float, kappa: float,
    n: float, m: float, h: float | None,
) -> bool:
    stat_ok = _stat_variance(c, n, m) <= (kappa * tol / c_alpha) ** 2 * (1 + 1e-9)
    bias_ok = _bias_value(c, m, h) <= (1.0 - kappa) * tol * (1 + 1e-9)
    return bool(stat_ok and bias_ok)


def _n_seed(c: PilotConstants, kappa: float, tol: float, c_alpha: float) -> float:
    return (c_alpha**2 * c.c_q1 / (kappa * tol) ** 2) ** (1.0 / (1.0 + c.beta))


_M_CAP = 2.0**62


def _continuous_m_h(c, kappa, n, tol, c_alpha):
    """Continuous (M, h) at fixed (kappa, N): variance-tight M floor-ed by the
    bias requirement; h from an even split of the bias budget when discretized."""
    vb = (kappa * tol / c_alpha) ** 2
    bb = (1.0 - kappa) * tol
    denom = n * vb - c.c_q1 / n**c.beta
    if c.c_q2 > 0:
        m_var = (c.c_q2 / denom) ** (1.0 / (1.0 + c.delta)) if denom > 0 else _M_CAP
        m_var = min(m_var, _M_CAP)
    else:
        m_var = 0.0
    if c.c_disc > 0:
        m_budget = (1.0 - _BIAS_SPLIT) * bb
        h = min((_BIAS_SPLIT * bb / c.c_disc) ** (1.0 / c.eta), _H_MAX)
    else:
        m_budget = bb
        h = None
    m_bias = (c.c_q3 / m_budget) ** (1.0 / (1.0 + c.delta)) if c.c_q3 > 0 else 1.0
    return max(m_var, m_bias, 1.0), h


def _work(c: PilotConstants, n: float, m: float, h: float | None) -> float:
    factor = h ** (-c.gamma) if (h is not None and c.c_disc > 0) else 1.0
    return n * m * factor


# ---------------------------------------------------------------------------
# kappa cubic and N equation
# ---------------------------------------------------------------------------


def _bisect(f, lo, hi):
    """Bisect [lo, hi], on whose ends f differs in sign, until no float lies
    between the ends; returns hi, the end on the far side of the root."""
    sign = np.signbit(f(lo))
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if np.signbit(f(mid)) == sign:
            lo = mid
        else:
            hi = mid


def _kappa_grid_minimizer(c, n, tol, c_alpha, grid=1000):
    kappas = np.arange(1, grid) / grid
    best_k, best_w = None, math.inf
    for kappa in kappas:
        vb = (kappa * tol / c_alpha) ** 2
        if n * vb - c.c_q1 / n**c.beta <= 0:
            continue  # outer variance alone exceeds the statistical budget
        m, h = _continuous_m_h(c, kappa, n, tol, c_alpha)
        if not math.isfinite(m) or m >= _M_CAP:
            continue
        w = _work(c, n, m, h)
        # a tie (work flat in kappa, as without inner terms) goes to the
        # larger kappa, which asks for the smaller N
        if w <= best_w:
            best_k, best_w = float(kappa), w
    if best_k is None:
        raise InfeasiblePlanError(
            f"no feasible error split at N={n}, tol={tol}", binding="statistical-error"
        )
    return best_k


def solve_kappa(c: PilotConstants, n: float, tol: float, c_alpha: float) -> float:
    """Optimal error-split fraction at fixed N.

    Root of the stationarity cubic in (0,1) by bisection; falls
    back to a 10^3-point grid minimization of realized work when the cubic
    is degenerate or has no bracketed root.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    gamma_eff = c.gamma if c.c_disc > 0 else 0.0
    eta = c.eta if c.eta > 0 else 1.0
    if c.c_q2 <= 0 or c.c_q3 < 0:
        return _kappa_grid_minimizer(c, n, tol, c_alpha)
    ratio = c.c_q3 / c.c_q2
    rate = 1.0 + c.delta
    coeffs = np.array([
        ratio * (n * tol / c_alpha) ** 2 * (eta + gamma_eff * rate),
        n * tol * (eta + gamma_eff * rate / 2.0),
        -(n * (eta * tol + ratio * (c.c_q1 / n**c.beta) * (eta + gamma_eff * rate))),
        -gamma_eff * rate * c.c_q1 * c_alpha**2 / (2.0 * n**c.beta * tol),
    ])
    scale = np.max(np.abs(coeffs))
    if not np.isfinite(scale) or scale == 0.0:
        raise ValueError("degenerate cubic coefficients (all zero or non-finite)")
    coeffs = coeffs / scale

    def cubic(k):
        return ((coeffs[0] * k + coeffs[1]) * k + coeffs[2]) * k + coeffs[3]

    grid = np.linspace(1e-9, 1.0 - 1e-9, 2049)
    vals = cubic(grid)
    sign_change = np.nonzero(np.diff(np.signbit(vals)))[0]
    if sign_change.size == 0:
        return _kappa_grid_minimizer(c, n, tol, c_alpha)
    i = sign_change[0]
    return float(_bisect(cubic, grid[i], grid[i + 1]))


def _solve_n(c: PilotConstants, kappa: float, tol: float, c_alpha: float) -> float:
    """Root of the optimality equation in N at fixed kappa, above the seed."""
    seed = _n_seed(c, kappa, tol, c_alpha)
    if c.c_q2 <= 0:
        return seed
    gamma_eff = c.gamma if c.c_disc > 0 else 0.0
    eta = c.eta if c.eta > 0 else 1.0
    ratio = c.c_q3 / c.c_q2
    a = ratio * (kappa * tol / c_alpha) ** 2
    b = tol * (1.0 - kappa * (1.0 + gamma_eff / (2.0 * eta)))
    cc = ratio * c.c_q1
    d = gamma_eff * c_alpha**2 * c.c_q1 * c.beta / (2.0 * eta * kappa * tol)

    def f(n):
        return a * n ** (2.0 + c.beta) - b * n ** (1.0 + c.beta) - cc * n + d

    if a <= 0.0:
        # no inner-bias term: M is purely variance-driven, so minimize
        # N * M_var(N) directly
        vb = (kappa * tol / c_alpha) ** 2
        if c.delta > 0:
            return ((1.0 + c.beta + c.delta) * c.c_q1 / (c.delta * vb)) ** (
                1.0 / (1.0 + c.beta)
            )
        # delta == 0: corner at M = 1; tight variance with both terms
        def excess(n):  # decreasing in N
            return c.c_q1 / n ** (1.0 + c.beta) + c.c_q2 / n - vb

        lo = seed
        if excess(lo) <= 0.0:
            return lo
        for _ in range(200):
            hi = 2.0 * lo
            if excess(hi) <= 0.0:
                return _bisect(excess, lo, hi)
            lo = hi
        return lo

    lo = seed * (1.0 + 1e-9)
    sign = np.signbit(f(lo))
    for _ in range(200):
        hi = 1.5 * lo
        if np.signbit(f(hi)) != sign:
            return _bisect(f, lo, hi)
        lo = hi
    return seed * 1.01


# ---------------------------------------------------------------------------
# Allocation solver
# ---------------------------------------------------------------------------


def _best_m_for_n(c, tol, c_alpha, n, h_min):
    """Least-work power-of-two M (with its h) at fixed N, or None.

    Feasibility collapses both constraints to stat + bias <= tol with h
    soaking up the leftover bias budget.  Without discretization the first
    feasible M is least work; with discretization larger M buys a larger h,
    so the scan continues until the work stops improving.
    """
    best = None
    m = 1
    while m <= 1 << 62:
        stat = c_alpha * math.sqrt(_stat_variance(c, n, m))
        slack = tol * _TOL_MARGIN - stat - c.c_q3 / m ** (1.0 + c.delta)
        if slack > 0.0:
            if c.c_disc <= 0:
                return m, None, float(n) * m
            h = min((slack / c.c_disc) ** (1.0 / c.eta), _H_MAX)
            if h_min is None or h >= h_min:
                w = _work(c, n, m, h)
                if best is None or w < best[2]:
                    best = (m, h, w)
        m <<= 1
    return best


def solve_allocation(
    c: PilotConstants,
    tol: float,
    alpha: float,
    chebyshev: bool = False,
    h_min: float | None = None,
) -> AllocationPlan:
    """Least-work power-of-two (N*, M*) with its h* and kappa* for a tolerance.

    Every power-of-two N is tried with its least-work feasible M until N
    alone reaches the best work found: work N * M * h^-gamma is never below
    N, since M >= 1 and h <= 1.  Ties in work go to the smaller N.  The
    continuous solution of the stationarity system (kappa cubic plus N
    equation, seeded by the closed-form approximation) is reported beside
    the plan as n_raw, m_raw and the metadata's kappa_analytic and h_raw.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    c_alpha = confidence_constant(alpha, chebyshev)

    if c.c_disc > 0 and h_min is not None:
        if c.c_disc * h_min**c.eta >= tol:
            raise InfeasiblePlanError(
                f"discretization bias at h_min={h_min} exceeds tol={tol}",
                binding="discretization-bias",
            )

    # coupled fixed point: kappa at fixed N, then N at fixed kappa
    kappa = 0.5
    n_cont = _n_seed(c, kappa, tol, c_alpha)
    for _ in range(80):
        kappa = solve_kappa(c, n_cont, tol, c_alpha)
        n_next = _solve_n(c, kappa, tol, c_alpha)
        if abs(math.log(n_next / n_cont)) < 1e-12:
            n_cont = n_next
            break
        n_cont = math.sqrt(n_cont * n_next)
    m_cont, h_cont = _continuous_m_h(c, kappa, n_cont, tol, c_alpha)

    best = None
    for e in range(63):
        n = 1 << e
        if best is not None and n >= best[0]:
            break
        found = _best_m_for_n(c, tol, c_alpha, n, h_min)
        if found is not None and (best is None or found[2] < best[0]):
            m, h, work = found
            best = (work, n, m, h)
    if best is None:
        raise InfeasiblePlanError(
            f"no feasible (N, M, h) at tol={tol}",
            binding="discretization-bias" if c.c_disc > 0 else "inner-bias",
        )
    work, n_star, m_star, h_star = best

    stat = c_alpha * math.sqrt(_stat_variance(c, n_star, m_star))
    kappa_star = min(max(stat / tol, 1e-9), 1.0 - 1e-9)
    if not constraints_satisfied(c, tol, c_alpha, kappa_star, n_star, m_star, h_star):
        # defensive: bump M one power as a last repair
        m_star <<= 1
        if not constraints_satisfied(c, tol, c_alpha, kappa_star, n_star, m_star, h_star):
            raise InfeasiblePlanError(
                f"rounded plan infeasible at tol={tol}", binding="inner-bias"
            )
        work = _work(c, n_star, m_star, h_star)

    return AllocationPlan(
        tol=tol,
        alpha=alpha,
        c_alpha=c_alpha,
        kappa_star=float(kappa_star),
        n_star=int(n_star),
        m_star=int(m_star),
        h_star=h_star,
        predicted_work=float(work),
        n_raw=float(n_cont),
        m_raw=float(m_cont),
        metadata={
            "kappa_analytic": float(kappa),
            "h_raw": h_cont,
        },
    )


def brute_force_allocation(
    c: PilotConstants,
    tol: float,
    alpha: float,
    grid_resolution: int = 200,
    chebyshev: bool = False,
    h_min: float | None = None,
) -> AllocationPlan:
    """Exhaustive-search oracle over kappa grid x power-of-two (N, M).

    For each candidate, h takes the largest value the remaining bias budget
    allows (capped at 1), which dominates any fixed h ladder.  Candidate
    count is capped at 10^6 triples.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    c_alpha = confidence_constant(alpha, chebyshev)
    if grid_resolution * 64 * 64 > 10**6:
        raise ValueError("grid too large (over 10^6 candidate triples)")
    kappas = (np.arange(1, grid_resolution) / grid_resolution)[:, None]  # (K, 1)
    m_vals = (np.uint64(1) << np.arange(0, 64, dtype=np.uint64)).astype(np.float64)
    bias_m = c.c_q3 / m_vals ** (1.0 + c.delta)  # (M,)

    vb = kappas * tol  # statistical budgets (K, 1)
    bb = (1.0 - kappas) * tol  # bias budgets (K, 1)
    best = None  # (work, n, m, h, kappa)
    for n_exp in range(0, 64):
        n = float(1 << n_exp)
        if best is not None and n >= best[0]:
            break
        var_n = c.c_q1 / n ** (1.0 + c.beta) + c.c_q2 / (n * m_vals ** (1.0 + c.delta))
        stat = c_alpha * np.sqrt(var_n)  # (M,)
        ok = stat[None, :] <= vb  # (K, M)
        if c.c_disc > 0:
            slack = bb - bias_m[None, :]
            ok = ok & (slack > 0)
            with np.errstate(invalid="ignore"):
                h = np.minimum(
                    np.where(slack > 0, slack, np.nan) ** (1.0 / c.eta)
                    * c.c_disc ** (-1.0 / c.eta),
                    _H_MAX,
                )
            if h_min is not None:
                ok = ok & (h >= h_min)
            work = n * m_vals[None, :] * np.where(ok, h, 1.0) ** (-c.gamma)
        else:
            ok = ok & (bias_m[None, :] <= bb)
            h = np.full((kappas.size, m_vals.size), np.nan)
            work = np.broadcast_to(n * m_vals[None, :], ok.shape)
        work = np.where(ok, work, np.inf)
        j = np.unravel_index(int(np.argmin(work)), work.shape)
        if np.isfinite(work[j]) and (best is None or work[j] < best[0] - 1e-12):
            hj = float(h[j]) if c.c_disc > 0 else None
            best = (float(work[j]), int(n), int(m_vals[j[1]]), hj, float(kappas[j[0], 0]))
    if best is None:
        raise InfeasiblePlanError(
            f"no feasible plan found by exhaustive search at tol={tol}",
            binding="discretization-bias" if c.c_disc > 0 else "inner-bias",
        )
    work, n, m, h, kappa = best
    return AllocationPlan(
        tol=tol,
        alpha=alpha,
        c_alpha=c_alpha,
        kappa_star=kappa,
        n_star=n,
        m_star=m,
        h_star=h,
        predicted_work=work,
        n_raw=float(n),
        m_raw=float(m),
        metadata={"method": "brute-force", "grid_resolution": grid_resolution},
    )
