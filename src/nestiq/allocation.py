"""Pilot-constant fitting and near-optimal sample allocation.

The error budget of a nested estimator at tolerance ``tol`` is split by
kappa into a statistical part and a bias part, with the empirically fitted
constraint pair

    variance:  C_Q1 / N^(1+beta) + C_Q2 / (N * M^(1+delta)) <= (kappa*tol/C_alpha)^2
    bias:      C_disc * h^eta    + C_Q3 / M^(1+delta)       <= (1-kappa)*tol

where beta and delta in [0, 1] are the observed rate gains of randomized
QMC over plain MC.  The inner variance sets the inner bias: C_Q3 = C_Q2 / 2
under the log outer map, by the delta method, and 0 under the identity map.
The plan is the least-work power-of-two (N, M) with the largest h that
fits, found by one exhaustive scan over N.  The least-work real (N, M, h)
of the same problem, found by nested one-dimensional searches, is reported
beside it as the continuous solution; brute_force_allocation is an
exhaustive-search oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import NestedProblem, _inner_replicates, _nested_values
from .lds import RandomizationKey, _check_pow2
from .stats import inv_norm_cdf, replicate_variance

__all__ = [
    "PilotConstants",
    "AllocationPlan",
    "FitQualityError",
    "InfeasiblePlanError",
    "fit_power_law",
    "fit_variance_power_law",
    "fit_pilot_outer",
    "fit_pilot_inner",
    "solve_allocation",
    "brute_force_allocation",
    "confidence_constant",
]

_H_MAX = 1.0  # discretization levels are normalized to at most 1
_TOL_MARGIN = 1.0 - 1e-12
_EPS = float(np.finfo(np.float64).eps)


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
        for name in ("c_q1", "beta", "c_q2", "c_q3", "delta", "c_disc", "eta", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("c_q1", "c_q2", "c_q3", "c_disc"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.beta <= 1.0 or not 0.0 <= self.delta <= 1.0:
            raise ValueError("beta and delta must lie in [0, 1]")
        if self.c_disc > 0 and (self.eta <= 0 or self.gamma < 0):
            raise ValueError("discretized constants need eta > 0 and gamma >= 0")


@dataclass(frozen=True)
class AllocationPlan:
    """Least-work power-of-two (N, M), its h and kappa, for one tolerance.

    n_raw and m_raw are the least-work real N and M, the continuous
    solution; the metadata holds its h_raw and kappa_analytic.
    """

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


def _resolved(variance: float, values) -> float:
    """A rung variance floored at the resolution of its values.

    Identical replicates, as an exact inner estimator or a constant
    integrand gives, make the variance rounding noise or exactly 0; the
    floor keeps the log-log fit finite.
    """
    return max(variance, (_EPS * max(1.0, float(np.abs(values).max()))) ** 2)


# ---------------------------------------------------------------------------
# Pilot runs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OuterPilot:
    c_q1: float
    beta: float
    rung_variances: tuple
    residual: float
    top_estimate: float
    top_stderr: float


@dataclass(frozen=True)
class InnerPilot:
    c_q2: float
    c_q3: float
    delta: float
    rung_variances: tuple
    residual: float


def _check_ladder(ladder):
    ladder = [int(n) for n in ladder]
    if len(ladder) < 2:
        raise ValueError("ladder needs at least two rungs")
    for n in ladder:
        _check_pow2(n, "ladder entry")
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

    One pass runs the nested estimator on the top rung with S outer
    randomizations; each lower rung is the first n rows of the same S
    randomizations, itself a scrambled net (Owen 1995) or an iid sample.
    Per rung, the sample variance across the S means of its rows estimates
    the total single-randomization variance, fitted as C_Q1 * N^-(1+beta).
    The top rung's estimate and replicate stderr come along.
    """
    ladder = _check_ladder(ladder)
    if s < 8:
        raise ValueError("outer pilot needs S >= 8 randomizations")
    k = key.child("pilot-outer", len(ladder) - 1)
    # sums[r, i] adds the values of randomization r's rows below ladder[i]
    sums = np.zeros((s, len(ladder)))
    for (r, lo, hi), values in _nested_values(problem, ladder[-1], m_fixed, s, 1, k, k, sampler):
        for i, n in enumerate(ladder):
            if lo < n:
                sums[r, i] += values[: min(n, hi) - lo].sum()
    means = sums / ladder
    variances = [_resolved(s * replicate_variance(rung), rung) for rung in means.T]
    for lo, hi in zip(variances, variances[1:]):
        if hi > 2.0 * lo:
            raise FitQualityError(
                f"variance ladder not decreasing: {variances} over N={ladder}"
            )
    c_q1, beta, residual = fit_variance_power_law(ladder, variances)
    top = means[:, -1]
    return OuterPilot(
        c_q1, beta, tuple(variances), residual,
        float(top.mean()), math.sqrt(replicate_variance(top)),
    )


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
    (outer points held fixed) scaled by N fits C_Q2 and delta.  Under the
    log outer map the delta method gives the inner-induced bias
    E[log I_M] - log I ~ -Var(I_M) / (2 I^2), so C_Q3 = C_Q2 / 2 (Beck et
    al. 2018); the identity map is unbiased, so C_Q3 = 0.
    """
    ladder = _check_ladder(ladder)
    if r < 8:
        raise ValueError("inner pilot needs R >= 8 randomizations")
    fixed = key.child("pilot-inner-fixed")
    variances = []
    for i, m in enumerate(ladder):
        grid = _inner_replicates(
            problem, n_fixed, m, r, fixed, key.child("pilot-inner", i), sampler
        )
        reps = np.array([float(np.mean(rep)) for rep in grid.T])
        variances.append(_resolved(float(np.var(reps, ddof=1)), reps))
    c_scaled, delta, residual = fit_variance_power_law(ladder, variances)
    c_q2 = c_scaled * n_fixed
    c_q3 = 0.5 * c_q2 if problem.outer_map == "log" else 0.0
    return InnerPilot(c_q2, c_q3, delta, tuple(variances), residual)


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


def _work(c: PilotConstants, n: float, m: float, h: float | None) -> float:
    factor = h ** (-c.gamma) if (h is not None and c.c_disc > 0) else 1.0
    return n * m * factor


def _kappa(c: PilotConstants, tol: float, c_alpha: float, n: float, m: float) -> float:
    """The share of tol the statistical error takes at (N, M): at least 1e-9,
    below 1 for every feasible plan."""
    stat = c_alpha * math.sqrt(_stat_variance(c, n, m))
    return max(stat / tol, 1e-9)


def _h_and_work(c, tol, c_alpha, n, m, h_min):
    """(h, work) at (N, M), or None when infeasible.

    Both constraints collapse to stat + bias <= tol, and h soaks up the bias
    budget the statistical error and the inner bias leave (at most 1, and
    at least h_min when one is given); h is None without discretization.
    """
    stat = c_alpha * math.sqrt(_stat_variance(c, n, m))
    slack = tol * _TOL_MARGIN - stat - c.c_q3 / m ** (1.0 + c.delta)
    if not slack > 0.0:
        return None
    if c.c_disc <= 0:
        return None, _work(c, n, m, None)
    h = min((slack / c.c_disc) ** (1.0 / c.eta), _H_MAX)
    if h_min is not None and h < h_min:
        return None
    return h, _work(c, n, m, h)


# ---------------------------------------------------------------------------
# One-dimensional searches
# ---------------------------------------------------------------------------


def _bisect(feasible, lo, hi):
    """Least t in [lo, hi] with feasible(t), for a feasible that is false at
    lo, true at hi and monotone between: bisection until no float lies
    between the ends."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if feasible(mid):
            hi = mid
        else:
            lo = mid


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden(f, lo, hi):
    """Least f(t) over [lo, hi] for a unimodal f whose values are tuples led
    by the quantity to minimize: golden-section search down to a width of
    1e-9, with both ends evaluated too; ties go to the smaller t."""
    a, b = lo, hi
    t1, t2 = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    f1, f2 = f(t1), f(t2)
    while b - a > 1e-9:
        if f1[0] <= f2[0]:
            b, t2, f2 = t2, t1, f1
            t1 = b - _INV_PHI * (b - a)
            f1 = f(t1)
        else:
            a, t1, f1 = t1, t2, f2
            t2 = a + _INV_PHI * (b - a)
            f2 = f(t2)
    return min(f(lo), f1, f2, f(hi), key=lambda p: p[0])


# ---------------------------------------------------------------------------
# Allocation solver
# ---------------------------------------------------------------------------

_LOG2_TOP = 62.0  # N and M range over [1, 2^62]


def _continuous_optimum(c, tol, c_alpha, h_min):
    """Least-work real (work, N, M, h) over N, M in [1, 2^62].

    More samples only add slack, so the feasible set is an upper set in
    (N, M).  A golden-section search over log M starts at the least M that
    is feasible at N = 2^62; at each M, N is the least feasible value,
    found by bisection on log N, and with discretization a second
    golden-section search over log N above it trades N against a larger h.
    """
    def point(log_n, log_m):
        n, m = 2.0**log_n, 2.0**log_m
        found = _h_and_work(c, tol, c_alpha, n, m, h_min)
        return (math.inf, n, m, None) if found is None else (found[1], n, m, found[0])

    def least_feasible(point_at):  # least t in [0, 62] with a feasible point_at(t)
        def feasible(t):
            return point_at(t)[0] < math.inf

        return 0.0 if feasible(0.0) else _bisect(feasible, 0.0, _LOG2_TOP)

    def best_at(log_m):
        log_n = least_feasible(lambda t: point(t, log_m))
        if c.c_disc <= 0:
            return point(log_n, log_m)
        return _golden(lambda t: point(t, log_m), log_n, _LOG2_TOP)

    log_m = least_feasible(lambda t: point(_LOG2_TOP, t))
    return _golden(best_at, log_m, _LOG2_TOP)


def _best_m_for_n(c, tol, c_alpha, n, h_min):
    """Least-work power-of-two M (with its h and work) at fixed N, or None.

    Without discretization the first feasible M is least work; with
    discretization larger M buys a larger h, so the scan goes on to 2^62.
    """
    best = None
    m = 1
    while m <= 1 << 62:
        found = _h_and_work(c, tol, c_alpha, n, m, h_min)
        if found is not None:
            if c.c_disc <= 0:
                return (m, *found)
            if best is None or found[1] < best[2]:
                best = (m, *found)
        m <<= 1
    return best


def _check_budget(tol, h_min):
    """Refuse a tol, or an h_min when one is given, that is not positive and
    finite: NaN would pass a plain ``<= 0`` test, inf would plan N = M = 1,
    and a negative h_min**eta is complex."""
    for name, value in (("tol", tol), ("h_min", h_min)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


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
    least-work real (N, M, h) of the same problem is reported beside the
    plan as n_raw, m_raw and the metadata's h_raw, with kappa_analytic its
    error split.
    """
    _check_budget(tol, h_min)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    c_alpha = confidence_constant(alpha, chebyshev)

    if c.c_disc > 0 and h_min is not None:
        if c.c_disc * h_min**c.eta >= tol:
            raise InfeasiblePlanError(
                f"discretization bias at h_min={h_min} exceeds tol={tol}",
                binding="discretization-bias",
            )

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
    _, n_raw, m_raw, h_raw = _continuous_optimum(c, tol, c_alpha, h_min)
    return AllocationPlan(
        tol=tol,
        alpha=alpha,
        c_alpha=c_alpha,
        kappa_star=float(_kappa(c, tol, c_alpha, n_star, m_star)),
        n_star=int(n_star),
        m_star=int(m_star),
        h_star=h_star,
        predicted_work=float(work),
        n_raw=n_raw,
        m_raw=m_raw,
        metadata={
            "kappa_analytic": _kappa(c, tol, c_alpha, n_raw, m_raw),
            "h_raw": h_raw,
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
    _check_budget(tol, h_min)
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
