"""Distribution transforms, truncation machinery, and replicate statistics.

Shared by every estimator: the inverse normal CDF (SciPy ``ndtri``, accurate
deep into the tails, where randomized low-discrepancy points push its
argument), truncated normal transforms, prior inverse-CDF maps, and the
replicate-variance estimator for randomized quasi-Monte Carlo runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc, ndtri

__all__ = [
    "PriorComponent",
    "PriorSpec",
    "TruncationSetting",
    "norm_cdf",
    "norm_logpdf",
    "inv_norm_cdf",
    "truncated_inv_norm_cdf",
    "truncation_radius",
    "log_sum_exp",
    "replicate_variance",
]

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def norm_cdf(x):
    """Standard normal CDF via erfc (accurate in both tails)."""
    x = np.asarray(x, dtype=np.float64)
    out = 0.5 * erfc(-x / _SQRT2)
    return out if out.ndim else float(out)


def norm_logpdf(x):
    x = np.asarray(x, dtype=np.float64)
    out = -0.5 * x * x - _LOG_SQRT_2PI
    return out if out.ndim else float(out)


def inv_norm_cdf(u):
    """Inverse standard normal CDF (SciPy ``ndtri``) on the open interval (0, 1)."""
    u = np.asarray(u, dtype=np.float64)
    # min and max are NaN when any entry is, and a NaN fails both tests
    if u.size and not (0.0 < u.min() and u.max() < 1.0):
        raise ValueError("inv_norm_cdf requires arguments strictly inside (0, 1)")
    out = ndtri(u)
    return out if out.ndim else float(out)


def truncated_inv_norm_cdf(u, c: float):
    """Inverse CDF of the standard normal truncated to [-c, c].

    Accepts u in the closed interval [0, 1]; endpoints map to -c and +c.
    """
    if c <= 0:
        raise ValueError("truncation radius c must be positive")
    scalar = np.isscalar(u) or np.ndim(u) == 0
    u = np.asarray(u, dtype=np.float64)
    if u.size and not (0.0 <= u.min() and u.max() <= 1.0):  # NaN fails too
        raise ValueError("truncated_inv_norm_cdf requires u in [0, 1]")
    phi_c = norm_cdf(c)
    arg = np.clip((2.0 * phi_c - 1.0) * u + (1.0 - phi_c), 1e-300, 1.0 - 1e-16)
    out = np.clip(inv_norm_cdf(arg), -c, c)
    return float(out) if scalar else out


def truncation_radius(tol: float, p: float) -> float:
    """Half-width sqrt(2(1+p)) * sqrt(log(1/tol)) of the noise-truncation interval."""
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must be in (0, 1)")
    if p <= 0:
        raise ValueError("p must be positive")
    return math.sqrt(2.0 * (1.0 + p)) * math.sqrt(math.log(1.0 / tol))


@dataclass(frozen=True)
class TruncationSetting:
    """Noise-truncation configuration with the derived radius c.

    Truncation applies to observation-noise coordinates only, never to
    parameter coordinates.
    """

    enabled: bool = False
    p: float = 1.0
    tol: float = 1e-3
    radius: float = field(init=False)

    def __post_init__(self):
        if self.p <= 0:
            raise ValueError("truncation exponent p must be positive")
        r = truncation_radius(self.tol, self.p) if self.enabled else math.inf
        object.__setattr__(self, "radius", r)


# ---------------------------------------------------------------------------
# Priors
# ---------------------------------------------------------------------------

_PRIOR_KINDS = ("uniform", "normal", "lognormal")


@dataclass(frozen=True)
class PriorComponent:
    """One independent prior component: uniform(lo, hi), normal(mu, sigma),
    or lognormal(mu_log, sigma_log)."""

    kind: str
    a: float
    b: float

    def __post_init__(self):
        if self.kind not in _PRIOR_KINDS:
            raise ValueError(f"unknown prior kind {self.kind!r}")
        if self.kind == "uniform" and not self.b > self.a:
            raise ValueError("uniform prior requires hi > lo")
        if self.kind in ("normal", "lognormal") and not self.b > 0:
            raise ValueError("scale parameter must be positive")

    @property
    def median(self) -> float:
        if self.kind == "uniform":
            return 0.5 * (self.a + self.b)
        if self.kind == "normal":
            return self.a
        return math.exp(self.a)


@dataclass(frozen=True)
class PriorSpec:
    """Independent-component prior over the parameter vector."""

    components: tuple

    def __post_init__(self):
        comps = tuple(
            c if isinstance(c, PriorComponent) else PriorComponent(*c)
            for c in self.components
        )
        if not comps:
            raise ValueError("prior must have at least one component")
        object.__setattr__(self, "components", comps)

    @property
    def dimension(self) -> int:
        return len(self.components)

    @property
    def kinds(self) -> tuple:
        return tuple(c.kind for c in self.components)

    def median(self) -> np.ndarray:
        return np.array([c.median for c in self.components])

    def transform(self, u: np.ndarray) -> np.ndarray:
        """Componentwise inverse-CDF map from the unit cube."""
        u = np.asarray(u, dtype=np.float64)
        if u.shape[-1] != self.dimension:
            raise ValueError(
                f"expected last axis {self.dimension}, got {u.shape[-1]}"
            )
        out = np.empty_like(u)
        for j, c in enumerate(self.components):
            uj = u[..., j]
            if c.kind == "uniform":
                out[..., j] = c.a + (c.b - c.a) * uj
            elif c.kind == "normal":
                out[..., j] = c.a + c.b * inv_norm_cdf(uj)
            else:
                out[..., j] = np.exp(c.a + c.b * inv_norm_cdf(uj))
        return out

    def logpdf(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        rows = theta.reshape(-1, theta.shape[-1])
        out = np.zeros(rows.shape[0])
        for j, c in enumerate(self.components):
            t = rows[:, j]
            if c.kind == "uniform":
                inside = (t >= c.a) & (t <= c.b)
                out += np.where(inside, -math.log(c.b - c.a), -np.inf)
                continue
            # norm_logpdf((x - a) / b) - log b with x = t or log t, computed
            # in place with norm_logpdf's operations in its order
            if c.kind == "normal":
                z = t - c.a
            else:
                logt = np.maximum(t, 1e-320)
                np.log(logt, out=logt)
                z = logt - c.a
            z /= c.b
            val = np.multiply(z, -0.5)
            val *= z
            val -= _LOG_SQRT_2PI
            if c.kind == "normal":
                out += val
                out -= math.log(c.b)
            else:
                val -= math.log(c.b)
                val -= logt
                np.copyto(val, -np.inf, where=~(t > 0))  # NaN too
                out += val
        # a NumPy scalar for a single parameter vector
        return out.reshape(theta.shape[:-1])[()]

    def grad_logpdf(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        out = np.zeros_like(theta)
        for j, c in enumerate(self.components):
            t = theta[..., j]
            if c.kind == "uniform":
                out[..., j] = 0.0
            elif c.kind == "normal":
                out[..., j] = -(t - c.a) / (c.b * c.b)
            else:
                logt = np.log(t)
                out[..., j] = -(1.0 + (logt - c.a) / (c.b * c.b)) / t
        return out

    def hess_diag_logpdf(self, theta: np.ndarray) -> np.ndarray:
        """Diagonal of the log-density Hessian (components are independent)."""
        theta = np.asarray(theta, dtype=np.float64)
        out = np.zeros_like(theta)
        for j, c in enumerate(self.components):
            t = theta[..., j]
            if c.kind == "uniform":
                out[..., j] = 0.0
            elif c.kind == "normal":
                out[..., j] = -1.0 / (c.b * c.b)
            else:
                logt = np.log(t)
                s2 = c.b * c.b
                out[..., j] = (1.0 - 1.0 / s2 + (logt - c.a) / s2) / (t * t)
        return out

    def support_lower(self) -> np.ndarray:
        lows = []
        for c in self.components:
            if c.kind == "uniform":
                lows.append(c.a)
            elif c.kind == "lognormal":
                lows.append(0.0)
            else:
                lows.append(-np.inf)
        return np.array(lows)

    def support_upper(self) -> np.ndarray:
        return np.array(
            [c.b if c.kind == "uniform" else np.inf for c in self.components]
        )


# ---------------------------------------------------------------------------
# Replicate statistics
# ---------------------------------------------------------------------------


def log_sum_exp(values, axis=None):
    """log(sum(exp(values))) computed stably; -inf entries are allowed."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("log_sum_exp of an empty list")
    m = np.max(v, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    shifted = np.atleast_1d(v - m_safe)  # exponentiated in place: one temporary
    s = np.sum(np.exp(shifted, out=shifted), axis=axis, keepdims=True)
    with np.errstate(divide="ignore"):
        out = np.where(np.isfinite(m), m_safe + np.log(s), m)
    out = np.squeeze(out, axis=axis) if axis is not None else out.reshape(())
    return float(out) if out.ndim == 0 else out


def replicate_variance(replicate_means) -> float:
    """Variance of the mean of R replicate values: sum((m_r - mean)^2) / (R(R-1))."""
    v = np.asarray(replicate_means, dtype=np.float64)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("replicate_variance requires at least 2 replicates")
    r = v.size
    # shifting by a replicate first makes identical replicates give exactly 0
    dev = v - v[0]
    dev -= dev.mean()
    return float(np.sum(dev * dev) / (r * (r - 1)))
