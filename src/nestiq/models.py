"""Forward models for experiment-design problems.

A three-parameter compartmental drug-concentration model (closed form, with
analytic Jacobian), a linear-Gaussian model used as a conjugate oracle, and a
smooth synthetic model with a controllable discretization bias standing in
for expensive PDE-backed observables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stats import PriorComponent, PriorSpec

__all__ = [
    "ForwardModel",
    "PKModel",
    "pk_designs",
    "pk_prior",
    "LinearGaussianModel",
    "SyntheticDiscretizedModel",
]


class ForwardModel:
    """Deterministic observable G(theta, xi) with optional discretization.

    ``evaluate`` and ``jacobian`` are vectorized over a batch of parameter
    rows.  Discretized models expose a cost exponent gamma and accuracy
    order eta.
    """

    d_theta: int
    d_y: int
    gamma: float = 0.0
    eta: float = 0.0

    def evaluate(self, theta: np.ndarray, xi: np.ndarray, h: float | None = None) -> np.ndarray:
        raise NotImplementedError

    def jacobian(self, theta: np.ndarray, xi: np.ndarray, h: float | None = None) -> np.ndarray:
        """Central finite differences; override with analytic forms."""
        theta = np.atleast_2d(np.asarray(theta, dtype=np.float64))
        base = self.evaluate(theta, xi, h)
        jac = np.empty(theta.shape[:1] + (base.shape[-1], theta.shape[-1]))
        for j in range(theta.shape[-1]):
            step = 1e-6 * np.maximum(np.abs(theta[:, j]), 1.0)
            tp, tm = theta.copy(), theta.copy()
            tp[:, j] += step
            tm[:, j] -= step
            jac[:, :, j] = (self.evaluate(tp, xi, h) - self.evaluate(tm, xi, h)) / (
                2.0 * step[:, None]
            )
        return jac


# ---------------------------------------------------------------------------
# Drug-concentration model
# ---------------------------------------------------------------------------

_PK_SINGULAR_REL = 1e-10


@dataclass
class PKModel(ForwardModel):
    """Concentration after a dose D: (D/th3) * th1/(th1-th2) * (e^-th2 t - e^-th1 t).

    th1 is the absorption constant, th2 the elimination constant, th3 the
    volume of distribution; the th1 -> th2 limit switches to the analytic
    form (D/th3) th1 t e^(-th1 t).
    """

    dose: float = 400.0
    d_theta: int = 3
    gamma: float = 0.0
    eta: float = 0.0

    @property
    def d_y(self) -> int:  # determined by the design length
        return -1

    def evaluate(self, theta, xi, h=None):
        theta = np.atleast_2d(np.asarray(theta, dtype=np.float64))
        if np.any(theta <= 0.0):
            raise ValueError("parameters must be positive")
        xi = np.asarray(xi, dtype=np.float64)[None, :]
        t1, t2, t3 = theta[:, 0:1], theta[:, 1:2], theta[:, 2:3]
        near = np.abs(t1 - t2) < _PK_SINGULAR_REL * np.abs(t1)
        denom = np.where(near, 1.0, t1 - t2)
        amp = self.dose / t3
        e1 = np.exp(-t1 * xi)
        out = amp * (t1 / denom) * (np.exp(-t2 * xi) - e1)
        if near.any():
            r = near[:, 0]
            out[r] = amp[r] * t1[r] * xi * e1[r]
        return out

    def jacobian(self, theta, xi, h=None):
        theta = np.atleast_2d(np.asarray(theta, dtype=np.float64))
        if np.any(theta <= 0.0):
            raise ValueError("parameters must be positive")
        xi = np.asarray(xi, dtype=np.float64)[None, :]
        t1, t2, t3 = theta[:, 0:1], theta[:, 1:2], theta[:, 2:3]
        # wider window than the forward guard: the difference quotient in the
        # derivative cancels like (th1-th2)^-2, crossing over near 1e-6
        near = np.abs(t1 - t2) < 1e-6 * np.abs(t1)
        denom = np.where(near, 1.0, t1 - t2)
        e1, e2 = np.exp(-t1 * xi), np.exp(-t2 * xi)
        diff = e2 - e1
        amp = self.dose / t3
        q = t1 / denom
        qx = q * xi
        g = amp * q * diff
        jac = np.empty(theta.shape[:1] + (xi.shape[1], 3))
        jac[:, :, 0] = amp * (-t2 / denom**2 * diff + qx * e1)
        jac[:, :, 1] = amp * (t1 / denom**2 * diff - qx * e2)
        if near.any():
            r = near[:, 0]
            a, t, e = amp[r], t1[r], e1[r]
            g[r] = a * t * xi * e
            # second-order expansion of the difference quotient at th1 = th2
            jac[r, :, 0] = a * xi * e * (1.0 - 0.5 * t * xi)
            jac[r, :, 1] = -a * t * xi**2 * e * 0.5
        jac[:, :, 2] = -g / t3
        return jac


def pk_designs() -> tuple[np.ndarray, np.ndarray]:
    """The two fixed 15-point sampling-time designs (geometric, even)."""
    j = np.arange(1, 16, dtype=np.float64)
    geom = 0.94 * 1.25 ** (j - 1)
    even = 0.3 + 1.6 * (j - 1)
    return geom, even


def pk_prior(scale_reading: str = "variance") -> PriorSpec:
    """Independent lognormal priors on (th1, th2, th3).

    The 0.05 scale is read as a variance by default (sigma = sqrt(0.05));
    ``scale_reading='stddev'`` reads it as sigma = 0.05 instead.
    """
    if scale_reading == "variance":
        sigma = math.sqrt(0.05)
    elif scale_reading == "stddev":
        sigma = 0.05
    else:
        raise ValueError("scale_reading must be 'variance' or 'stddev'")
    return PriorSpec(
        components=(
            PriorComponent("lognormal", 0.0, sigma),
            PriorComponent("lognormal", math.log(0.1), sigma),
            PriorComponent("lognormal", math.log(20.0), sigma),
        )
    )


# ---------------------------------------------------------------------------
# Linear-Gaussian model
# ---------------------------------------------------------------------------


@dataclass
class LinearGaussianModel(ForwardModel):
    """G(theta) = J theta; conjugate closed forms make it the test oracle."""

    matrix: np.ndarray = None
    gamma: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        self.matrix = np.atleast_2d(np.asarray(self.matrix, dtype=np.float64))

    @property
    def d_theta(self) -> int:
        return self.matrix.shape[1]

    @property
    def d_y(self) -> int:
        return self.matrix.shape[0]

    def evaluate(self, theta, xi=None, h=None):
        theta = np.atleast_2d(np.asarray(theta, dtype=np.float64))
        if theta.shape[-1] != self.d_theta:
            raise ValueError("parameter dimension mismatch")
        return theta @ self.matrix.T

    def jacobian(self, theta, xi=None, h=None):
        theta = np.atleast_2d(np.asarray(theta, dtype=np.float64))
        return np.broadcast_to(
            self.matrix, theta.shape[:1] + self.matrix.shape
        ).copy()


# ---------------------------------------------------------------------------
# Synthetic discretized model
# ---------------------------------------------------------------------------


@dataclass
class SyntheticDiscretizedModel(ForwardModel):
    """Smooth base observable plus a controlled discretization perturbation.

    G_h = G_base + c_disc * h^eta * sin(sum(theta) + sum(xi)); the bounded
    smooth perturbation makes the h^eta bias and the h^(-gamma) cost model
    testable without a PDE solver.
    """

    d_theta: int = 1
    c_disc: float = 1.0
    eta: float = 2.0
    gamma: float = 2.0

    def _base(self, theta, xi):
        s = theta.sum(axis=-1, keepdims=True)
        return s + np.sin(s + xi[None, :])

    def evaluate(self, theta, xi, h=None):
        theta = np.atleast_2d(np.asarray(theta, dtype=np.float64))
        xi = np.asarray(xi, dtype=np.float64)
        out = self._base(theta, xi)
        if h is not None:
            if h <= 0:
                raise ValueError("discretization level h must be positive")
            bump = self.c_disc * h**self.eta * np.sin(
                theta.sum(axis=-1, keepdims=True) + xi.sum()
            )
            out = out + bump
        return out

    def jacobian(self, theta, xi, h=None):
        theta = np.atleast_2d(np.asarray(theta, dtype=np.float64))
        xi = np.asarray(xi, dtype=np.float64)
        s = theta.sum(axis=-1, keepdims=True)
        dbase = 1.0 + np.cos(s + xi[None, :])  # d/d theta_j, identical per j
        jac = np.repeat(dbase[:, :, None], self.d_theta, axis=2)
        if h is not None:
            dbump = self.c_disc * h**self.eta * np.cos(s + xi.sum())
            jac = jac + dbump[:, :, None]
        return jac
