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
    rows.  Discretized models expose a cost exponent gamma.
    """

    d_theta: int
    d_y: int
    gamma: float = 0.0

    def evaluate(self, theta: np.ndarray, xi: np.ndarray, h: float | None = None) -> np.ndarray:
        raise NotImplementedError

    def output_columns(self, theta: np.ndarray, xi: np.ndarray, h: float | None = None):
        """G's d_y output columns at parameters theta (..., d_theta), each
        shaped theta.shape[:-1]; this default evaluates once and yields the
        columns of the result."""
        theta = np.asarray(theta, dtype=np.float64)
        g = self.evaluate(theta.reshape(-1, theta.shape[-1]), xi, h)
        return iter(np.moveaxis(g.reshape(theta.shape[:-1] + g.shape[-1:]), -1, 0))

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
    d_theta = 3

    def evaluate(self, theta, xi, h=None):
        theta = np.atleast_2d(np.asarray(theta, dtype=np.float64))
        xi = np.asarray(xi, dtype=np.float64)
        out = np.empty(theta.shape[:-1] + xi.shape)
        for j, col in enumerate(self.output_columns(theta, xi, h)):
            out[..., j] = col
        return out

    def output_columns(self, theta, xi, h=None):
        """G at each design time t, over every row of theta (..., 3): the
        column (D/th3) th1/(th1-th2) (e^-th2 t - e^-th1 t), and the limit
        form on the rows where th1 ~ th2.  Each column is computed on its
        own, so only the column being used is held."""
        theta = np.asarray(theta, dtype=np.float64)
        if np.any(theta <= 0.0):
            raise ValueError("parameters must be positive")
        t1, t2, t3 = np.moveaxis(theta, -1, 0)
        near = np.abs(t1 - t2) < _PK_SINGULAR_REL * np.abs(t1)
        amp = self.dose / t3
        scale = amp * (t1 / np.where(near, 1.0, t1 - t2))
        neg1, neg2 = -t1, -t2
        lim = amp[near] * t1[near] if near.any() else None

        def column(t):
            e1 = np.multiply(neg1, t)
            np.exp(e1, out=e1)
            out = np.multiply(neg2, t)
            np.exp(out, out=out)
            out -= e1
            out *= scale
            if lim is not None:
                out[near] = lim * t * e1[near]
            return out

        return map(column, np.asarray(xi, dtype=np.float64))

    def jacobian(self, theta, xi, h=None):
        theta = np.atleast_2d(np.asarray(theta, dtype=np.float64))
        if np.any(theta <= 0.0):
            raise ValueError("parameters must be positive")
        xi = np.asarray(xi, dtype=np.float64)[:, None]
        jac = np.empty((theta.shape[0], xi.shape[0], 3))
        # one (d_y, rows) plane per parameter, the batch axis innermost so
        # every elementwise step is one long loop, each plane copied into its
        # column of jac; the posterior-mode search bounds the rows per call
        t1, t2, t3 = theta.T
        # wider window than the forward guard: the difference quotient in the
        # derivative cancels like (th1-th2)^-2, crossing over near 1e-6
        near = np.abs(t1 - t2) < 1e-6 * np.abs(t1)
        lim = near.any()
        denom = np.where(near, 1.0, t1 - t2)
        e1 = np.multiply(-t1, xi)
        np.exp(e1, out=e1)
        e2 = np.multiply(-t2, xi)
        np.exp(e2, out=e2)
        diff = e2 - e1
        amp = self.dose / t3
        q = t1 / denom
        qx = q * xi
        g = np.multiply(amp * q, diff)
        if lim:
            a, t, e = amp[near], t1[near], e1[:, near]
            g[:, near] = a * t * xi * e
        # amp * (-th2 / denom^2 * diff + qx * e1), then the same with th1, e2
        col = np.multiply(-t2 / denom**2, diff)
        qxe = np.multiply(qx, e1)
        col += qxe
        col *= amp
        if lim:  # second-order expansion of the difference quotient at th1 = th2
            col[:, near] = a * xi * e * (1.0 - 0.5 * t * xi)
        jac[:, :, 0] = col.T
        np.multiply(t1 / denom**2, diff, out=col)
        np.multiply(qx, e2, out=qxe)
        col -= qxe
        col *= amp
        if lim:
            col[:, near] = -a * t * xi**2 * e * 0.5
        jac[:, :, 1] = col.T
        np.negative(g, out=g)
        g /= t3
        jac[:, :, 2] = g.T
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
