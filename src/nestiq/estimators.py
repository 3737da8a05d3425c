"""Single-loop and nested (double-loop) estimators.

The nested estimators average an outer map f of an inner-integral estimate:
plain Monte Carlo uses iid points for both loops; the randomized
quasi-Monte Carlo variant scrambles one digital sequence per outer
randomization s and draws an independent inner scramble for every
(outer sample, inner replicate) pair, which is what keeps the inner error
from correlating across outer samples.

Replicate semantics: replicate_values always hold the S outer-randomization
means (or the per-sample values for unreplicated MC estimators); inner
randomizations R reduce inner bias and variance but never enter the
replicate variance.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .lds import (
    RandomizationKey,
    SobolParams,
    _check_log2_count,
    _owen_lanes,
    _scramble_values,
    _sobol_rows,
    fold_index_array,
    load_direction_numbers,
    owen_scramble,
    sobol_sequence,
)
from .stats import log_sum_exp, replicate_variance

__all__ = [
    "NestedProblem",
    "EstimatorResult",
    "InnerUnderflowError",
    "AccuracyWarning",
    "mc_estimate",
    "rqmc_estimate",
    "dlmc_estimate",
    "rdlqmc_estimate",
    "tensor_quadrature_reference",
]

# point families: iid uniforms, or Owen-scrambled Sobol points
_SAMPLERS = ("mc", "rqmc-sobol-owen")
_CHUNK = 4096  # outer rows per chunk task; a power of two
# Byte budget of one chunk's inner points (rows * R * M * d2 float64s); a
# plan over budget gets fewer rows per chunk (see _chunk_rows).
_CHUNK_BYTES = 64 << 20


@functools.cache
def default_sobol_params() -> SobolParams:
    return load_direction_numbers()


def thread_count() -> int:
    """Worker cap from NESTIQ_THREADS (default 1)."""
    try:
        return max(1, int(os.environ.get("NESTIQ_THREADS", "1")))
    except ValueError:
        return 1


def _map_ordered(fn, items):
    """Apply fn to a sequence of items, possibly in parallel, always reducing
    in order."""
    n = thread_count()
    if n <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=min(n, len(items))) as ex:
        return list(ex.map(fn, items))


class InnerUnderflowError(ArithmeticError):
    """Inner mean was nonpositive in linear form; supply the integrand in log form."""


class AccuracyWarning(UserWarning):
    pass


def _check_sampler(sampler) -> str:
    if sampler not in _SAMPLERS:
        raise ValueError(f"unknown sampler kind {sampler!r}")
    return sampler


@dataclass
class NestedProblem:
    """Outer map f of an inner integral of g over the unit cube.

    ``inner(state, x, h)`` takes the state of B outer rows and inner blocks x
    of shape (B, K, d2) and returns (B, K) values; ``inner_is_log`` marks the
    return value as log g.  The state is ``prepare(y, h)`` of the outer rows
    y, shape (B, d1), computed once however many inner blocks share those
    rows; without ``prepare`` it is y itself.  ``eta``/``gamma`` describe the
    discretization order and evaluation-cost exponent when g is approximated
    at level h.
    """

    d1: int
    d2: int
    inner: callable
    outer_map: object = "identity"  # "identity" | "log" | callable
    inner_is_log: bool = False
    h: float | None = None
    eta: float = 1.0
    gamma: float = 0.0
    name: str = ""
    prepare: callable = None

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1:
            raise ValueError("dimensions must be positive")
        if isinstance(self.outer_map, str) and self.outer_map not in ("identity", "log"):
            raise ValueError("outer_map must be 'identity', 'log', or a callable")
        if self.h is not None and self.h <= 0:
            raise ValueError("discretization level h must be positive")

    def work_factor(self) -> float:
        return 1.0 if self.h is None else float(self.h) ** (-self.gamma)

    def apply_outer(self, values: np.ndarray) -> np.ndarray:
        if self.outer_map == "identity":
            return values
        if self.outer_map == "log":
            return np.log(values)
        return self.outer_map(values)


@dataclass
class EstimatorResult:
    """Estimate with replicate values, variance of the mean, and work."""

    estimate: float
    replicate_values: np.ndarray
    variance_of_mean: float | None
    stderr: float | None
    counts: dict
    seed: int
    work: float
    extras: dict = field(default_factory=dict)


def _make_result(values, counts, key: RandomizationKey, work, divisor=None, extras=None):
    """Assemble a result; variance of the mean needs >= 2 replicate values."""
    values = np.asarray(values, dtype=np.float64)
    estimate = float(values.mean())
    var = None
    if values.size >= 2:
        var = replicate_variance(values) if divisor is None else float(
            np.var(values, ddof=1) / divisor
        )
    stderr = math.sqrt(var) if var is not None else None
    return EstimatorResult(
        estimate=estimate,
        replicate_values=values,
        variance_of_mean=var,
        stderr=stderr,
        counts=dict(counts),
        seed=key.seed,
        work=float(work),
        extras=extras or {},
    )


def _check_pow2(value: int, name: str):
    if value < 1 or (value & (value - 1)) != 0:
        raise ValueError(f"{name} must be a power of two, got {value}")


# ---------------------------------------------------------------------------
# Single-loop estimators
# ---------------------------------------------------------------------------


def mc_estimate(integrand, dim: int, M: int, key: RandomizationKey) -> EstimatorResult:
    """Plain Monte Carlo mean of a vectorized integrand over (0,1)^dim."""
    if M < 1:
        raise ValueError("M must be >= 1")
    points = key.uniforms((M, dim), salt="mc")
    values = np.asarray(integrand(points), dtype=np.float64)
    return _make_result(values, {"M": M}, key, work=M, divisor=M)


def _replicate_points(dim, M, r, key, sampler, params):
    if sampler == "mc":
        return key.child("rep", r).uniforms((M, dim), salt="mc")
    base = sobol_sequence(params, dim, int(math.log2(M)))
    return owen_scramble(base, key.child("rep", r)).values


def rqmc_estimate(
    integrand,
    dim: int,
    M: int,
    R: int,
    key: RandomizationKey,
    sampler="rqmc-sobol-owen",
    params: SobolParams | None = None,
) -> EstimatorResult:
    """Randomized QMC mean over R independent randomizations of one point set."""
    if _check_sampler(sampler) == "rqmc-sobol-owen":
        _check_pow2(M, "M")
        params = params or default_sobol_params()
    if R < 1:
        raise ValueError("R must be >= 1")
    means = [
        float(np.mean(integrand(_replicate_points(dim, M, r, key, sampler, params))))
        for r in range(R)
    ]
    return _make_result(means, {"M": M, "R": R}, key, work=M * R)


# ---------------------------------------------------------------------------
# Nested estimators
# ---------------------------------------------------------------------------


def _prepare_state(problem: NestedProblem, y: np.ndarray):
    """The inner integrand's state for outer rows y."""
    return y if problem.prepare is None else problem.prepare(y, problem.h)


def _outer_values(problem: NestedProblem, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """f of the inner-block mean for each outer row; x is (B, K, d2)."""
    raw = np.asarray(problem.inner(_prepare_state(problem, y), x, problem.h), dtype=np.float64)
    k = x.shape[1]
    if problem.inner_is_log:
        log_mean = log_sum_exp(raw, axis=1) - math.log(k)
        if problem.outer_map == "log":
            return log_mean
        return problem.apply_outer(np.exp(log_mean))
    mean = raw.mean(axis=1)
    if problem.outer_map == "log" and np.any(mean <= 0.0):
        raise InnerUnderflowError(
            "inner mean <= 0 under outer log; supply the inner integrand in log "
            "form (inner_is_log=True) to average in log space"
        )
    return problem.apply_outer(mean)


def dlmc_estimate(problem: NestedProblem, N: int, M: int, key: RandomizationKey) -> EstimatorResult:
    """Double-loop Monte Carlo with iid uniform points in both loops.

    One outer and one inner randomization (counts S = R = 1);
    replicate_values are the N per-sample values.  Each chunk's streams are
    salted by its first row.
    """

    def points(s, lo, hi):
        y = key.child("outer", 0).uniforms((hi - lo, problem.d1), salt=f"y{lo}")
        x = key.child("inner", 0).uniforms((hi - lo, M, problem.d2), salt=f"x{lo}")
        return y, x

    pieces = _nested_values(problem, N, M, 1, 1, "mc", None, points)
    values = _joined([v for _, v in pieces])
    work = N * M * problem.work_factor()
    return _make_result(
        values, {"N": N, "M": M, "S": 1, "R": 1}, key, work=work, divisor=N
    )


def _outer_points(problem, N, s, key, sampler, params, lo=0, hi=None):
    """Rows [lo, hi) of the N outer points of randomization s: (hi - lo, d1).

    Both samplers generate only those rows, bit-identical to the same rows
    of the whole randomized set: iid uniforms by their stream counters, and
    Sobol rows from the Gray code of lo, Owen-scrambled (each point on its
    own) to the depth of all N points.
    """
    hi = N if hi is None else hi
    d1 = problem.d1
    if sampler == "mc":
        return key.child("outer", s).uniforms((hi - lo, d1), salt="y", offset=lo * d1)
    log2_n = int(math.log2(N))
    base = _sobol_rows(params, d1, log2_n, lo, hi)
    tree, fill = _owen_lanes(key.child("outer", s).subroot("owen"), d1)
    return _scramble_values(base, tree, fill, log2_n)


def _inner_blocks(problem, n_lo, n_hi, M, R, s, key, sampler, params):
    """Inner points for outer samples [n_lo, n_hi): shape (B, R*M, d2).

    Each (s, n, r) triple gets an independent randomization of the same base
    point set.
    """
    b = n_hi - n_lo
    if sampler == "mc":
        return key.child("inner-mc", s).uniforms((b, R * M, problem.d2), salt=f"x{n_lo}")
    n_idx = np.arange(n_lo, n_hi, dtype=np.uint64)[:, None]
    r_idx = np.arange(R, dtype=np.uint64)[None, :]
    roots = fold_index_array(fold_index_array(key.subroot("inner", s), n_idx), r_idx)
    log2_m = int(math.log2(M))
    base = sobol_sequence(params, problem.d2, log2_m)
    tree, fill = _owen_lanes(roots, problem.d2)
    pts = _scramble_values(base.values, tree, fill, log2_m)  # (B, R, M, d2)
    return pts.reshape(b, R * M, problem.d2)


def _chunk_rows(M, R, d2):
    """Outer rows per chunk: _CHUNK, halved while the chunk's inner points
    (rows * R * M * d2 float64s) exceed _CHUNK_BYTES.  Every value is a power
    of two that divides _CHUNK, whatever the thread count."""
    rows = _CHUNK
    while rows > 1 and rows * R * M * d2 * 8 > _CHUNK_BYTES:
        rows //= 2
    return rows


def _joined(parts):
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _nested_values(problem, N, M, S, R, sampler, params, points):
    """f at every outer row of S randomizations of N rows, chunk by chunk.

    ``points(s, lo, hi)`` returns the outer rows y and the inner blocks x,
    R randomizations of M points each, of rows [lo, hi) of randomization s.
    A chunk task is one row range of one randomization, as many as N needs,
    or, when N is below the chunk size, several whole randomizations that
    share one inner call and one MAP batch.  _chunk_rows sizes the ranges,
    so a task's inner points stay within _CHUNK_BYTES.  Tasks may run on
    several threads; the result lists ((s, lo, hi), values) for every
    segment in task order, each segment's values split from its task's by
    len(y).
    """
    if _check_sampler(sampler) == "rqmc-sobol-owen":
        _check_pow2(N, "N")
        _check_pow2(M, "M")
        if max(problem.d1, problem.d2) > params.dimension:
            raise ValueError("Sobol parameter table has too few dimensions")
        _check_log2_count(int(math.log2(N)))
        _check_log2_count(int(math.log2(M)))
    if N < 1 or M < 1:
        raise ValueError("N and M must be >= 1")
    if S < 1 or R < 1:
        raise ValueError("S and R must be >= 1")

    rows = _chunk_rows(M, R, problem.d2)
    per_task = max(1, rows // N)  # randomizations in one task
    per_s = -(-N // rows)  # tasks per randomization

    def segments(task):
        group, j = divmod(task, per_s)
        lo, hi = j * rows, min(j * rows + rows, N)
        first = group * per_task
        return [(s, lo, hi) for s in range(first, min(first + per_task, S))]

    def run_chunk(task):
        y, x = zip(*(points(*seg) for seg in segments(task)))
        values = _outer_values(problem, _joined(y), _joined(x))
        return np.split(values, np.cumsum([len(part) for part in y[:-1]]))

    tasks = range(-(-S // per_task) * per_s)
    return [
        (seg, values)
        for task, pieces in zip(tasks, _map_ordered(run_chunk, tasks))
        for seg, values in zip(segments(task), pieces)
    ]


def _inner_replicates(problem, n, M, R, outer_key, inner_key, sampler="rqmc-sobol-owen"):
    """f at the n outer points of outer_key for each of R inner
    randomizations of inner_key: shape (n, R).

    Every (row, inner randomization) pair is one row of the nested
    executor: its outer row repeated beside each of its R inner blocks.
    """
    params = default_sobol_params() if sampler == "rqmc-sobol-owen" else None

    def points(s, lo, hi):
        y = _outer_points(problem, n, s, outer_key, sampler, params, lo, hi)
        x = _inner_blocks(problem, lo, hi, M, R, s, inner_key, sampler, params)
        return np.repeat(y, R, axis=0), x.reshape((hi - lo) * R, M, problem.d2)

    pieces = _nested_values(problem, n, M, 1, R, sampler, params, points)
    return _joined([v for _, v in pieces]).reshape(n, R)


def rdlqmc_estimate(
    problem: NestedProblem,
    N: int,
    M: int,
    S: int,
    R: int,
    key: RandomizationKey,
    sampler="rqmc-sobol-owen",
    params: SobolParams | None = None,
) -> EstimatorResult:
    """Nested estimator with S outer and R-per-sample inner randomizations.

    With S = R = 1 this is the single-randomization production estimator;
    replicate_values are the S outer-randomization means.
    """
    if sampler == "rqmc-sobol-owen":
        params = params or default_sobol_params()

    def points(s, lo, hi):
        return (
            _outer_points(problem, N, s, key, sampler, params, lo, hi),
            _inner_blocks(problem, lo, hi, M, R, s, key, sampler, params),
        )

    # each sums[s] adds the row sums of the same (s, row range) pieces,
    # however the tasks group them
    sums = np.zeros(S)
    for (s, _, _), values in _nested_values(problem, N, M, S, R, sampler, params, points):
        sums[s] += values.sum()
    replicate_means = sums / N
    work = N * M * S * R * problem.work_factor()
    return _make_result(
        replicate_means, {"N": N, "M": M, "S": S, "R": R}, key, work=work
    )


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------


def _tensor_grid(axes):
    """Tensor product of per-axis (nodes, weights) rules: (K, d) nodes, (K,) weights."""
    node_grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    weight_grids = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    nodes = np.stack([g.ravel() for g in node_grids], axis=1)
    weights = np.stack([g.ravel() for g in weight_grids], axis=1).prod(axis=1)
    return nodes, weights


def _quadrature_value(problem: NestedProblem, order_outer: int, order_inner: int) -> float:
    grids = []
    for order, dim in ((order_outer, problem.d1), (order_inner, problem.d2)):
        t, w = np.polynomial.legendre.leggauss(order)
        grids.append(_tensor_grid([(0.5 * (t + 1.0), 0.5 * w)] * dim))
    (y_nodes, y_w), (x_nodes, x_w) = grids
    k = x_nodes.shape[0]
    total = 0.0
    for lo in range(0, y_nodes.shape[0], _CHUNK):
        hi = min(lo + _CHUNK, y_nodes.shape[0])
        y = y_nodes[lo:hi]
        x = np.broadcast_to(x_nodes, (hi - lo, k, problem.d2))
        raw = np.asarray(
            problem.inner(_prepare_state(problem, y), x, problem.h), dtype=np.float64
        )
        if problem.inner_is_log:
            log_inner = log_sum_exp(raw + np.log(x_w)[None, :], axis=1)
            fv = log_inner if problem.outer_map == "log" else problem.apply_outer(
                np.exp(log_inner)
            )
        else:
            fv = problem.apply_outer(raw @ x_w)
        total += float(fv @ y_w[lo:hi])
    return total


def tensor_quadrature_reference(
    problem: NestedProblem, order_outer: int, order_inner: int
) -> float:
    """Nested tensor Gauss-Legendre oracle for small problems (d1, d2 <= 3).

    Evaluates at the given orders and at doubled orders; warns if the two
    differ by 1e-10 or more, and returns the doubled-order value.
    """
    if problem.d1 > 3 or problem.d2 > 3:
        raise ValueError("quadrature oracle limited to d1 <= 3 and d2 <= 3")
    if not (1 <= order_outer <= 64 and 1 <= order_inner <= 64):
        raise ValueError("orders must be in [1, 64]")
    coarse = _quadrature_value(problem, order_outer, order_inner)
    fine = _quadrature_value(problem, 2 * order_outer, 2 * order_inner)
    if abs(fine - coarse) >= 1e-10:
        warnings.warn(
            f"quadrature not converged: |change on order doubling| = "
            f"{abs(fine - coarse):.3e}",
            AccuracyWarning,
            stacklevel=2,
        )
    return fine
