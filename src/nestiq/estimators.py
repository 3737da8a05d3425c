"""Single-loop and nested (double-loop) estimators.

The nested estimators average an outer map f of an inner-integral estimate:
plain Monte Carlo uses iid points for both loops; the randomized
quasi-Monte Carlo variant scrambles one digital sequence per outer
randomization s and draws an independent inner scramble for every
(outer sample, inner replicate) pair, which is what keeps the inner error
from correlating across outer samples.

Single-loop estimators (mc_estimate; rqmc_estimate, R Owen scrambles of
one Sobol set), nested ones (dlmc_estimate; rdlqmc_estimate, S outer and
R-per-sample inner randomizations) and a tensor Gauss-Legendre oracle.
Samplers are "mc" and "rqmc-sobol-owen"; NestedProblem states the integrand
protocol.  One executor (_nested_values: chunks of at most 4096 outer rows,
inner points built a block of at most 2^14 at a time) serves the estimates,
the pilots, the spread diagnostic and the Laplace-only estimator.  It
yields each chunk's values in order as they finish, at most two tasks per
thread ahead, and rdlqmc_estimate is their one reduction (dlmc_estimate is
its iid S = R = 1 case), so no run holds its N row values.

Replicate semantics: replicate_values always hold the S outer-randomization
means; inner randomizations R reduce inner bias and variance but never enter
the replicate variance.  One randomization of iid rows (S = 1, sampler "mc")
takes its variance of the mean from the rows' streamed sums instead.

Process-wide effect: the first nested estimate in a process frees one
untouched 31 MiB array (see _retain_freed_memory).  Under glibc this raises
the mmap threshold to 31 MiB and the heap-trim threshold to 62 MiB for the
rest of the process, so freed arrays up to 31 MiB stay on its heap for
reuse instead of going back to the OS.  Importing the module does not.
"""

from __future__ import annotations

import collections
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
    _check_pow2,
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
_CHUNK = 4096  # outer rows of one randomization per chunk task; a power of two
# Inner points per integrand call: a chunk's rows are evaluated a block of
# whole rows at a time, or a row in parts, so no call's points or
# temporaries grow with M, R or the chunk (see _nested_values).
_INNER_BLOCK = 1 << 14


@functools.cache
def default_sobol_params() -> SobolParams:
    return load_direction_numbers()


@functools.cache
def _retain_freed_memory() -> None:
    """Keep freed arrays of up to 31 MiB on the heap for the rest of the process.

    glibc serves a request above its mmap threshold (128 KiB at start) with
    fresh pages and gives them back on free; when such a block is freed it
    raises the threshold to that block's size, up to 32 MiB, and the
    heap-trim threshold to twice that (mallopt(3), M_MMAP_THRESHOLD).
    Freeing one untouched 31 MiB block does that once, so the chunk's
    point and state arrays (about 1.5 MiB each) are reused chunk after chunk
    instead of being unmapped and faulted in again.  No page is touched;
    other allocators ignore it.  The nested executor calls it once, on its
    first run.
    """
    np.empty(31 << 20, dtype=np.uint8)


def thread_count() -> int:
    """Worker cap from NESTIQ_THREADS (default 1)."""
    try:
        return max(1, int(os.environ.get("NESTIQ_THREADS", "1")))
    except ValueError:
        return 1


def _map_ordered(fn, items):
    """Yield fn of each of a sequence of items, in item order, possibly
    computed in parallel; at most two tasks per thread are submitted and not
    yet yielded, so results wait for the consumer, not in a list."""
    n = thread_count()
    if n <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=min(n, len(items))) as ex:
        pending = collections.deque()
        for it in items:
            if len(pending) == 2 * n:
                yield pending.popleft().result()
            pending.append(ex.submit(fn, it))
        while pending:
            yield pending.popleft().result()


class InnerUnderflowError(ArithmeticError):
    """Inner mean was nonpositive in linear form; supply the integrand in log form."""


class AccuracyWarning(UserWarning):
    pass


@dataclass
class NestedProblem:
    """Outer map f of an inner integral of g over the unit cube.

    ``inner(state, x)`` takes the state of B outer rows and inner blocks x
    of shape (B, K, d2) and returns (B, K) values; ``inner_is_log`` marks the
    return value as log g.  The state is ``prepare(y)`` of the outer rows y,
    shape (B, d1), computed once however many inner blocks share those
    rows; without ``prepare`` it is y itself.  It is an array, or a tuple of
    arrays, indexed by outer row on axis 0, so a block of rows gets the
    matching rows of it.  With d2 = 0 the integrand reads no inner points,
    and its blocks are empty.  The discretization level h at which g is
    approximated, and its evaluation-cost exponent gamma, serve only the
    work accounting: an integrand that depends on h holds it itself.
    """

    d1: int
    d2: int
    inner: callable
    outer_map: str = "identity"  # "identity" | "log"
    inner_is_log: bool = False
    h: float | None = None
    gamma: float = 0.0
    prepare: callable = None

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 0:
            raise ValueError("d1 must be positive and d2 non-negative")
        if self.outer_map not in ("identity", "log"):
            raise ValueError("outer_map must be 'identity' or 'log'")
        if self.h is not None and self.h <= 0:
            raise ValueError("discretization level h must be positive")

    def work_factor(self) -> float:
        return 1.0 if self.h is None else float(self.h) ** (-self.gamma)

    def apply_outer(self, values: np.ndarray) -> np.ndarray:
        return np.log(values) if self.outer_map == "log" else values


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


def _make_result(values, counts, key: RandomizationKey, work, var=None):
    """Assemble a result; the variance of the mean is that of >= 2 replicate
    values, or else var."""
    values = np.asarray(values, dtype=np.float64)
    if values.size >= 2:
        var = replicate_variance(values)
    return EstimatorResult(
        estimate=float(values.mean()), replicate_values=values, variance_of_mean=var,
        stderr=None if var is None else math.sqrt(var), counts=dict(counts),
        seed=key.seed, work=float(work),
    )


# ---------------------------------------------------------------------------
# Single-loop estimators
# ---------------------------------------------------------------------------


def mc_estimate(integrand, dim: int, M: int, key: RandomizationKey) -> EstimatorResult:
    """Plain Monte Carlo mean of a vectorized integrand over (0,1)^dim."""
    if M < 1:
        raise ValueError("M must be >= 1")
    points = key.uniforms((M, dim), salt="mc")
    values = np.asarray(integrand(points), dtype=np.float64)
    return _make_result(values, {"M": M}, key, work=M)


def rqmc_estimate(integrand, dim: int, M: int, R: int, key: RandomizationKey) -> EstimatorResult:
    """Randomized QMC mean over R independent Owen scrambles of one Sobol point set."""
    _check_pow2(M, "M")
    base = sobol_sequence(default_sobol_params(), dim, int(math.log2(M)))
    if R < 1:
        raise ValueError("R must be >= 1")
    means = [
        float(np.mean(integrand(owen_scramble(base, key.child("rep", r)))))
        for r in range(R)
    ]
    return _make_result(means, {"M": M, "R": R}, key, work=M * R)


# ---------------------------------------------------------------------------
# Nested estimators
# ---------------------------------------------------------------------------


def _prepare_state(problem: NestedProblem, y: np.ndarray):
    """The inner integrand's state for outer rows y."""
    return y if problem.prepare is None else problem.prepare(y)


def _state_rows(state, lo, hi):
    """Rows [lo, hi) of a prepared state: an array, or a tuple of arrays,
    indexed by outer row on axis 0."""
    return tuple(v[lo:hi] for v in state) if isinstance(state, tuple) else state[lo:hi]


def _reduce(problem: NestedProblem, raw: np.ndarray) -> np.ndarray:
    """f of the inner mean of each row of the (rows, k) integrand values."""
    k = raw.shape[1]
    if problem.inner_is_log:
        log_mean = log_sum_exp(raw, axis=1) - math.log(k)
        return log_mean if problem.outer_map == "log" else np.exp(log_mean)
    mean = raw.mean(axis=1)
    if problem.outer_map == "log" and np.any(mean <= 0.0):
        raise InnerUnderflowError(
            "inner mean <= 0 under outer log; supply the inner integrand in log "
            "form (inner_is_log=True) to average in log space"
        )
    return problem.apply_outer(mean)


def _outer_values(problem: NestedProblem, y: np.ndarray, x: np.ndarray, groups=1,
                  state=None) -> np.ndarray:
    """f of the inner mean of each of `groups` equal parts of every outer
    row's inner block; x is (B, K, d2), the result (B * groups,) row by row.

    ``state`` is the rows' prepared state, prepared from y when None; with
    groups=None the (B, K) integrand values are returned unreduced.
    """
    if state is None:
        state = _prepare_state(problem, y)
    raw = np.asarray(problem.inner(state, x), dtype=np.float64)
    return raw if groups is None else _reduce(problem, raw.reshape(x.shape[0] * groups, -1))


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


def _inner_blocks(problem, n_lo, n_hi, M, R, s, key, sampler, params, lo=0, hi=None,
                  base=None):
    """Points [lo, hi) of the R*M inner points of each outer sample in
    [n_lo, n_hi): shape (B, hi - lo, d2).

    A sample's points are its R inner randomizations of M points each, in
    replicate order; a range short of all of them is one sample's, and it
    spans whole replicates or lies inside one.  Each (s, n, r) triple gets
    an independent randomization of the same M-point Sobol set (``base``,
    built from params when not given; a range inside a replicate generates
    its own rows, Owen-scrambled to the depth of all M points).  iid
    uniforms are counted from point lo of row n_lo of the stream, like the
    outer ones, so a point never depends on the range it is generated in.
    """
    hi = R * M if hi is None else hi
    b, d2 = n_hi - n_lo, problem.d2
    if d2 == 0:
        return np.empty((b, hi - lo, 0))
    if sampler == "mc":
        offset = (n_lo * R * M + lo) * d2
        return key.child("inner-mc", s).uniforms((b, hi - lo, d2), salt="x", offset=offset)
    r_lo, k_lo = divmod(lo, M)
    n_idx = np.arange(n_lo, n_hi, dtype=np.uint64)[:, None]
    r_idx = np.arange(r_lo, -(-hi // M), dtype=np.uint64)[None, :]
    roots = fold_index_array(fold_index_array(key.subroot("inner", s), n_idx), r_idx)
    tree, fill = _owen_lanes(roots, d2)
    log2_m = int(math.log2(M))
    if k_lo or hi % M:  # points [k_lo, k_hi) of replicate r_lo
        base = _sobol_rows(params, d2, log2_m, k_lo, hi - r_lo * M)
    elif base is None:
        base = sobol_sequence(params, d2, log2_m)
    return _scramble_values(base, tree, fill, log2_m).reshape(b, hi - lo, d2)


def _joined(parts):
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _nested_values(problem, N, M, S, R, outer_key, inner_key, sampler, groups=1):
    """f at every outer row of S randomizations of N rows, chunk by chunk.

    A chunk task is one row range of at most _CHUNK rows of one
    randomization, as many as N needs.  Each task builds its outer rows of
    outer_key and prepares their state once; it then walks
    the rows in blocks of at most _INNER_BLOCK inner points, building only
    that block's points (R inner randomizations of M points of inner_key per
    row) and handing the integrand only those rows' state.  A row whose R*M
    points exceed a block is evaluated in parts of whole replicates, or of
    one replicate's points when M exceeds a block.  A block's raw values go
    to one buffer of at most max(_INNER_BLOCK, R*M) values and are reduced
    once all have arrived.  Every point depends on its (randomization, row,
    replicate) alone, never on the chunk or block it falls in.  Tasks may
    run on several threads; each task's ((s, lo, hi), values), with its
    (hi - lo) * groups values of _outer_values, is yielded in task order.
    """
    if sampler not in _SAMPLERS:
        raise ValueError(f"unknown sampler kind {sampler!r}")
    params = None
    if sampler == "rqmc-sobol-owen":
        params = default_sobol_params()
        _check_pow2(N, "N")
        _check_pow2(M, "M")
        if max(problem.d1, problem.d2) > params.dimension:
            raise ValueError("Sobol parameter table has too few dimensions")
    for name, count in (("N", N), ("M", M), ("S", S), ("R", R)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
    _retain_freed_memory()

    block = _INNER_BLOCK
    base = None  # the inner Sobol set, shared by every block of whole replicates
    if params is not None and problem.d2 and M <= block:
        base = sobol_sequence(params, problem.d2, int(math.log2(M)))
    width = R * M  # inner points of one outer row
    rows = max(1, block // width)  # rows per block
    # a row's point ranges: the whole row, or parts of whole replicates, or
    # of one replicate's points when M exceeds a block
    span = max(M, block // M * M)
    step = min(span, block)
    parts = [(lo, min(lo + step, r0 + span, width))
             for r0 in range(0, width, span) for lo in range(r0, r0 + span, step)]
    per_s = -(-N // _CHUNK)  # tasks per randomization

    def run_chunk(task):
        s, j = divmod(task, per_s)
        lo, hi = j * _CHUNK, min(j * _CHUNK + _CHUNK, N)
        y = _outer_points(problem, N, s, outer_key, sampler, params, lo, hi)
        state = _prepare_state(problem, y)
        values = np.empty((hi - lo) * groups)
        raw = np.empty((rows, width))
        for a in range(0, hi - lo, rows):
            b = min(a + rows, hi - lo)
            rows_state = _state_rows(state, a, b)
            for p_lo, p_hi in parts:
                x = _inner_blocks(problem, lo + a, lo + b, M, R, s, inner_key, sampler,
                                  params, p_lo, p_hi, base)
                raw[:b - a, p_lo:p_hi] = _outer_values(problem, y[a:b], x, None, rows_state)
            block_raw = raw[:b - a].reshape((b - a) * groups, -1)
            values[a * groups:b * groups] = _reduce(problem, block_raw)
        return (s, lo, hi), values

    yield from _map_ordered(run_chunk, range(S * per_s))


def _inner_replicates(problem, n, M, R, outer_key, inner_key, sampler="rqmc-sobol-owen"):
    """f at the n outer points of outer_key for each of R inner
    randomizations of inner_key: shape (n, R).

    Each outer row is prepared once and evaluated at its R inner blocks in
    one call; each block of M values is reduced on its own.
    """
    pieces = _nested_values(problem, n, M, 1, R, outer_key, inner_key, sampler, groups=R)
    return _joined([v for _, v in pieces]).reshape(n, R)


def rdlqmc_estimate(
    problem: NestedProblem,
    N: int,
    M: int,
    S: int,
    R: int,
    key: RandomizationKey,
    sampler="rqmc-sobol-owen",
) -> EstimatorResult:
    """Nested estimator with S outer and R-per-sample inner randomizations.

    With S = R = 1 this is the single-randomization production estimator;
    replicate_values are the S outer-randomization means.  The rows are
    reduced as their chunks finish, so memory does not grow with N.
    """
    # each sums[s] adds the row sums of randomization s's row ranges in row
    # order, however many threads run them; iid rows of one randomization also
    # add their sum and sum of squares shifted by the first row, so identical
    # rows give var 0
    iid = sampler == "mc" and S == 1
    sums, shift, shifted, squares = np.zeros(S), None, 0.0, 0.0
    for (s, _, _), values in _nested_values(problem, N, M, S, R, key, key, sampler):
        sums[s] += values.sum()
        if iid:
            shift = values[0] if shift is None else shift
            dev = values - shift
            shifted, squares = shifted + dev.sum(), squares + dev @ dev
    var = None
    if iid and N >= 2:
        var = float(max(squares - shifted * shifted / N, 0.0)) / (N * (N - 1))
    work = N * M * S * R * problem.work_factor()
    return _make_result(sums / N, {"N": N, "M": M, "S": S, "R": R}, key, work, var)


def dlmc_estimate(problem: NestedProblem, N: int, M: int, key: RandomizationKey) -> EstimatorResult:
    """Double-loop Monte Carlo with iid uniform points in both loops."""
    return rdlqmc_estimate(problem, N, M, 1, 1, key, sampler="mc")


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------


def _tensor_grid(axes):
    """Tensor product of per-axis (nodes, weights) rules: (K, d) nodes, (K,) weights.

    With no axes it is the one node of the 0-dimensional cube, weight 1."""
    if not axes:
        return np.empty((1, 0)), np.ones(1)
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
    rows = max(1, _INNER_BLOCK // k)  # rows per integrand call, as in the executor
    total = 0.0
    for lo in range(0, y_nodes.shape[0], _CHUNK):
        hi = min(lo + _CHUNK, y_nodes.shape[0])
        state = _prepare_state(problem, y_nodes[lo:hi])
        fv = np.empty(hi - lo)
        for a in range(0, hi - lo, rows):
            b = min(a + rows, hi - lo)
            x = np.broadcast_to(x_nodes, (b - a, k, problem.d2))
            raw = np.asarray(problem.inner(_state_rows(state, a, b), x), dtype=np.float64)
            if problem.inner_is_log:
                log_inner = log_sum_exp(raw + np.log(x_w)[None, :], axis=1)
                fv[a:b] = log_inner if problem.outer_map == "log" else np.exp(log_inner)
            else:
                fv[a:b] = problem.apply_outer(raw @ x_w)
        total += float(fv @ y_w[lo:hi])
    return total


def tensor_quadrature_reference(
    problem: NestedProblem, order_outer: int, order_inner: int
) -> float:
    """Nested tensor Gauss-Legendre oracle for small problems (d1, d2 <= 3).

    Evaluates at the given orders and at doubled orders; warns if the two
    differ by 1e-10 or more, and returns the doubled-order value.  The
    integrand gets at most max(1, 2^14 / K) outer rows a call against its K
    inner nodes, so memory does not grow with the outer order.
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
