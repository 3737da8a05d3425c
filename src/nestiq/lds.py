"""Low-discrepancy point sets and their randomizations.

Sobol digital sequences in base 2 (Gray-code order; one built-in table of
Joe-Kuo direction numbers for dimensions 1-64), Owen nested-uniform
scrambling, and exact star-discrepancy diagnostics for small point sets.
Arrays in, arrays out: ``sobol_sequence`` gives (2^k, d) uint32 digits, the
point being value / 2^32, and ``owen_scramble`` maps them to floats in (0, 1).
Any row range of a Sobol set is generated on its own from its Gray code,
and a point's scramble depends only on the point, the key and the tree
depth (log2 of the whole set's count; the digits below it are uniform
bits), so each chunk of a larger set scrambles only its own rows
(_scramble_values is the blocked kernel).

All randomness flows through :class:`RandomizationKey`, a counter-based keyed
scheme: distinct (seed, tag, indices) tuples give independent bit streams,
every operation is a pure function of its explicit inputs, and identical
inputs reproduce bit-identical outputs regardless of call order or threading.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RandomizationKey",
    "SobolParams",
    "load_direction_numbers",
    "sobol_sequence",
    "owen_scramble",
    "star_discrepancy_1d",
    "star_discrepancy_brute",
]

_MASK64 = (1 << 64) - 1
_GOLD_INT = 0x9E3779B97F4A7C15
_GOLD = np.uint64(_GOLD_INT)
_TREE_SALT = np.uint64(0xA0761D6478BD642F)
_FILL_SALT = np.uint64(0xE7037ED1A0B428DB)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TOP_BIT = np.uint64(1 << 63)

# Table entries (lane-dimension columns times prefixes), and point
# coordinates, per block of the scramble kernel: each of its eight work
# buffers (three tables, the gather index, four per-point buffers) holds
# about one block of 8-byte words, 2 MiB in all, so they stay in L2 cache.
_SCRAMBLE_BLOCK = 1 << 15

# Deepest scramble-tree level whose _tree_order tables (24 * 2^t bytes) are
# cached across calls, 768 KiB for all levels up to it.  The nested
# executor scrambles at most 2^14 points a call; a deeper table, as for a
# whole large point set, is built for its call and freed with it.
_TREE_CACHE_LEVELS = 14

# Smallest/largest coordinates a point may carry.  The lower bound keeps
# inverse-CDF transforms finite; the upper bound is the largest double < 1.
COORD_MIN = 2.0 ** -64
COORD_MAX = float(np.nextafter(1.0, 0.0))


def _mix64_int(z: int) -> int:
    """SplitMix64 finalizer on Python ints (mod 2^64)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix64(z: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer on uint64 arrays."""
    z = np.asarray(z, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _mix64_rounds_inplace(z: np.ndarray, tmp: np.ndarray) -> None:
    """The two multiply rounds of :func:`mix64`, in place; ``tmp`` is scratch."""
    np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= _MIX2


def _fold_int(root: int, value) -> int:
    """Fold one index or short string into a 64-bit root."""
    if isinstance(value, str):
        r = _mix64_int(root ^ 0x5BF03635)
        for b in value.encode("utf-8"):
            r = _mix64_int(r ^ (((b + 1) * _GOLD_INT) & _MASK64))
        return r
    return _mix64_int(root ^ (((int(value) + 1) * _GOLD_INT) & _MASK64))


def fold_index_array(root, idx: np.ndarray) -> np.ndarray:
    """Fold an integer index array into root(s); broadcasts, returns uint64."""
    root = np.asarray(root, dtype=np.uint64)
    idx = np.asarray(idx, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return mix64(root ^ ((idx + np.uint64(1)) * _GOLD))


@dataclass(frozen=True)
class RandomizationKey:
    """Identifier of one independent randomization stream.

    The (seed, tag, indices) triple is hashed into a 64-bit root from which
    scramble trees and plain uniforms are derived lazily.
    Distinct triples yield statistically independent streams.
    """

    seed: int
    tag: str = ""
    indices: tuple = ()

    def child(self, *indices) -> "RandomizationKey":
        """Extend the index tuple (integers or short strings)."""
        return RandomizationKey(self.seed, self.tag, self.indices + tuple(indices))

    def root(self) -> int:
        r = _mix64_int((self.seed & _MASK64) ^ 0x6A09E667F3BCC909)
        r = _fold_int(r, self.tag)
        for ix in self.indices:
            r = _fold_int(r, ix)
        return r

    def subroot(self, *extra) -> int:
        r = self.root()
        for ix in extra:
            r = _fold_int(r, ix)
        return r

    def uniforms(self, shape, salt: str = "uniform", offset: int = 0) -> np.ndarray:
        """Deterministic iid uniforms on (0,1), clamped away from 0 and 1.

        They are numbers offset+1 ... offset+size of the (key, salt) stream,
        so rows [lo, hi) of an (N, d) draw are the (hi - lo, d) draw at
        offset lo * d.
        """
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        size = int(np.prod(shape)) if shape else 1
        base = np.uint64(self.subroot(salt))
        ctr = np.arange(offset + 1, offset + size + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            bits = mix64(base ^ (ctr * _GOLD))
        u = (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return np.clip(u, COORD_MIN, COORD_MAX).reshape(shape)


# ---------------------------------------------------------------------------
# Sobol direction numbers
# ---------------------------------------------------------------------------

# Joe-Kuo "new-joe-kuo-6" records "d s a m_1 ... m_s" for dimensions 2..64,
# in order.  Dimension 1 is the base-2 radical inverse (van der Corput) and
# needs no record.  Published initial values; expanded to 32 bits on the
# first load_direction_numbers call.
_BUILTIN_JOE_KUO = """
2 1 0 1
3 2 1 1 3
4 3 1 1 3 1
5 3 2 1 1 1
6 4 1 1 1 3 3
7 4 4 1 3 5 13
8 5 2 1 1 5 5 17
9 5 4 1 1 5 5 5
10 5 7 1 1 7 11 19
11 5 11 1 1 5 1 1
12 5 13 1 1 1 3 11
13 5 14 1 3 5 5 31
14 6 1 1 3 3 9 7 49
15 6 13 1 1 1 15 21 21
16 6 16 1 3 1 13 27 49
17 6 19 1 1 1 15 7 5
18 6 22 1 3 1 15 13 25
19 6 25 1 1 5 5 19 61
20 7 1 1 3 7 11 23 15 103
21 7 4 1 3 7 13 13 15 69
22 7 7 1 1 3 13 7 35 63
23 7 8 1 3 5 9 1 25 53
24 7 14 1 3 1 13 9 35 107
25 7 19 1 3 1 5 27 61 31
26 7 21 1 1 5 11 19 41 61
27 7 28 1 3 5 3 3 13 69
28 7 31 1 1 7 13 1 19 1
29 7 32 1 3 7 5 13 19 59
30 7 37 1 1 3 9 25 29 41
31 7 41 1 3 5 13 23 1 55
32 7 42 1 3 7 3 13 59 17
33 7 50 1 3 1 3 5 53 69
34 7 55 1 1 5 5 23 33 13
35 7 56 1 1 7 7 1 61 123
36 7 59 1 1 7 9 13 61 49
37 7 62 1 3 3 5 3 55 33
38 8 14 1 3 1 15 31 13 49 245
39 8 21 1 3 5 15 31 59 63 97
40 8 22 1 3 1 11 11 11 77 249
41 8 38 1 3 1 11 27 43 71 9
42 8 47 1 1 7 15 21 11 81 45
43 8 49 1 3 7 3 25 31 65 79
44 8 50 1 3 1 1 19 11 3 205
45 8 52 1 1 5 9 19 21 29 157
46 8 56 1 3 7 11 1 33 89 185
47 8 67 1 3 3 3 15 9 79 71
48 8 70 1 3 7 11 15 39 119 27
49 8 84 1 1 3 1 11 31 97 225
50 8 97 1 1 1 3 23 43 57 177
51 8 103 1 3 7 7 17 17 37 71
52 8 115 1 3 1 5 27 63 123 213
53 8 122 1 1 3 5 11 43 53 133
54 9 8 1 3 5 5 29 17 47 173 479
55 9 13 1 3 3 11 3 1 109 9 69
56 9 16 1 1 1 5 17 39 23 5 343
57 9 22 1 3 1 5 25 15 31 103 499
58 9 25 1 1 1 11 11 17 63 105 183
59 9 44 1 1 5 11 9 29 97 231 363
60 9 47 1 1 5 15 19 45 41 7 383
61 9 52 1 3 7 7 31 19 83 137 221
62 9 55 1 1 1 3 23 15 111 223 83
63 9 59 1 1 5 13 31 15 55 25 161
64 9 62 1 1 3 13 25 47 39 87 257
"""

_N_BITS = 32


class DirectionNumberError(ValueError):
    """A direction-number table that is not (dimension, 32) or breaks the top-bit rule."""


@dataclass(frozen=True)
class SobolParams:
    """Expanded Sobol parameters: 32 direction numbers per dimension.

    ``directions[j, k]`` is v_{j,k+1} stored as a bit-reversed fraction:
    an unsigned 32-bit integer in [2^(32-k-1), 2^32).
    """

    directions: np.ndarray

    def __post_init__(self):
        # a read-only copy of its own: every chunk thread reads the cached table
        d = np.array(self.directions, dtype=np.uint32)
        if d.ndim != 2 or d.shape[1] != _N_BITS or d.shape[0] < 1:
            raise DirectionNumberError("directions must be (dimension, 32)")
        k = np.arange(1, _N_BITS + 1)
        lo = (np.uint64(1) << np.uint64(_N_BITS)) >> k.astype(np.uint64)
        if np.any(d.astype(np.uint64) < lo[None, :]):
            raise DirectionNumberError(
                "direction number v_k must have its top bit among the first k bits"
            )
        d.flags.writeable = False
        object.__setattr__(self, "directions", d)

    @property
    def dimension(self) -> int:
        return self.directions.shape[0]


def _expand_directions(degree: int, coeff: int, m_init: list[int]) -> np.ndarray:
    """Expand initial odd integers m_1..m_s to 32 direction numbers."""
    v = np.zeros(_N_BITS, dtype=np.uint64)
    for k, m in enumerate(m_init):
        v[k] = np.uint64(m << (_N_BITS - k - 1))
    for k in range(degree, _N_BITS):
        acc = int(v[k - degree]) ^ (int(v[k - degree]) >> degree)
        for i in range(1, degree):
            if (coeff >> (degree - 1 - i)) & 1:
                acc ^= int(v[k - i])
        v[k] = np.uint64(acc)
    return v.astype(np.uint32)


def _van_der_corput_directions() -> np.ndarray:
    return (np.uint64(1) << (np.uint64(_N_BITS) - np.arange(1, _N_BITS + 1, dtype=np.uint64))).astype(np.uint32)


@functools.cache
def load_direction_numbers() -> SobolParams:
    """The built-in Joe-Kuo table for dimensions 1-64, built once.

    Dimension 1 is the base-2 radical inverse; each record of
    ``_BUILTIN_JOE_KUO`` gives the next dimension.  Every call returns the
    same read-only :class:`SobolParams`.
    """
    rows = [_van_der_corput_directions()]
    for record in _BUILTIN_JOE_KUO.strip().splitlines():
        _, s, a, *m = map(int, record.split())
        rows.append(_expand_directions(s, a, m))
    return SobolParams(directions=np.stack(rows))


# ---------------------------------------------------------------------------
# Sequence generation and randomization
# ---------------------------------------------------------------------------


def sobol_sequence(params: SobolParams, dimension: int, log2_count: int) -> np.ndarray:
    """First 2^log2_count Sobol points in ``dimension`` dims, Gray-code order:
    a (2^log2_count, dimension) uint32 array whose unrandomized coordinates
    are value / 2^32.

    The point set equals the first block of the sequence; for dimension 1
    the integers are exactly {i * 2^(32-k) : 0 <= i < 2^k} as a set.
    """
    return _sobol_rows(params, dimension, log2_count)


# Largest log2 of a point count that a Sobol set, and so a plan, may have.
_LOG2_COUNT_MAX = 31


def _check_pow2(value: int, name: str):
    """Refuse a count that is not a power of two of at most 2^31 points."""
    if value < 1 or (value & (value - 1)) != 0:
        raise ValueError(f"{name} must be a power of two, got {value}")
    if value > 1 << _LOG2_COUNT_MAX:
        raise ValueError(f"{name} must be at most 2^{_LOG2_COUNT_MAX}, got {value}")


def _check_log2_count(log2_count: int):
    if not 0 <= log2_count <= _LOG2_COUNT_MAX:
        raise ValueError(f"log2_count {log2_count} out of range [0, {_LOG2_COUNT_MAX}]")


def _sobol_rows(params: SobolParams, dimension: int, log2_count: int, lo: int = 0,
                hi: int | None = None) -> np.ndarray:
    """Rows [lo, hi) of the first 2^log2_count Sobol points: (hi - lo, dimension) uint32.

    Point i is the xor of the direction numbers picked by the bits of its
    Gray code i ^ (i >> 1), so a row range starts there and then toggles one
    direction number per point, without generating the rows before it.
    """
    if not 1 <= dimension <= params.dimension:
        raise ValueError(
            f"dimension {dimension} out of range [1, {params.dimension}]"
        )
    _check_log2_count(log2_count)
    count = 1 << log2_count
    hi = count if hi is None else hi
    if not 0 <= lo < hi <= count:
        raise ValueError(f"rows [{lo}, {hi}) out of range [0, {count})")
    directions = params.directions[:dimension, :]
    gray = lo ^ (lo >> 1)
    first = np.zeros(dimension, dtype=np.uint32)
    for b in range(gray.bit_length()):
        if gray >> b & 1:
            first ^= directions[:, b]
    values = np.empty((hi - lo, dimension), dtype=np.uint32)
    values[0] = first
    if hi - lo > 1:
        idx = np.arange(lo + 1, hi, dtype=np.int64)
        # lowest set bit of i selects the direction number toggled at step i
        ctz = np.log2(idx & -idx).astype(np.int64)
        steps = directions[:, ctz]  # (d, hi-lo-1)
        values[1:] = first ^ np.bitwise_xor.accumulate(steps, axis=1).T
    return values


def _owen_lanes(root, dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension 64-bit lane keys for the scramble tree and bit fill.

    ``root`` may be a scalar or an array of stream roots; lanes broadcast to
    root.shape + (dimension,).
    """
    root = np.asarray(root, dtype=np.uint64)[..., None]
    d_idx = (np.arange(1, dimension + 1, dtype=np.uint64)) * _GOLD
    with np.errstate(over="ignore"):
        tree = mix64(root ^ d_idx ^ _TREE_SALT)
        fill = mix64(root ^ d_idx ^ _FILL_SALT)
    return tree, fill


def _fill_bits(z: np.ndarray, tmp: np.ndarray, low: np.uint64) -> None:
    """The fill's low bits, in place: :func:`mix64` of ``z`` masked by ``low``."""
    _mix64_rounds_inplace(z, tmp)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    z &= low


def _to_unit(bits: np.ndarray, out: np.ndarray) -> None:
    """The top 53 of 64 bits as floats in [2^-64, 1 - 2^-53]; ``bits`` is scratch."""
    bits >>= np.uint64(11)
    np.multiply(bits, 2.0**-53, out=out)
    np.maximum(out, COORD_MIN, out=out)


def _tree_order(t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Storage order of the top t levels of a scramble tree.

    Level k's 2^k nodes fill entries [2^k, 2^(k+1)) with their prefixes in
    bit-reversed order; entry 0 holds no node.  Returns the heap-indexed
    node id and the level of each of the 2^t entries, and the t-digit
    prefix that each entry of the table below level t - 1 stands for.  In
    this order the children of a level are that level twice over: entry p
    of level k + 1 extends the prefix at entry p mod 2^k of level k by the
    digit p >> k.  Bit reversal is its own inverse, so prefix q sits at
    entry ``prefix[q]``.  The tables of levels up to _TREE_CACHE_LEVELS
    are cached and shared by every call, so all tables are read-only.
    """
    return _cached_tree_order(t) if t <= _TREE_CACHE_LEVELS else _build_tree_order(t)


@functools.cache
def _cached_tree_order(t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return _build_tree_order(t)


def _build_tree_order(t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    prefix = np.zeros(1, dtype=np.uint64)
    ids, level = [prefix], [prefix]
    for k in range(t):
        ids.append(prefix | np.uint64(1 << k))
        level.append(np.full(1 << k, k, dtype=np.uint64))
        prefix = np.concatenate((prefix << np.uint64(1), (prefix << np.uint64(1)) | np.uint64(1)))
    tables = np.concatenate(ids), np.concatenate(level), prefix
    for table in tables:
        table.flags.writeable = False
    return tables


def _scramble_values(values_u32: np.ndarray, tree: np.ndarray, fill: np.ndarray,
                     depth: int) -> np.ndarray:
    """Nested uniform scramble of 32-bit integers under per-dim lane keys.

    ``values_u32`` is (M, d); ``tree``/``fill`` broadcast as (..., d).
    Returns floats of shape (..., M, d) in [2^-64, 1-2^-53].

    The permutation bit at tree depth k < ``depth`` is a keyed hash of the k
    leading original digits (heap-indexed node id), which realizes Owen
    scrambling without materializing permutation trees.  The other
    64 - ``depth`` bits are uniform bits: the low bits of one full
    :func:`mix64` of the ``depth`` leading digits under the fill key.  Pass
    depth = log2 of the whole point set's count: each depth-``depth`` node of
    a 2^depth-point net holds one point, so the permutations below it amount
    to iid uniform digits (Owen 1995).  ``depth=32`` hashes every digit.

    The tree is hashed per node above level t = min(depth, floor(log2 M))
    and per point below it.  For each lane and dimension the 2^t - 1 nodes
    of levels 0..t-1 are hashed once, in the order of :func:`_tree_order`,
    and a table of 2^t flip words, one per t-digit prefix, is built from
    them top down; each point gathers its word by its prefix.  Levels
    t..depth-1 and the fill hash stay per point; they exist only when the M
    points are fewer than 2^depth (a row range of a larger set).  Where
    t = depth a point's whole word depends on its prefix alone, so the fill
    hash and the float conversion run on the table too, and the gather
    writes the output.

    Blocks of about ``_SCRAMBLE_BLOCK`` table entries (several lanes of all
    dimensions, or some dimensions of one lane) and about as many point
    coordinates bound the work buffers, which are local to the call.  A
    block's tables are (lane-dimension column, entry) arrays, laid out
    column-innermost when columns times t exceed the 2^t entries, so that
    neither the broadcasts along the entries nor the t level steps of the
    build run many short inner loops.  Only bit 63 of a node's :func:`mix64` hash is used, and the
    final xor-shift of :func:`mix64` leaves that bit alone, so each node
    runs just the two multiply rounds.
    """
    if not 0 <= depth <= _N_BITS:
        raise ValueError(f"scramble depth {depth} out of range [0, {_N_BITS}]")
    tree = np.asarray(tree, dtype=np.uint64)[..., None, :]
    fill = np.asarray(fill, dtype=np.uint64)[..., None, :]
    shape = np.broadcast_shapes(tree.shape, fill.shape, np.shape(values_u32))
    lanes, (m, d) = shape[:-2], shape[-2:]
    x = np.broadcast_to(np.asarray(values_u32, dtype=np.uint32), (m, d))
    tree = np.broadcast_to(tree, lanes + (1, d)).reshape(-1, d)
    fill = np.broadcast_to(fill, lanes + (1, d)).reshape(-1, d)
    n_lanes = tree.shape[0]
    t = min(depth, m.bit_length() - 1)
    size = 1 << t
    ids, level, prefix = _tree_order(t)
    entry_of = prefix.astype(np.intp)
    digits = (prefix << np.uint64(_N_BITS - t)) << np.uint64(_N_BITS)  # in bits 63..64-t
    dims = min(d, max(1, _SCRAMBLE_BLOCK // size))
    lanes_per_block = min(n_lanes, max(1, _SCRAMBLE_BLOCK // (size * d)))
    rows = min(m, max(1, _SCRAMBLE_BLOCK // (lanes_per_block * dims)))
    tables = np.empty((3, lanes_per_block * dims * size), dtype=np.uint64)
    index = np.empty((lanes_per_block + 1) * rows * dims, dtype=np.intp)
    if t < depth:
        buffers = np.empty((4, lanes_per_block * rows * dims), dtype=np.uint64)
    out = np.empty((n_lanes, m, d))
    low = np.uint64(_MASK64 >> depth)  # the bits the fill supplies
    high = np.uint64(_MASK64 ^ (_MASK64 >> depth))  # the permuted leading digits
    with np.errstate(over="ignore"):
        gold_ids = ids * _GOLD
        gold_prefix = prefix * _GOLD
        indexed = None
        for l0, j0 in itertools.product(range(0, n_lanes, lanes_per_block), range(0, d, dims)):
            nl, dj = min(lanes_per_block, n_lanes - l0), min(dims, d - j0)
            cols, lane, dim = nl * dj, slice(l0, l0 + nl), slice(j0, j0 + dj)
            flat = tables[:, :cols * size]
            if cols * t > size:
                nodes, table, tmp = flat.reshape(3, size, cols).transpose(0, 2, 1)
                col_stride, entry_stride = 1, cols
            else:
                nodes, table, tmp = flat.reshape(3, cols, size)
                col_stride, entry_stride = size, 1
            # node n at level k flips digit k: its hash's top bit, moved to bit 63 - k
            np.bitwise_xor(gold_ids, tree[lane, dim].reshape(cols, 1), out=nodes)
            _mix64_rounds_inplace(nodes, tmp)
            nodes &= _TOP_BIT
            nodes >>= level
            # top down, each node ORs in its parent's flips, then the table's
            # entries take those of their parents at level t - 1
            for k in range(1, t):
                children = nodes[:, 2 << (k - 1):4 << (k - 1)].reshape(cols, 2, 1 << (k - 1))
                np.bitwise_or(children, nodes[:, None, 1 << (k - 1):2 << (k - 1)], out=children)
            if t:
                np.copyto(table.reshape(cols, 2, size // 2), nodes[:, None, size // 2:])
            else:
                table.fill(0)
            source = flat[1]
            if t == depth:  # the whole word depends on the depth-digit prefix
                np.bitwise_xor(gold_prefix, fill[lane, dim].reshape(cols, 1), out=nodes)
                _fill_bits(nodes, tmp, low)
                table ^= digits
                table |= nodes
                source = flat[0].view(np.float64)
                _to_unit(table, nodes.view(np.float64))
            for p0 in range(0, m, rows):
                nm = min(rows, m - p0)
                point = slice(p0, p0 + nm)
                idx = index[:cols * nm].reshape(nl, nm, dj)
                if indexed != (nl, p0, j0):  # else the last block's index is this one's
                    indexed = (nl, p0, j0)
                    # each point's table entry by its t-digit prefix, in its column
                    base = index[cols * nm:(cols + dj) * nm].reshape(nm, dj)
                    np.right_shift(x[point, dim], np.uint64(_N_BITS - t), out=base)
                    np.take(entry_of, base, out=base)
                    base *= entry_stride
                    base += np.arange(dj, dtype=np.intp) * col_stride
                    lane_of = np.arange(nl, dtype=np.intp) * (dj * col_stride)
                    np.add(base, lane_of[:, None, None], out=idx)
                if t == depth:
                    np.take(source, idx, out=out[lane, point, dim], mode="clip")
                    continue
                z, tmp, flips, path = buffers[:, :cols * nm].reshape(4, nl, nm, dj)
                np.take(source, idx, out=flips, mode="clip")
                # path >> (32 - k) is the heap-indexed node 2^k | (k leading digits)
                np.bitwise_or(x[point, dim], np.uint64(1 << _N_BITS), out=path)
                lane_tree = tree[lane, None, dim]
                for k in range(t, depth):
                    np.right_shift(path, np.uint64(_N_BITS - k), out=z)
                    z *= _GOLD
                    z ^= lane_tree
                    _mix64_rounds_inplace(z, tmp)
                    z &= _TOP_BIT
                    z >>= np.uint64(k)
                    flips |= z
                np.right_shift(x[point, dim], np.uint64(_N_BITS - depth), out=z)
                z *= _GOLD
                z ^= fill[lane, None, dim]
                _fill_bits(z, tmp, low)
                np.left_shift(path, np.uint64(_N_BITS), out=tmp)  # digits in bits 63..32
                tmp &= high
                flips ^= tmp
                flips |= z
                _to_unit(flips, out[lane, point, dim])
    return out.reshape(shape)


def owen_scramble(values: np.ndarray, key: RandomizationKey) -> np.ndarray:
    """Owen nested uniform scrambling of a digital sequence's (count,
    dimension) uint32 array, whose count is a power of two, to floats.

    One key scrambles the whole sequence (the same randomization applies to
    every point); every output coordinate is marginally uniform on (0,1).
    The scramble tree is cut at depth log2(count), below which each node
    holds one point, and the remaining digits are iid uniform bits.
    """
    if np.ndim(values) != 2:
        raise ValueError("values must be a (count, dimension) array")
    count, dimension = np.shape(values)
    _check_pow2(count, "count")
    tree, fill = _owen_lanes(key.subroot("owen"), dimension)
    return _scramble_values(values, tree, fill, count.bit_length() - 1)


# ---------------------------------------------------------------------------
# Star discrepancy
# ---------------------------------------------------------------------------


def star_discrepancy_1d(points) -> float:
    """Exact 1-D star discrepancy via the sorted-points formula; a 1-D
    ``points`` is read as one column."""
    coords = np.asarray(points, dtype=np.float64)
    coords = coords[:, None] if coords.ndim == 1 else coords
    if coords.shape[1] != 1:
        raise ValueError("star_discrepancy_1d requires dimension 1")
    t = np.sort(coords[:, 0])
    m = t.size
    if m == 0:
        raise ValueError("empty point set")
    i = np.arange(1, m + 1, dtype=np.float64)
    return float(max(np.max(i / m - t), np.max(t - (i - 1) / m)))


def star_discrepancy_brute(points) -> float:
    """Exact star discrepancy by candidate-box enumeration (test oracle).

    Restricted to dimension <= 3 and at most 64 points; the supremum over
    anchored boxes [0, s) is attained on the grid of point coordinates per
    axis plus 1.  A 1-D ``points`` is read as one column.
    """
    coords = np.asarray(points, dtype=np.float64)
    coords = coords[:, None] if coords.ndim == 1 else coords
    m, d = coords.shape
    if m == 0:
        raise ValueError("empty point set")
    if d > 3 or m > 64:
        raise ValueError(
            f"star_discrepancy_brute limited to dimension <= 3 and 64 points, "
            f"got ({m}, {d})"
        )
    axes = [np.unique(np.concatenate([coords[:, j], [1.0]])) for j in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    corners = np.stack([g.ravel() for g in grids], axis=1)  # (n_boxes, d)
    vol = np.prod(corners, axis=1)
    # closed count bounds the sup from the right limit; open count handles [0, s)
    inside_le = np.all(coords[None, :, :] <= corners[:, None, :], axis=2)
    inside_lt = np.all(coords[None, :, :] < corners[:, None, :], axis=2)
    n_le = inside_le.sum(axis=1) / m
    n_lt = inside_lt.sum(axis=1) / m
    return float(max(np.max(n_le - vol), np.max(vol - n_lt)))
