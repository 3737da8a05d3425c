"""Sobol generation, Owen scrambling, and star discrepancy."""

import hashlib
import math

import numpy as np
import pytest

from nestiq import lds
from nestiq.lds import (
    DigitalSequence,
    DirectionNumberError,
    RandomizationKey,
    load_direction_numbers,
    owen_scramble,
    sobol_sequence,
    star_discrepancy_1d,
    star_discrepancy_brute,
)

PARAMS = load_direction_numbers()


class TestDirectionNumbers:
    def test_builtin_covers_64_dimensions(self):
        assert PARAMS.dimension == 64

    def test_dimension_one_is_radical_inverse(self):
        p = load_direction_numbers(dimension=1)
        expected = np.array([1 << (32 - k) for k in range(1, 33)], dtype=np.uint64)
        np.testing.assert_array_equal(p.directions[0].astype(np.uint64), expected)

    def test_single_record_expands(self):
        # degree-1 polynomial with m_1 = 1: v_1 = 2^31
        p = load_direction_numbers("2 1 0 1")
        assert p.dimension == 2
        assert int(p.directions[1, 0]) == 2**31

    def test_even_initial_value_rejected(self):
        with pytest.raises(DirectionNumberError, match="odd"):
            load_direction_numbers("2 1 0 2")

    def test_malformed_line_reports_lineno(self):
        with pytest.raises(DirectionNumberError, match="line 2"):
            load_direction_numbers("2 1 0 1\n3 2 1 1 oops")

    def test_dimension_gap_rejected(self):
        with pytest.raises(DirectionNumberError, match="gap|duplicate"):
            load_direction_numbers("2 1 0 1\n4 3 1 1 3 1")

    def test_header_line_tolerated(self):
        p = load_direction_numbers("d s a m_i\n2 1 0 1")
        assert p.dimension == 2

    def test_params_keep_a_read_only_copy(self):
        # every chunk thread reads the one cached table
        from nestiq.estimators import default_sobol_params

        directions = default_sobol_params().directions
        with pytest.raises(ValueError, match="read-only"):
            directions[0, 0] = directions[0, 0]
        table = PARAMS.directions.copy()
        params = lds.SobolParams(table)
        table[0, 0] = 0
        assert int(params.directions[0, 0]) == 2**31

    def test_top_bit_invariant(self):
        d = PARAMS.directions.astype(np.uint64)
        k = np.arange(1, 33, dtype=np.uint64)
        assert np.all(d >= (np.uint64(1) << (np.uint64(32) - k))[None, :])


class TestSobolSequence:
    def test_dimension1_k2_set(self):
        seq = sobol_sequence(PARAMS, 1, 2)
        assert set(seq.fractions().ravel()) == {0.0, 0.25, 0.5, 0.75}

    def test_k0_single_origin_point(self):
        seq = sobol_sequence(PARAMS, 1, 0)
        assert seq.count == 1 and seq.fractions()[0, 0] == 0.0

    def test_projections_are_full_grids(self):
        seq = sobol_sequence(PARAMS, 2, 3)
        fr = seq.fractions()
        for j in range(2):
            np.testing.assert_allclose(np.sort(fr[:, j]), np.arange(8) / 8)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_dimension1_set_equality(self, k):
        seq = sobol_sequence(PARAMS, 1, k)
        expected = {i << (32 - k) for i in range(1 << k)}
        assert set(int(v) for v in seq.values[:, 0]) == expected

    def test_count_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            DigitalSequence(values=np.zeros((3, 1), dtype=np.uint32))

    def test_range_checks(self):
        with pytest.raises(ValueError):
            sobol_sequence(PARAMS, 0, 3)
        with pytest.raises(ValueError):
            sobol_sequence(PARAMS, 65, 3)
        with pytest.raises(ValueError):
            sobol_sequence(PARAMS, 1, 32)


class TestOwenScramble:
    def test_uniform_marginal_mean(self):
        seq = sobol_sequence(PARAMS, 1, 12)
        pts = owen_scramble(seq, RandomizationKey(5))
        # iid-uniform bound, generous for a scrambled net
        assert abs(pts.values[:, 0].mean() - 0.5) < 3 * (1 / math.sqrt(12)) / 64

    def test_deterministic(self):
        seq = sobol_sequence(PARAMS, 3, 8)
        key = RandomizationKey(9, tag="err")
        a = owen_scramble(seq, key)
        b = owen_scramble(seq, key)
        np.testing.assert_array_equal(a.values, b.values)

    def test_distinct_keys_differ(self):
        seq = sobol_sequence(PARAMS, 1, 6)
        a = owen_scramble(seq, RandomizationKey(1))
        b = owen_scramble(seq, RandomizationKey(2))
        assert not np.array_equal(a.values, b.values)

    def test_elementary_intervals_1d(self):
        seq = sobol_sequence(PARAMS, 1, 8)
        pts = owen_scramble(seq, RandomizationKey(3))
        hist = np.histogram(pts.values[:, 0], bins=256, range=(0, 1))[0]
        assert np.all(hist == 1)

    def test_net_preservation_2d(self):
        # every dyadic box of volume 2^-6 holds exactly one point, all splits
        seq = sobol_sequence(PARAMS, 2, 6)
        pts = owen_scramble(seq, RandomizationKey(17)).values
        for j1 in range(7):
            hist = np.histogram2d(
                pts[:, 0], pts[:, 1], bins=[2**j1, 2 ** (6 - j1)],
                range=[[0, 1], [0, 1]],
            )[0]
            assert np.all(hist == 1), f"split {j1}/{6 - j1}"

    def test_ks_uniformity_across_keys(self):
        from scipy.stats import kstest

        seq = sobol_sequence(PARAMS, 1, 12)
        passed = 0
        for s in range(100):
            pts = owen_scramble(seq, RandomizationKey(s, tag="ks"))
            stat = kstest(pts.values[:, 0], "uniform").statistic
            passed += stat < 0.03
        assert passed >= 95

    def test_coordinates_strictly_inside(self):
        seq = sobol_sequence(PARAMS, 4, 10)
        v = owen_scramble(seq, RandomizationKey(0)).values
        assert np.all(v >= 2.0**-64) and np.all(v < 1.0)

    def test_discrepancy_decay_slope(self):
        ks = range(4, 13)
        stats = []
        for k in ks:
            seq = sobol_sequence(PARAMS, 1, k)
            pts = owen_scramble(seq, RandomizationKey(k, tag="decay"))
            stats.append(star_discrepancy_1d(pts))
        slope = np.polyfit(list(ks), np.log2(stats), 1)[0]
        assert slope <= -0.9


def _scramble_reference(values_u32, tree, fill):
    """The 32-level loop of the scramble: full mix64 per depth, no blocking."""
    x = values_u32.astype(np.uint64)
    tree = np.asarray(tree, dtype=np.uint64)[..., None, :]
    fill = np.asarray(fill, dtype=np.uint64)[..., None, :]
    one = np.uint64(1)
    out = np.zeros(np.broadcast_shapes(tree.shape, x.shape), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for k in range(32):
            prefix = x >> np.uint64(32 - k)
            node = (one << np.uint64(k)) | prefix
            h = lds.mix64((node * lds._GOLD) ^ tree)
            digit = (x >> np.uint64(31 - k)) & one
            out |= (digit ^ (h >> np.uint64(63))) << np.uint64(63 - k)
        out |= lds.mix64((x * lds._GOLD) ^ fill) & np.uint64(0xFFFFFFFF)
    u = (out >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return np.maximum(u, 2.0**-64)


def _truncated_reference(values_u32, tree, fill, depth):
    """The scramble cut at `depth`: `depth` hashed levels, then the low
    64 - depth bits from one mix64 of the depth-digit prefix."""
    x = values_u32.astype(np.uint64)
    tree = np.asarray(tree, dtype=np.uint64)[..., None, :]
    fill = np.asarray(fill, dtype=np.uint64)[..., None, :]
    one = np.uint64(1)
    out = np.zeros(np.broadcast_shapes(tree.shape, x.shape), dtype=np.uint64)
    low = np.uint64((1 << (64 - depth)) - 1)
    with np.errstate(over="ignore"):
        for k in range(depth):
            node = (one << np.uint64(k)) | (x >> np.uint64(32 - k))
            h = lds.mix64((node * lds._GOLD) ^ tree)
            digit = (x >> np.uint64(31 - k)) & one
            out |= (digit ^ (h >> np.uint64(63))) << np.uint64(63 - k)
        prefix = x >> np.uint64(32 - depth)
        out |= lds.mix64((prefix * lds._GOLD) ^ fill) & low
    u = (out >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return np.maximum(u, 2.0**-64)


class TestScrambleKernel:
    """The blocked in-place kernel against the plain 32-level loop."""

    @pytest.mark.parametrize("m, d, lanes", [
        (1, 1, ()),            # scalar lane, one point, one dimension
        (64, 18, ()),          # scalar lane, outer-set width
        (16, 3, (7,)),         # (B,) lanes
        (8, 1, (5, 3)),        # (B, R) lanes
        (1, 18, (4, 2)),
        (16, 3, (1500,)),      # more lanes than one block holds
        (4096, 18, ()),        # more points than one block holds
        (300, 3, (40, 2)),     # (B, R) lanes split unevenly across blocks
    ])
    def test_matches_reference(self, m, d, lanes):
        rng = np.random.default_rng(m * 1000 + d)
        values = rng.integers(0, 2**32, (m, d), dtype=np.uint64).astype(np.uint32)
        roots = rng.integers(0, 2**63, lanes, dtype=np.uint64) if lanes else 99
        tree, fill = lds._owen_lanes(roots, d)
        got = lds._scramble_values(values, tree, fill, 32)
        want = _scramble_reference(values, tree, fill)
        assert got.shape == lanes + (m, d) and got.dtype == np.float64
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("depth", [0, 1, 4, 8, 31])
    def test_leading_digits_match_the_full_tree(self, depth):
        rng = np.random.default_rng(depth)
        values = rng.integers(0, 2**32, (64, 3), dtype=np.uint64).astype(np.uint32)
        roots = rng.integers(0, 2**63, (5,), dtype=np.uint64)
        tree, fill = lds._owen_lanes(roots, 3)
        got = lds._scramble_values(values, tree, fill, depth)
        full = _scramble_reference(values, tree, fill)
        np.testing.assert_array_equal(np.floor(got * 2.0**depth), np.floor(full * 2.0**depth))
        np.testing.assert_array_equal(got, _truncated_reference(values, tree, fill, depth))
        if depth == 0:  # every point of a lane gets the same 64 uniform bits
            assert np.all(got == got[:, :1]) and len(np.unique(got[:, 0])) == 15

    @pytest.mark.parametrize("m, d, lanes, depth", [
        (64, 18, (), 6),
        (16, 3, (1500,), 4),    # more lanes than one block holds
        (4096, 18, (), 12),     # more points than one block holds
        (300, 3, (40, 2), 9),
    ])
    def test_matches_truncated_reference(self, m, d, lanes, depth):
        rng = np.random.default_rng(m + d + depth)
        values = rng.integers(0, 2**32, (m, d), dtype=np.uint64).astype(np.uint32)
        roots = rng.integers(0, 2**63, lanes, dtype=np.uint64) if lanes else 5
        tree, fill = lds._owen_lanes(roots, d)
        np.testing.assert_array_equal(
            lds._scramble_values(values, tree, fill, depth),
            _truncated_reference(values, tree, fill, depth),
        )

    @pytest.mark.parametrize("depth", [-1, 33])
    def test_depth_out_of_range(self, depth):
        tree, fill = lds._owen_lanes(1, 1)
        with pytest.raises(ValueError, match="depth"):
            lds._scramble_values(np.zeros((1, 1), dtype=np.uint32), tree, fill, depth)

    @pytest.mark.parametrize("log2_m", [4, 8])
    def test_cut_tree_keeps_the_rqmc_variance(self, log2_m):
        # digits below depth log2(M) are iid under Owen's scramble, so cutting
        # the tree there leaves the variance of a smooth integral unchanged
        keys = 2000
        seq = sobol_sequence(PARAMS, 3, log2_m)
        roots = RandomizationKey(11, tag="var").subroot("owen") ^ np.arange(keys, dtype=np.uint64)
        tree, fill = lds._owen_lanes(lds.mix64(roots), 3)

        def means(depth):
            u = lds._scramble_values(seq.values, tree, fill, depth)
            return np.exp(u.sum(axis=-1)).mean(axis=-1)

        cut, full = means(log2_m), means(32)
        assert abs(cut.mean() - (math.e - 1) ** 3) < 4 * math.sqrt(cut.var() / keys)
        assert 0.85 <= cut.var() / full.var() <= 1.15

    @pytest.mark.parametrize("n", [32, 128, 512])
    def test_prefix_keeps_the_rqmc_variance(self, n):
        # the first n rows of an Owen-scrambled 2^11-point Sobol set are a
        # scrambled (t, log2 n, s)-net (Owen 1995): a smooth integral over
        # them has the variance of an independently scrambled n-point set
        keys, log2_n = 2000, n.bit_length() - 1
        seq = sobol_sequence(PARAMS, 3, 11)
        key = RandomizationKey(12, tag="prefix")
        np.testing.assert_array_equal(
            owen_scramble(seq, key).values[:n],
            lds._scramble_values(seq.values[:n], *lds._owen_lanes(key.subroot("owen"), 3), 11),
        )
        roots = key.subroot("owen") ^ np.arange(2 * keys, dtype=np.uint64)
        tree, fill = lds._owen_lanes(lds.mix64(roots), 3)
        prefix = lds._scramble_values(seq.values[:n], tree[:keys], fill[:keys], 11)
        alone = lds._scramble_values(
            sobol_sequence(PARAMS, 3, log2_n).values, tree[keys:], fill[keys:], log2_n
        )
        a, b = (np.exp(u.sum(axis=-1)).mean(axis=-1) for u in (prefix, alone))
        assert 0.85 <= a.var() / b.var() <= 1.15
        assert abs(a.mean() - b.mean()) < 4 * math.sqrt((a.var() + b.var()) / keys)
        assert abs(a.mean() - (math.e - 1) ** 3) < 4 * math.sqrt(a.var() / keys)

    @staticmethod
    def _values(kind, m, d, depth, rng):
        if kind == "chunk":  # the second m-row chunk of a 2^depth-point set
            return lds._sobol_rows(PARAMS, d, depth, m, 2 * m)
        if kind == "sobol":
            return sobol_sequence(PARAMS, d, max(m - 1, 0).bit_length()).values[:m]
        values = rng.integers(0, 2**32, (m, d), dtype=np.uint64).astype(np.uint32)
        if kind == "repeated":  # a few leading-digit prefixes, each shared by many points
            values[:, :] = values[rng.integers(0, 5, m)]
            values ^= rng.integers(0, 2**32, (m, d), dtype=np.uint64).astype(np.uint32) >> 12
        return values

    @pytest.mark.parametrize("kind, m, d, lanes, depth", [
        ("sobol", 1, 3, (), 0),            # one point: no tree levels at all
        ("sobol", 1, 18, (4, 2), 32),      # one point, every level per point
        ("random", 300, 3, (40, 2), 9),    # M not a power of two, levels 8.. per point
        ("random", 100, 2, (3,), 5),       # M not a power of two, M > 2^depth
        ("sobol", 64, 3, (700,), 4),       # M > 2^depth, lanes over two lane blocks
        ("sobol", 256, 3, (50, 3), 8),     # (B, R) lanes over four lane blocks, the last partial
        ("sobol", 16, 3, (7,), 4),         # (B,) lanes in one block
        ("repeated", 256, 3, (5,), 12),    # repeated prefixes, levels 8.. per point
        ("repeated", 256, 3, (5,), 6),     # repeated prefixes, M > 2^depth
        ("random", 64, 3, (5,), 32),       # levels 6.. and the fill per point
        ("sobol", 4096, 18, (2,), 12),     # a lane's table spans three dimension blocks
        ("sobol", 2**16, 1, (), 16),       # one dimension's table exceeds a block
        ("chunk", 4096, 18, (), 15),       # an outer chunk: 12 table levels, 3 per point
    ])
    def test_every_branch_matches_truncated_reference(self, kind, m, d, lanes, depth):
        rng = np.random.default_rng(m * 100 + depth)
        values = self._values(kind, m, d, depth, rng)
        roots = rng.integers(0, 2**63, lanes, dtype=np.uint64) if lanes else 17
        tree, fill = lds._owen_lanes(roots, d)
        got = lds._scramble_values(values, tree, fill, depth)
        assert got.shape == lanes + (m, d)
        np.testing.assert_array_equal(got, _truncated_reference(values, tree, fill, depth))

    def test_blocks_cover_extremes(self):
        # the cases above split the work every way the kernel can
        block = lds._SCRAMBLE_BLOCK
        lanes = block // (256 * 3)                   # (50, 3) lanes at M = 256
        assert 150 > 3 * lanes and 150 % lanes       # four lane blocks, the last partial
        assert block // ((block // 48) * 3) < 64     # 700 lanes, M = 64 at depth 4: row blocks
        assert block // ((block // 768) * 3) < 300   # (40, 2) lanes, M = 300: per-point row blocks
        assert block // 2**12 < 18                   # M = 4096, d = 18: dimension blocks
        assert 2**16 > block                         # one column's table exceeds a block

    @pytest.mark.parametrize("lanes, log2_m", [((4096,), 8), ((4, 32), 13)])
    def test_memory_stays_within_the_output(self, lanes, log2_m):
        import tracemalloc

        values = sobol_sequence(PARAMS, 3, log2_m).values
        tree, fill = lds._owen_lanes(np.arange(np.prod(lanes), dtype=np.uint64).reshape(lanes), 3)
        tracemalloc.start()
        try:
            out = lds._scramble_values(values, tree, fill, log2_m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + (8 << 20)

    def test_stream_digest(self):
        # any change to the scrambled stream fails here, never silently
        seq = sobol_sequence(PARAMS, 3, 6)
        tree, fill = lds._owen_lanes(RandomizationKey(1).subroot("owen"), 3)
        full = lds._scramble_values(seq.values, tree, fill, 32)
        digest = hashlib.sha256(full.tobytes()).hexdigest()
        assert digest == "0a358efe798b9ee936489486ffb1531e85cc7b616111067b8777a9b804db3f7f"
        pts = owen_scramble(seq, RandomizationKey(1))  # cut at depth 6
        digest = hashlib.sha256(pts.values.tobytes()).hexdigest()
        assert digest == "a29cdb531e846d37e261c0876f49a87aebbd4f47c8056515f056f4043d254db9"

    @pytest.mark.parametrize("lo, hi", [(0, 1), (1, 2), (5, 9), (1000, 3001), (4095, 4096)])
    def test_sobol_rows_are_slices(self, lo, hi):
        full = sobol_sequence(PARAMS, 18, 12).values
        np.testing.assert_array_equal(lds._sobol_rows(PARAMS, 18, 12, lo, hi), full[lo:hi])

    @pytest.mark.parametrize("lo, hi", [(-1, 4), (4, 4), (0, 4097)])
    def test_sobol_rows_out_of_range(self, lo, hi):
        with pytest.raises(ValueError, match="out of range"):
            lds._sobol_rows(PARAMS, 18, 12, lo, hi)

    def test_tree_tables_are_shared_read_only_up_to_the_cached_level(self):
        t = lds._TREE_CACHE_LEVELS
        assert lds._tree_order(t)[0] is lds._tree_order(t)[0]
        deep = lds._tree_order(t + 1)
        assert deep[0] is not lds._tree_order(t + 1)[0]
        for table in deep + lds._tree_order(t):
            assert not table.flags.writeable
        np.testing.assert_array_equal(deep[0][:1 << t], lds._tree_order(t)[0])

    def test_large_set_scramble_leaves_no_table_cached(self):
        lds._cached_tree_order.cache_clear()
        depth = lds._TREE_CACHE_LEVELS + 2
        owen_scramble(sobol_sequence(PARAMS, 1, depth), RandomizationKey(3))
        assert lds._cached_tree_order.cache_info().currsize == 0


def _brute_1d(points, grid=200001):
    """Sup over anchored intervals on a dense grid (independent oracle)."""
    t = np.asarray(points)
    s = np.linspace(0, 1, grid)
    counts = np.searchsorted(np.sort(t), s, side="left") / t.size
    counts_hi = np.searchsorted(np.sort(t), s, side="right") / t.size
    return max(np.max(np.abs(counts - s)), np.max(np.abs(counts_hi - s)))


class TestStarDiscrepancy:
    def test_single_midpoint(self):
        assert star_discrepancy_1d(np.array([0.5])) == pytest.approx(0.5)
        assert _brute_1d(np.array([0.5])) == pytest.approx(0.5, abs=1e-4)

    def test_two_points(self):
        assert star_discrepancy_1d(np.array([0.25, 0.75])) == pytest.approx(0.25)
        assert _brute_1d(np.array([0.25, 0.75])) == pytest.approx(0.25, abs=1e-4)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_sobol_first_block_exact(self, k):
        seq = sobol_sequence(PARAMS, 1, k)
        assert star_discrepancy_1d(seq.fractions()) == 2.0**-k

    def test_brute_agrees_with_sorted_formula(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(size=(20, 1))
        assert star_discrepancy_brute(pts) == pytest.approx(
            star_discrepancy_1d(pts), abs=1e-12
        )

    def test_brute_2d_single_point(self):
        assert star_discrepancy_brute(np.array([[0.5, 0.5]])) == pytest.approx(0.75)

    def test_brute_2d_diagonal_matches_enumeration(self):
        pts = np.array([[0.2, 0.2], [0.5, 0.5], [0.8, 0.8]])
        # hand enumeration: box [0,1)x[0,1) gives |1 - 1| = 0, box just below
        # (0.8, 0.8) holds 2/3 of the mass over volume 0.64, box at (0.5,0.5)
        # closed holds 2/3 over 0.25 etc.; the sup is 2/3 - 0.2^2 at (0.2,0.2)+
        # closed? enumerate explicitly:
        best = 0.0
        for sx in [0.2, 0.5, 0.8, 1.0]:
            for sy in [0.2, 0.5, 0.8, 1.0]:
                vol = sx * sy
                le = np.mean((pts[:, 0] <= sx) & (pts[:, 1] <= sy))
                lt = np.mean((pts[:, 0] < sx) & (pts[:, 1] < sy))
                best = max(best, le - vol, vol - lt)
        assert star_discrepancy_brute(pts) == pytest.approx(best, abs=1e-12)

    def test_size_limits_refused(self):
        with pytest.raises(ValueError, match="limited"):
            star_discrepancy_brute(np.zeros((65, 1)) + 0.5)
        with pytest.raises(ValueError, match="limited"):
            star_discrepancy_brute(np.zeros((4, 4)) + 0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            star_discrepancy_1d(np.zeros((0, 1)))


class TestRandomizationKey:
    def test_distinct_indices_distinct_streams(self):
        k = RandomizationKey(1, tag="a")
        u1 = k.child(0).uniforms(100)
        u2 = k.child(1).uniforms(100)
        assert not np.allclose(u1, u2)

    def test_uniforms_deterministic_and_in_range(self):
        k = RandomizationKey(123, tag="x", indices=(4, 5))
        u = k.uniforms((50, 3))
        np.testing.assert_array_equal(u, k.uniforms((50, 3)))
        assert np.all(u > 0) and np.all(u < 1)

    def test_uniforms_pass_ks(self):
        from scipy.stats import kstest

        u = RandomizationKey(77).uniforms(8192)
        assert kstest(u, "uniform").statistic < 0.02
