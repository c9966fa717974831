"""Neighborhood smoothing estimators against the naive reference oracles.

Equality assertions here are bitwise (np.array_equal, ==) wherever both sides
perform the same arithmetic on exact integer counts; that exactness is part
of the estimator's contract, not an accident.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from graphtree import (
    SmoothingConfig,
    ValidationError,
    column_distance_matrix,
    estimate_edge_probabilities,
    estimate_modified,
    estimate_original,
    estimation_errors,
)
from graphtree.smoothing import (
    _count_dtype,
    _counts,
    _gap_blocks,
    _pair_neighborhoods,
    _pairwise_chebyshev,
    _pairwise_sides,
    _candidate_blocks,
    _block_gaps,
    _packed_rows,
    quantile_rank,
)
import graphtree.smoothing as smoothing
from graphtree.experiments import three_group_graphon
from graphtree.sampling import edge_probabilities, sample_graph, sample_latents
from conftest import random_adjacency
import reference

# 6-node fixture used across distance tests: a path 0-1-2-3-4-5 plus chords
FIX6 = np.array(
    [
        [0, 1, 0, 0, 1, 0],
        [1, 0, 1, 0, 0, 0],
        [0, 1, 0, 1, 0, 1],
        [0, 0, 1, 0, 1, 0],
        [1, 0, 0, 1, 0, 1],
        [0, 0, 1, 0, 1, 0],
    ],
    dtype=np.int8,
)

# 8-node fixture for full-estimator parity: two loose communities
FIX8 = np.array(
    [
        [0, 1, 1, 1, 0, 0, 0, 1],
        [1, 0, 1, 1, 0, 0, 0, 0],
        [1, 1, 0, 1, 1, 0, 0, 0],
        [1, 1, 1, 0, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 1, 1, 1],
        [0, 0, 0, 0, 1, 0, 1, 1],
        [0, 0, 0, 1, 1, 1, 0, 1],
        [1, 0, 0, 0, 1, 1, 1, 0],
    ],
    dtype=np.int8,
)


class TestBandwidth:
    def test_value(self):
        assert SmoothingConfig(C=0.1).bandwidth(100) == 0.1 * math.sqrt(math.log(100) / 100)

    def test_errors(self):
        with pytest.raises(ValidationError, match="C must be positive"):
            SmoothingConfig(C=0.0)
        with pytest.raises(ValidationError, match="needs >= 3 nodes, got 1"):
            SmoothingConfig(C=0.1, variant="original").bandwidth(1)
        with pytest.raises(ValidationError, match="outside"):
            SmoothingConfig(C=50.0, variant="original").bandwidth(3)  # h lands over 1

    def test_config(self):
        cfg = SmoothingConfig(C=0.09, variant="original")
        assert cfg.bandwidth(115) == SmoothingConfig(C=0.09).bandwidth(115)
        with pytest.raises(ValidationError):
            SmoothingConfig(C=-1.0)
        with pytest.raises(ValidationError):
            SmoothingConfig(C=float("nan"))
        with pytest.raises(ValidationError):
            SmoothingConfig(variant="fancy")
        with pytest.raises(ValidationError, match="needs >= 4 nodes, got 3"):
            SmoothingConfig(C=0.5).bandwidth(3)
        with pytest.raises(ValidationError, match="needs >= 3 nodes, got 2"):
            SmoothingConfig(C=0.5, variant="original").bandwidth(2)
        with pytest.raises(ValidationError, match="outside"):
            SmoothingConfig(C=100.0).bandwidth(30)


class TestQuantileRank:
    def test_examples(self):
        assert quantile_rank(0.5, 4) == 2
        assert quantile_rank(0.01, 50) == 1  # never zero
        assert quantile_rank(SmoothingConfig(C=0.09).bandwidth(115), 113) == 3

    def test_errors(self):
        with pytest.raises(ValueError):
            quantile_rank(0.0, 5)
        with pytest.raises(ValueError):
            quantile_rank(0.5, 0)


class TestDeletedSquare:
    def test_empty_graph(self):
        a = np.zeros((5, 5), dtype=np.int8)
        assert reference.zeroed_square_counts(a, 2)[0, 1] / 5 == 0.0

    def test_complete_graph_k4(self):
        a = np.ones((4, 4), dtype=np.int8)
        np.fill_diagonal(a, 0)
        # two common neighbors of 0 and 1; removing node 3 leaves one: (2-1)/4
        assert reference.zeroed_square_counts(a, 3)[0, 1] / 4 == 0.25

    def test_bracket(self):
        # the deleted entry sits between (A^2)/n - 1/n and (A^2)/n
        rng = np.random.default_rng(2)
        a = random_adjacency(rng, 10)
        n = 10
        sq = reference.square_counts(a)
        for j in range(n):
            zeroed = reference.zeroed_square_counts(a, j)
            for i in range(n):
                for k in range(n):
                    if i == j or k == j:
                        continue
                    d = zeroed[i, k] / n
                    assert d <= sq[i, k] / n
                    # tiny slack: the two-division left side rounds separately
                    assert sq[i, k] / n - 1 / n <= d + 1e-12


def _work_buffer(x):
    """The work buffer that _gap_blocks(x) allocates, seen through its first block."""
    return next(_gap_blocks(x))[4].base


def dense_pass_gaps(a, j):
    """Integer gaps d_j(i, i2) * n of the dense modified pass for every pair at fixed j."""
    s = _counts(a)
    return _pairwise_chebyshev(reference.deleted_square_counts(s, a.astype(s.dtype), j))


class TestPairDistance:
    def test_identical_rows_give_zero(self):
        a = np.zeros((5, 5), dtype=np.int8)
        a[0, 4] = a[4, 0] = 1
        a[1, 4] = a[4, 1] = 1  # nodes 0 and 1 have identical neighborhoods
        assert reference.pair_distance(a, 0, 1, 2) == 0.0

    def test_empty_graph(self):
        a = np.zeros((6, 6), dtype=np.int8)
        assert reference.pair_distance(a, 0, 1, 2) == 0.0

    def test_fixture_matches_naive(self):
        for i, i2, j in [(0, 1, 2), (3, 5, 0), (2, 4, 1), (1, 5, 3)]:
            assert dense_pass_gaps(FIX6, j)[i, i2] / 6 == reference.pair_distance(FIX6, i, i2, j)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25)
    def test_random_matches_naive(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 10))
        a = random_adjacency(rng, n, p=float(rng.uniform(0.2, 0.8)))
        i, i2, j = (int(v) for v in rng.choice(n, size=3, replace=False))
        assert dense_pass_gaps(a, j)[i, i2] / n == reference.pair_distance(a, i, i2, j)

    def test_symmetry(self):
        assert reference.pair_distance(FIX6, 0, 3, 5) == reference.pair_distance(FIX6, 3, 0, 5)

    def test_invariant_to_row_column_j(self):
        # the whole point of the deleted matrix: information about j never
        # enters d_j, so rewriting row/column j of A changes nothing
        rng = np.random.default_rng(5)
        a = random_adjacency(rng, 8)
        j = 3
        b = a.copy()
        b[j, :] = 0
        b[:, j] = 0
        flip = rng.integers(0, 2, size=8).astype(np.int8)
        flip[j] = 0
        b[j, :] = flip
        b[:, j] = flip
        for i in range(8):
            for i2 in range(i + 1, 8):
                if j in (i, i2):
                    continue
                assert reference.pair_distance(a, i, i2, j) == reference.pair_distance(b, i, i2, j)


class TestNeighborhoods:
    def test_all_tied_includes_everyone(self):
        a = np.zeros((6, 6), dtype=np.int8)  # all distances zero
        nb = reference.pair_neighborhood(a, 0, 1, 0.2)
        assert sorted(nb) == [2, 3, 4, 5]

    def test_never_contains_endpoints_and_never_empty(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = random_adjacency(rng, 7)
            i, j = (int(v) for v in rng.choice(7, size=2, replace=False))
            nb = reference.pair_neighborhood(a, i, j, 0.3)
            assert len(nb) >= 1
            assert i not in nb and j not in nb

    def test_matches_batch_rows(self):
        rng = np.random.default_rng(7)
        a = random_adjacency(rng, 9)
        s = _counts(a)
        h = 0.3
        rank = quantile_rank(h, 9 - 2)
        for j in range(9):
            nbrs = reference.dense_pair_neighborhoods(s, a.astype(s.dtype), j, rank)
            for i in range(9):
                if i == j:
                    continue
                want = set(reference.pair_neighborhood(a, i, j, h))
                assert set(np.flatnonzero(nbrs[i])) == want

    def test_odd_n_batch_matches_per_pair_and_oracle(self):
        # n = 115 (the football network's size) is not a power of two, so
        # ties must be decided on integer count gaps, not on A^2/n floats
        rng = np.random.default_rng(15)
        n = 115
        groups = rng.integers(0, 3, size=n)
        p = np.where(groups[:, None] == groups[None, :], 0.7, 0.1)
        a = np.triu(rng.random((n, n)) < p, 1).astype(np.int8)
        a = a | a.T
        cfg = SmoothingConfig(C=0.1)
        h = cfg.bandwidth(n)
        _, sizes = estimate_modified(a, cfg, return_sizes=True)
        s = _counts(a)
        rank = quantile_rank(h, n - 2)
        for _ in range(12):
            i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
            nbrs = reference.dense_pair_neighborhoods(s, a.astype(s.dtype), j, rank)
            want = reference.pair_neighborhood(a, i, j, h)
            assert list(np.flatnonzero(nbrs[i])) == want
            assert sizes[i, j] == len(want)

    def test_invariant_to_row_column_j(self):
        rng = np.random.default_rng(8)
        a = random_adjacency(rng, 8)
        j = 5
        b = a.copy()
        flip = rng.integers(0, 2, size=8).astype(np.int8)
        flip[j] = 0
        b[j, :] = flip
        b[:, j] = flip
        for i in range(8):
            if i == j:
                continue
            assert (reference.pair_neighborhood(a, i, j, 0.4)
                    == reference.pair_neighborhood(b, i, j, 0.4))

    def test_chebyshev_matches_loops(self, monkeypatch):
        rng = np.random.default_rng(9)
        n = 7
        x = rng.integers(0, n, size=(n, n)).astype(np.int16)
        # a budget of rows * n * n values gives blocks of rows rows; rows < n
        # splits the upper triangle into blocks and mirrors the rest
        for rows in (1, 2, 3, 7):
            monkeypatch.setattr(smoothing, "_CHUNK_ELEMS", rows * n * n)
            got = _pairwise_chebyshev(x)
            assert got.dtype == np.int16
            for i in range(n):
                for i2 in range(n):
                    want = max(
                        (abs(int(x[i, k]) - int(x[i2, k])) for k in range(n) if k not in (i, i2)),
                        default=0,
                    )
                    assert got[i, i2] == want

    def test_buffer_rows_capped_at_n(self):
        # whole rows, at most n of them, while one fits; else runs of rows i2.
        # Every block is a view of the one work buffer of a call.
        for n in (5, 512, 513, 1000):
            size = _work_buffer(np.zeros((n, n), dtype=np.int16)).size
            assert n <= size <= max(n, smoothing._CHUNK_ELEMS)
            assert size % n == 0
        x = np.zeros((5, 5), dtype=np.int16)
        for signed in (False, True):
            assert len({id(t.base) for *_, t in _gap_blocks(x, signed=signed)}) == 1

    def test_buffer_allocated_before_the_first_block(self):
        # the call itself holds the buffer, so callers make it before their results
        n = 50
        x = np.zeros((n, n), dtype=np.int16)
        tracemalloc.start()
        try:
            blocks = _gap_blocks(x)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held >= n * n * n * x.itemsize
        assert _work_buffer(x).size == n * n * n
        blocks.close()

    def test_count_dtype(self):
        # every count and count gap lies in [-(n - 1), n - 1]
        assert _count_dtype(4) == np.int16
        assert _count_dtype(32767) == np.int16
        assert _count_dtype(32768) == np.int32
        assert _count_dtype(2**31 - 1) == np.int32


class TestFloat32Products:
    """_counts and the hit product of estimate_original run in float32 BLAS.

    Both are sums of 0/1 products, so they must equal the wide products
    exactly, at sizes that are not powers of two too.
    """

    @pytest.mark.parametrize("n", [115, 1000])
    def test_counts_match_int64_product(self, n):
        rng = np.random.default_rng(n)
        complete = np.ones((n, n), dtype=np.int8) - np.eye(n, dtype=np.int8)  # counts n - 2
        for a in (random_adjacency(rng, n, p=0.5), complete, np.zeros((n, n), dtype=np.int8)):
            got = _counts(a)
            assert got.dtype == np.int16
            assert np.array_equal(got, reference.square_counts(a))

    @staticmethod
    def float64_original(a, cfg):
        # estimate_original with its hit product in float64
        nbrs = smoothing._node_neighborhoods(a, cfg.bandwidth(a.shape[0]))
        g = (nbrs @ a.astype(np.float64)) / nbrs.sum(axis=1)[:, None]
        phat = 0.5 * (g + g.T)
        np.fill_diagonal(phat, 0.0)
        return phat

    @pytest.mark.parametrize("graph", ["fix8", "random300"])
    def test_original_estimate_matches_float64_product_bitwise(self, graph):
        if graph == "fix8":
            a = FIX8
        else:
            a = random_adjacency(np.random.default_rng(300), 300, p=0.3)
        cfg = SmoothingConfig(C=0.5, variant="original")
        got = estimate_original(a, cfg)
        assert got.tobytes() == self.float64_original(a, cfg).tobytes()


def dense_gaps(x):
    """t[i, i2, k] = |x[i, k] - x[i2, k]| in int64, 0 at k in {i, i2}."""
    x = x.astype(np.int64)
    t = np.abs(x[:, None, :] - x[None, :, :])
    idx = np.arange(x.shape[0])
    t[idx, :, idx] = 0
    t[:, idx, idx] = 0
    return t


def dense_sides(x):
    """(p1, gp, p2, n1, gn, n2) of B = x[i] - x[i2] and of -B over k not in {i, i2}, in int64."""
    x = x.astype(np.int64)
    idx = np.arange(x.shape[0])
    lowest = np.iinfo(np.int64).min
    out = []
    for sign in (1, -1):
        t = sign * (x[:, None, :] - x[None, :, :])
        t[idx, :, idx] = lowest
        t[:, idx, idx] = lowest
        g = t.argmax(axis=2)
        first = t.max(axis=2)
        np.put_along_axis(t, g[..., None], lowest, axis=2)
        out += [first, g, t.max(axis=2)]
    return out


class TestBlockBoundaries:
    """Every tiled stage equals its dense oracle where tiles and i2 runs split.

    With a 512-value budget, count tiles are 512 // n wide and the gap buffer
    holds one row against 512 // n rows i2, so at these n every stage splits
    in both directions and the last tile is ragged (at 50 the tiles divide n).
    """

    @pytest.fixture(autouse=True)
    def small_budget(self, monkeypatch):
        monkeypatch.setattr(smoothing, "_CHUNK_ELEMS", 1 << 9)

    @staticmethod
    def graphs(n):
        yield _three_group(n, n)
        for p in (0.05, 0.5, 0.95):
            yield random_adjacency(np.random.default_rng(n), n, p=p)

    @pytest.mark.parametrize("n", [23, 37, 50])
    def test_counts(self, n):
        for a in self.graphs(n):
            assert np.array_equal(_counts(a), reference.square_counts(a))

    @pytest.mark.parametrize("n", [23, 37, 50])
    def test_chebyshev_and_top2(self, n):
        # the top two levels of each sign of B across ragged i2 runs; the -B
        # side is the transpose of the B side
        assert _work_buffer(np.zeros((n, n), dtype=np.int16)).size < n * n
        for a in self.graphs(n):
            s = _counts(a)
            assert np.array_equal(_pairwise_chebyshev(s), dense_gaps(s).max(axis=2))
            got = _pairwise_sides(s)
            for x, want in zip(got, dense_sides(s)):
                assert x.dtype == s.dtype and np.array_equal(x, want)
            for pos, neg in zip(got[:3], got[3:]):
                assert np.array_equal(neg, pos.T)

    @pytest.mark.parametrize("n", [23, 37, 50])
    def test_signed_blocks_visit_every_ordered_pair_once(self, n, monkeypatch):
        # with B itself and the sentinel at k in {i, i2}, across runs of rows
        # i2 shorter than n and across whole row slabs with a ragged last one
        x = _counts(_three_group(n, n))
        lowest = np.iinfo(x.dtype).min
        want = x[:, None, :].astype(np.int64) - x[None, :, :]
        idx = np.arange(n)
        want[idx, :, idx] = lowest
        want[:, idx, idx] = lowest
        for budget in (smoothing._CHUNK_ELEMS, 3 * n * n):
            monkeypatch.setattr(smoothing, "_CHUNK_ELEMS", budget)
            seen = np.zeros((n, n), dtype=int)
            for lo, hi, c0, c1, t in _gap_blocks(x, signed=True):
                seen[lo:hi, c0:c1] += 1
                assert np.array_equal(t, want[lo:hi, c0:c1])
            assert np.all(seen == 1)

    @pytest.mark.parametrize("n", [23, 37, 50])
    def test_original_estimate(self, n):
        for a in self.graphs(n):
            cfg = SmoothingConfig(C=0.5, variant="original")
            h = cfg.bandwidth(n)
            nbrs = np.zeros((n, n), dtype=np.int64)
            for i in range(n):
                nbrs[i, reference.node_neighborhood(a, i, h)] = 1
            g = (nbrs @ a.astype(np.int64)) / nbrs.sum(axis=1)[:, None]
            want = 0.5 * (g + g.T)
            np.fill_diagonal(want, 0.0)
            phat, sizes = estimate_original(a, cfg, return_sizes=True)
            assert phat.tobytes() == want.tobytes()
            assert np.array_equal(sizes, nbrs.sum(axis=1))

    @pytest.mark.parametrize("n", [23, 37])
    def test_modified_estimate(self, n):
        for a in self.graphs(n):
            cfg = SmoothingConfig(C=0.5)
            phat, sizes = estimate_modified(a, cfg, return_sizes=True)
            want_phat, want_sizes = reference.dense_modified_estimate(a, cfg.bandwidth(n))
            assert phat.tobytes() == want_phat.tobytes()
            assert np.array_equal(sizes, want_sizes)


class TestMemoryBound:
    def test_original_estimate_peak_within_1_75_of_phat(self):
        """estimate_original allocates P_hat, n x n float64, and little beside it.

        Contract: the tracemalloc peak of one call is at most 1.75 times
        P_hat's 8 n^2 bytes. P_hat is the only n x n float64 the call makes;
        the (n, n) int16 counts and distances and the bool neighborhoods come
        next, and the count products, the gap buffer and the symmetrization
        work in blocks of at most _CHUNK_ELEMS values. Measured at n = 1000
        on a three-group graph.
        """
        n = 1000
        a = _three_group(n, 7)
        cfg = SmoothingConfig(C=0.1, variant="original")
        tracemalloc.start()
        try:
            estimate_original(a, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * 8 * n * n, f"peak {peak / (8 * n * n):.2f} x P_hat"


    def test_modified_estimate_peak_within_2_9_of_phat(self):
        """estimate_modified allocates P_hat as its one n x n float64.

        Contract: the tracemalloc peak of one pass is at most 2.9 times
        P_hat's 8 n^2 bytes. Besides P_hat, whose halves are averaged in
        place, the pass holds n x n arrays in the count dtype only (the
        counts, the three side levels of B, whose transposes are the levels
        of -B, the sizes and the hit counts) and the arrays of one block of
        at most _BLOCK_ELEMS entries, made for the block and freed before the
        next. Measured at 2.53 times at n = 512 on a three-group graph.
        """
        n = 512
        a = _three_group(n, 1)
        cfg = SmoothingConfig(C=0.1)
        tracemalloc.start()
        try:
            estimate_modified(a, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.9 * 8 * n * n, f"peak {peak / (8 * n * n):.2f} x P_hat"

    def test_modified_estimate_peak_on_tied_counts_within_3_25_of_phat(self):
        """Tied counts send large level sets through _wide_sets, which bounds the peak.

        Contract: on K_{256,256} with four random edges flipped, the
        tracemalloc peak of one pass is at most 3.25 times P_hat's 8 n^2
        bytes. Most pairs on one side differ in a column or two while their
        top level sets hold about half the nodes. Measured at 2.66 times;
        listing every member and ORing its packed row peaks at 4.1 times, and
        one work space grown to the largest block and reused at 2.90.
        """
        n = 512
        rng = np.random.default_rng(1)
        a = np.zeros((n, n), dtype=np.int8)
        a[:n // 2, n // 2:] = a[n // 2:, :n // 2] = 1
        for _ in range(4):
            i, j = rng.choice(n, 2, replace=False)
            a[i, j] = a[j, i] = 1 - a[i, j]
        cfg = SmoothingConfig(C=0.1)
        tracemalloc.start()
        try:
            estimate_modified(a, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.25 * 8 * n * n, f"peak {peak / (8 * n * n):.2f} x P_hat"

    def test_modified_estimate_peak_on_sparse_counts_within_4_of_phat(self):
        """On a sparse graph most counts are 0 or 1, so level sets are large and tied.

        Contract: on G(512, 3/511), mean degree 3, the tracemalloc peak of one
        pass is at most 4 times P_hat's 8 n^2 bytes. Measured at 3.68 times;
        one work space grown to the largest block and reused peaks at 4.18.
        """
        n = 512
        a = random_adjacency(np.random.default_rng(1), n, p=3 / (n - 1))
        cfg = SmoothingConfig(C=0.1)
        tracemalloc.start()
        try:
            estimate_modified(a, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.0 * 8 * n * n, f"peak {peak / (8 * n * n):.2f} x P_hat"


class TestModifiedEstimator:
    def test_complete_graph(self):
        a = np.ones((6, 6), dtype=np.int8)
        np.fill_diagonal(a, 0)
        phat = estimate_modified(a, SmoothingConfig(C=0.5))
        off = phat[~np.eye(6, dtype=bool)]
        assert np.all(off == 1.0)
        assert np.all(np.diag(phat) == 0.0)

    def test_empty_graph(self):
        a = np.zeros((6, 6), dtype=np.int8)
        assert np.all(estimate_modified(a, SmoothingConfig(C=0.5)) == 0.0)

    def test_fixture_matches_reference_bitwise(self):
        cfg = SmoothingConfig(C=0.5)
        h = cfg.bandwidth(8)
        assert np.array_equal(estimate_modified(FIX8, cfg), reference.modified_estimate(FIX8, h))

    @pytest.mark.parametrize("c", [0.3, 0.5, 1.0])
    def test_reference_gap_table_matches_per_pair_reference(self, c):
        # the oracle's per-j gap table against one pair_neighborhood per (i, j)
        h = SmoothingConfig(C=c).bandwidth(8)
        f = np.zeros((8, 8))
        for i in range(8):
            for j in range(8):
                if i != j:
                    nbhd = reference.pair_neighborhood(FIX8, i, j, h)
                    f[i, j] = sum(int(FIX8[i2, j]) for i2 in nbhd) / len(nbhd)
        want = 0.5 * (f + f.T)
        assert reference.modified_estimate(FIX8, h).tobytes() == want.tobytes()

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15)
    def test_random_matches_reference_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 11))
        a = random_adjacency(rng, n, p=float(rng.uniform(0.2, 0.8)))
        c = float(rng.uniform(0.1, 1.0))
        cfg = SmoothingConfig(C=c)
        got = estimate_modified(a, cfg)
        assert np.array_equal(got, reference.modified_estimate(a, cfg.bandwidth(n)))

    @pytest.mark.parametrize("n", [7, 9, 15])
    def test_odd_n_matches_reference_bitwise(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            a = random_adjacency(rng, n, p=float(rng.uniform(0.2, 0.8)))
            c = float(rng.uniform(0.2, 1.0))
            cfg = SmoothingConfig(C=c)
            got = estimate_modified(a, cfg)
            assert np.array_equal(got, reference.modified_estimate(a, cfg.bandwidth(n)))

    def test_sizes_by_product(self):
        cfg = SmoothingConfig(C=0.5)
        phat, sizes = estimate_modified(FIX8, cfg, return_sizes=True)
        assert np.array_equal(phat, estimate_modified(FIX8, cfg))
        h = cfg.bandwidth(8)
        want = [[len(reference.pair_neighborhood(FIX8, i, j, h)) if i != j else 0
                 for j in range(8)] for i in range(8)]
        assert np.array_equal(sizes, want)

    def test_output_invariants(self):
        rng = np.random.default_rng(10)
        a = random_adjacency(rng, 9)
        phat = estimate_modified(a, SmoothingConfig(C=0.4))
        assert np.array_equal(phat, phat.T)
        assert phat.min() >= 0.0 and phat.max() <= 1.0
        assert np.all(np.diag(phat) == 0.0)

    def test_permutation_equivariance_exact(self):
        rng = np.random.default_rng(11)
        a = random_adjacency(rng, 8)
        perm = rng.permutation(8)
        cfg = SmoothingConfig(C=0.5)
        direct = estimate_modified(a[np.ix_(perm, perm)], cfg)
        routed = estimate_modified(a, cfg)[np.ix_(perm, perm)]
        assert np.array_equal(direct, routed)

    def test_size_guard(self):
        with pytest.raises(ValidationError):
            estimate_modified(np.zeros((3, 3), dtype=np.int8), SmoothingConfig(C=0.5))

    def test_variant_guard(self):
        with pytest.raises(ValueError):
            estimate_modified(FIX8, SmoothingConfig(C=0.5, variant="original"))

    def test_neighborhood_sizes_diagnostic(self):
        _, sizes = estimate_modified(FIX8, SmoothingConfig(C=0.5), return_sizes=True)
        assert sizes.shape == (8, 8)
        assert np.all(np.diag(sizes) == 0)
        off = sizes[~np.eye(8, dtype=bool)]
        assert off.min() >= 1 and off.max() <= 6


@st.composite
def tie_heavy_graphs(draw):
    """Graphs whose count gaps tie a lot: empty, complete, stars, cliques, 0/1 blocks."""
    n = draw(st.integers(4, 40))
    kind = draw(st.sampled_from(["empty", "complete", "star", "cliques", "blocks"]))
    if kind == "empty":
        a = np.zeros((n, n), dtype=np.int8)
    elif kind == "complete":
        a = np.ones((n, n), dtype=np.int8)
    elif kind == "star":
        a = np.zeros((n, n), dtype=np.int8)
        centre = draw(st.integers(0, n - 1))
        a[centre, :] = a[:, centre] = 1
    else:
        k = draw(st.integers(1, 4))
        labels = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
        if kind == "cliques":
            v = np.eye(k, dtype=np.int8)
        else:
            v = np.array(draw(st.lists(st.integers(0, 1), min_size=k * k, max_size=k * k)),
                         dtype=np.int8).reshape(k, k)
            v = np.triu(v) | np.triu(v, 1).T
        a = v[np.ix_(labels, labels)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for i, j in draw(st.lists(pairs, max_size=3)):
        a[i, j] = a[j, i] = 1 - a[i, j]
    np.fill_diagonal(a, 0)
    return a


def _planted_partition(n, seed):
    rng = np.random.default_rng(seed)
    groups = rng.integers(0, 4, size=n)
    p = np.where(groups[:, None] == groups[None, :], 0.6, 0.15)
    np.fill_diagonal(p, 0.0)
    return sample_graph(p, seed)


def _football(n, seed):
    """Planted partition shaped like the football network at n = 115: 12 groups, 0.8 / 0.034."""
    rng = np.random.default_rng(seed)
    groups = rng.permutation(np.arange(n) % 12)
    p = np.where(groups[:, None] == groups[None, :], 0.8, 0.034)
    np.fill_diagonal(p, 0.0)
    return sample_graph(p, seed)


def _three_group(n, seed):
    latents = sample_latents(n, seed)
    return sample_graph(edge_probabilities(three_group_graphon(), latents), seed + 1)


def _fringed(n, seed):
    """A three-group core with a fringe of six nodes of degree one or two.

    Fringe nodes 0 and 1 hang off core node 0 alone, so they are twins. Node
    2 hangs off core node 0 and fringe node 3, which has no other neighbour,
    so against fringe node 0 every term of B is 0 while one column moves:
    both top level sets hold all n - 2 nodes. Nodes 4 and 5 hang off core
    node 1, and node 5 off core node 0 too.
    """
    rng = np.random.default_rng(seed)
    core = n - 6
    groups = rng.integers(0, 3, size=core)
    p = np.where(groups[:, None] == groups[None, :], 0.5, 0.1)
    np.fill_diagonal(p, 0.0)
    a = np.zeros((n, n), dtype=np.int8)
    a[:core, :core] = sample_graph(p, seed)
    f = core
    for node, nbrs in ((f, [0]), (f + 1, [0]), (f + 2, [0, f + 3]), (f + 4, [1]), (f + 5, [1, 0])):
        a[node, nbrs] = a[nbrs, node] = 1
    return a


def _spy_heavy_sides(monkeypatch):
    """Wrap smoothing._wide_sets; the list returned gets, per call, the sides that take its column test."""
    wide_sets = smoothing._wide_sets
    heavy = []

    def spy(rows_a, sets, rise):
        heavy.append(sets.shape[0])
        return wide_sets(rows_a, sets, rise)

    monkeypatch.setattr(smoothing, "_wide_sets", spy)
    return heavy


class TestBoundThenVerify:
    """The pruned modified pass against the dense per-j pass and the loop oracle."""

    @pytest.mark.parametrize("graph, n", [(graph, n) for n in (64, 65, 97, 115, 128, 129, 200, 256)
                                          for graph in (_three_group, _planted_partition)]
                             + [(_football, 115)])
    def test_matches_dense_pass_bitwise(self, graph, n):
        a = graph(n, 20 + n)
        cfg = SmoothingConfig(C=0.1)
        phat, sizes = estimate_modified(a, cfg, return_sizes=True)
        want_phat, want_sizes = reference.dense_modified_estimate(a, cfg.bandwidth(n))
        assert phat.tobytes() == want_phat.tobytes()
        assert np.array_equal(sizes, want_sizes)

    def test_wide_rows_with_a_partial_last_word_match_dense_pass_bitwise(self):
        # candidate rows wider than one 64-bit word, and n = 2 * 64 + 1, so the
        # last word of every packed row holds one column
        n = 129
        a = _planted_partition(n, 3)
        s = _counts(a)
        top = _pairwise_sides(s)
        rank = quantile_rank(SmoothingConfig(C=0.1).bandwidth(n), n - 2)
        assert max(cand.shape[1] for _, cand in _candidate_blocks(top, rank)) > 64
        cfg = SmoothingConfig(C=0.1)
        phat, sizes = estimate_modified(a, cfg, return_sizes=True)
        want_phat, want_sizes = reference.dense_modified_estimate(a, cfg.bandwidth(n))
        assert phat.tobytes() == want_phat.tobytes()
        assert np.array_equal(sizes, want_sizes)

    def test_large_level_sets_give_exact_gaps(self, monkeypatch):
        # K_{50,50} with two edges flipped: pairs on one side differ in a column
        # or two while the top level sets of B hold about half the nodes, so
        # such sides test their columns against the packed set (_wide_sets)
        n = 100
        a = np.zeros((n, n), dtype=np.int8)
        a[:50, 50:] = a[50:, :50] = 1
        a[0, 51] = a[51, 0] = 0
        a[1, 2] = a[2, 1] = 1
        heavy_sides = _spy_heavy_sides(monkeypatch)
        s = _counts(a)
        top = _pairwise_sides(s)
        gaps = _block_gaps(s, top, a.astype(bool), _packed_rows(a.astype(bool)), np.arange(n),
                           np.tile(np.arange(n), (n, 1)))
        assert sum(heavy_sides) > 0
        off = ~np.eye(n, dtype=bool)
        for j in range(n):
            keep = off.copy()
            keep[j] = keep[:, j] = False
            assert np.array_equal(gaps[:, :, j][keep], dense_pass_gaps(a, j)[keep])
        cfg = SmoothingConfig(C=0.1)
        phat, sizes = estimate_modified(a, cfg, return_sizes=True)
        want_phat, want_sizes = reference.dense_modified_estimate(a, cfg.bandwidth(n))
        assert phat.tobytes() == want_phat.tobytes()
        assert np.array_equal(sizes, want_sizes)

    def test_kept_entries_match_pair_gaps(self, monkeypatch):
        # every entry of every block the pass ranks, against pair_gap through
        # its all-pairs form zeroed_gap_table, and against pair_gap itself on
        # a seeded sample. One row per block, so the fringe rows of _fringed
        # (n = 66, two words per packed row) take _wide_sets with sides whose
        # level sets hold all n - 2 nodes.
        monkeypatch.setattr(smoothing, "_BLOCK_ELEMS", 1)
        heavy_sides = _spy_heavy_sides(monkeypatch)
        rng = np.random.default_rng(22)
        seen = dict.fromkeys(["twins", "P1 == N1", "|P1 - N1| == 1", "unique argmax of B",
                              "unique argmax of -B"], 0)
        for a in (_fringed(66, 1), _fringed(66, 2), _planted_partition(40, 3)):
            n = a.shape[0]
            ab = a.astype(bool)
            s = _counts(a)
            top = p1, gp, p2, n1, gn, n2 = _pairwise_sides(s)
            rank = quantile_rank(SmoothingConfig(C=0.1).bandwidth(n), n - 2)
            kept = []
            for rows, cand in _candidate_blocks(top, rank):
                gaps = _block_gaps(s, top, ab, _packed_rows(ab), rows, cand)
                b, c, j = np.indices(gaps.shape).reshape(3, -1)
                i, i2 = rows[b], cand[b, c]
                ok = (i2 != i) & (j != i) & (j != i2)
                kept.append((i[ok], i2[ok], j[ok], gaps[b[ok], c[ok], j[ok]]))
            i, i2, j, gap = map(np.concatenate, zip(*kept))
            for jj in range(n):
                at = j == jj
                assert np.array_equal(gap[at], reference.zeroed_gap_table(a, jj)[i[at], i2[at]])
            for e in rng.choice(i.size, size=200, replace=False):
                assert gap[e] == reference.pair_gap(a, int(i[e]), int(i2[e]), int(j[e]))
            moving = (ab[i] != ab[i2]).sum(axis=1) - 2 * ab[i, i2]
            lp, ln = p1[i, i2].astype(int), n1[i, i2].astype(int)
            seen["twins"] += np.count_nonzero(moving == 0)
            seen["P1 == N1"] += np.count_nonzero(lp == ln)
            seen["|P1 - N1| == 1"] += np.count_nonzero(abs(lp - ln) == 1)
            seen["unique argmax of B"] += np.count_nonzero((j == gp[i, i2]) & (p2[i, i2] < lp))
            seen["unique argmax of -B"] += np.count_nonzero((j == gn[i, i2]) & (n2[i, i2] < ln))
        assert all(seen.values()), seen
        assert sum(heavy_sides) > 0

    def test_wide_sets_match_the_or_of_member_rows(self):
        # wherever the rise words of a side's pair mark a column, both planes
        # of the column test must equal the OR of the side's member rows, for
        # sparse and dense sets alike. Node 0 is isolated and node 1
        # universal, so the two planes differ there.
        rng = np.random.default_rng(21)
        n, h = 100, 40
        ab = random_adjacency(rng, n, p=0.5).astype(bool)
        ab[0] = ab[:, 0] = False
        ab[1] = ab[:, 1] = True
        ab[1, 1] = False
        rows_a = _packed_rows(ab)
        density = np.where(np.arange(h) % 3 == 0, 0.05, 0.8)[:, None]
        sets = rng.random((h, n)) < density
        sets[:, 2] = True  # no empty sets: _block_gaps never reads those
        bits = np.zeros((h, 2, rows_a.shape[2] * 64), dtype=bool)
        bits[..., :n] = rng.random((h, 2, n)) < 0.3
        rise = np.packbits(bits, axis=2, bitorder="little").view(np.uint64)
        got = smoothing._wide_sets(rows_a, sets, rise)
        want = np.array([np.bitwise_or.reduce(rows_a[np.flatnonzero(t)], axis=0) for t in sets])
        marked = (rise[:, 0] | rise[:, 1])[:, None, :]
        assert np.array_equal(got & marked, want & marked)

    def test_star_gathers_member_rows_a_few_words_at_a_time(self):
        # against the hub, every leaf's top level sets hold nearly all the
        # other leaves and nearly every column moves, so those sides stay out
        # of _wide_sets and the block gathers their member rows a word at a
        # time (n = 130, three words per packed row); leaf 5's sides against
        # the other leaves move in a column or two and take _wide_sets. The
        # edge between leaves 5 and 9 breaks the symmetry.
        n = 130
        a = np.zeros((n, n), dtype=np.int8)
        a[0, 1:] = a[1:, 0] = 1
        a[5, 9] = a[9, 5] = 1
        ab = a.astype(bool)
        s = _counts(a)
        top = _pairwise_sides(s)
        rows = np.array([0, 5])
        gaps = _block_gaps(s, top, ab, _packed_rows(ab), rows, np.tile(np.arange(n), (2, 1)))
        for j in range(n):
            keep = (np.arange(n) != j)[None, :] & (rows != j)[:, None] & (np.arange(n) != rows[:, None])
            assert np.array_equal(gaps[:, :, j][keep], dense_pass_gaps(a, j)[rows][keep])

    @pytest.mark.parametrize("budget", [smoothing._BLOCK_ELEMS, 1 << 10])
    @pytest.mark.parametrize("graph, n", [(_football, 115), (_three_group, 128)])
    def test_candidate_blocks(self, graph, n, budget, monkeypatch):
        # blocks partition the rows widest first, hold every candidate the keep
        # rule of _candidate_blocks leaves and every member of a neighborhood,
        # and fit the budget, which one more row would exceed but in the last block
        monkeypatch.setattr(smoothing, "_BLOCK_ELEMS", budget)
        a = graph(n, 20 + n)
        s = _counts(a)
        top = p1, _, p2, n1, _, n2 = _pairwise_sides(s)
        rank = quantile_rank(SmoothingConfig(C=0.1).bandwidth(n), n - 2)
        d1 = np.maximum(p1, n1).astype(int)
        np.fill_diagonal(d1, n)
        cut = np.sort(d1, axis=1)[:, rank] + 2
        keep = np.maximum.reduce([np.minimum(p1, n1), p2, n2]) <= cut[:, None]
        np.fill_diagonal(keep, False)
        members = np.zeros((n, n), dtype=bool)
        for j in range(n):
            nbrs = reference.dense_pair_neighborhoods(s, a.astype(s.dtype), j, rank)
            nbrs[j] = False  # row j of the pass at j is meaningless
            members |= nbrs
        blocks = list(_candidate_blocks(top, rank))
        order = np.concatenate([rows for rows, _ in blocks])
        assert np.array_equal(order, np.argsort(-keep.sum(axis=1), kind="stable"))
        for rows, cand in blocks:
            assert rows.size == 1 or rows.size * n * cand.shape[1] <= budget
            for i, row in zip(rows, cand):
                assert sorted(row[row != i]) == list(np.flatnonzero(keep[i]))
            assert not (members[rows] & ~keep[rows]).any()
        for rows, cand in blocks[:-1]:
            assert (rows.size + 1) * n * cand.shape[1] > budget

    @given(tie_heavy_graphs(), st.sampled_from([0.1, 0.5, 1.0]))
    @settings(max_examples=20)
    def test_tie_heavy_graphs_match_reference(self, a, c):
        cfg = SmoothingConfig(C=c)
        assert np.array_equal(estimate_modified(a, cfg),
                              reference.modified_estimate(a, cfg.bandwidth(a.shape[0])))

    def test_top2_matches_loops(self, monkeypatch):
        # the top two levels of B and of -B, with their first argmaxes
        rng = np.random.default_rng(16)
        n = 9
        x = rng.integers(0, 4, size=(n, n)).astype(np.int16)
        # a budget of rows * n * n values gives blocks of rows rows; rows < n
        # splits the ordered pairs into blocks; the -B side of (i, i2) is the
        # B side of (i2, i)
        for rows in (1, 4, 9):
            monkeypatch.setattr(smoothing, "_CHUNK_ELEMS", rows * n * n)
            p1, gp, p2, n1, gn, n2 = _pairwise_sides(x)
            for pos, neg in ((p1, n1), (gp, gn), (p2, n2)):
                assert np.array_equal(neg, pos.T)
            for i in range(n):
                for i2 in range(n):
                    ks = [k for k in range(n) if k not in (i, i2)]
                    b = [int(x[i, k]) - int(x[i2, k]) for k in ks]
                    for sign, (first, arg, second) in ((1, (p1, gp, p2)), (-1, (n1, gn, n2))):
                        terms = [sign * v for v in b]
                        top = max(terms)
                        g = ks[terms.index(top)]
                        assert (first[i, i2], arg[i, i2]) == (top, g)
                        assert second[i, i2] == max(t for k, t in zip(ks, terms) if k != g)

    @staticmethod
    def _triples(seeds=range(12), n=8):
        """Every (i, i2, j) of small seeded graphs with its side levels and the reference gap.

        Yields (a, s, top, i, i2, j, lp, ln, delta, gap) with arrays over the
        pairwise distinct triples; lp and ln are the side levels with column j
        left out. Nodes 0 and 1 share their neighbours apart from 0 ~ 2 and
        1 ~ 3, and 2 and 3 share theirs apart from those two edges, so the
        rows 0 and 1 of A @ A are identical off {0, 1} (B is 0) while A[0, 2]
        and A[1, 2] differ.
        """
        for seed in seeds:
            rng = np.random.default_rng(seed)
            a = random_adjacency(rng, n, p=float(rng.uniform(0.2, 0.8)))
            a[:4] = a[:, :4] = 0
            for u, v in ((0, 1), (2, 3)):
                shared = np.flatnonzero(rng.random(n - 4) < 0.5) + 4
                a[[u, v], shared[:, None]] = a[shared[:, None], [u, v]] = 1
            a[0, 2] = a[2, 0] = a[1, 3] = a[3, 1] = 1
            s = _counts(a)
            top = p1, gp, p2, n1, gn, n2 = _pairwise_sides(s)
            i, i2, j = (t.ravel() for t in np.meshgrid(*[np.arange(n)] * 3, indexing="ij"))
            ok = (i != i2) & (i != j) & (i2 != j)
            i, i2, j = i[ok], i2[ok], j[ok]
            lp = np.where(j == gp[i, i2], p2[i, i2], p1[i, i2]).astype(int)
            ln = np.where(j == gn[i, i2], n2[i, i2], n1[i, i2]).astype(int)
            delta = a[i, j].astype(int) - a[i2, j]
            gap = np.array([reference.pair_gap(a, *map(int, e)) for e in zip(i, i2, j)])
            yield a, s, top, i, i2, j, lp, ln, delta, gap

    def test_interval_holds_gap(self):
        # d_j lies in [max(P' - [delta > 0], N' - [delta < 0]), max(P' + [delta < 0], N' + [delta > 0])]
        for _, _, _, _, _, _, lp, ln, delta, gap in self._triples():
            low = np.maximum(lp - (delta > 0), ln - (delta < 0))
            high = np.maximum(lp + (delta < 0), ln + (delta > 0))
            assert np.all((low <= gap) & (gap <= high))
            assert np.array_equal(high - low, (delta != 0).astype(int))

    def test_block_gaps_are_exact(self):
        # every (i, j, i2) as one block of all rows, each padded with i itself;
        # at a side's unique argmax j the other side's value stands, or, where
        # P2 reaches it, d_j is read from the row: both occur
        identical_rows = other_stands = row_read = 0
        for a, s, top, i, i2, j, lp, ln, delta, gap in self._triples():
            p1, gp, p2, n1, gn, n2 = top
            n = a.shape[0]
            # each side's value with column j left out
            moved = s[i].astype(int) - s[i2] - delta[:, None] * a[j]
            off = np.ones(moved.shape, dtype=bool)
            off[np.arange(j.size)[:, None], np.stack([i, i2, j], axis=1)] = False
            vp, vn = (np.where(off, sign * moved, -n).max(axis=1) for sign in (1, -1))
            assert np.array_equal(np.maximum(vp, vn), gap)
            for arg, first, second, other in ((gp, p1, p2, vn), (gn, n1, n2, vp)):
                unique = (j == arg[i, i2]) & (second[i, i2] < first[i, i2])
                other_stands += np.count_nonzero(unique & (second[i, i2] < other))
                row_read += np.count_nonzero(unique & (second[i, i2] >= other))
            cand = np.tile(np.arange(n), (n, 1))
            gaps = _block_gaps(s, top, a.astype(bool), _packed_rows(a.astype(bool)),
                               np.arange(n), cand)
            assert gaps.shape == (n, n, n) and gaps.dtype == s.dtype
            assert np.array_equal(gaps[i, i2, j], gap)
            big = np.iinfo(s.dtype).max
            assert np.all(gaps[np.arange(n), np.arange(n)] == big)  # padding i2 == i
            assert np.all(gaps[:, np.arange(n), np.arange(n)] == big)  # j == i2
            identical_rows += np.count_nonzero((p1[i, i2] == 0) & (n1[i, i2] == 0))
        assert identical_rows and other_stands and row_read


class TestOriginalEstimator:
    def test_complete_graph(self):
        # per-node neighborhoods contain j, so the column average picks up the
        # zero diagonal entry A[j, j]: (3 ones + 1 zero) / 4, not 1.0 -- the
        # endpoint leak the per-pair variant removes
        a = np.ones((5, 5), dtype=np.int8)
        np.fill_diagonal(a, 0)
        phat = estimate_original(a, SmoothingConfig(C=0.5, variant="original"))
        assert np.all(phat[~np.eye(5, dtype=bool)] == 0.75)

    def test_empty_graph(self):
        a = np.zeros((5, 5), dtype=np.int8)
        assert np.all(estimate_original(a, SmoothingConfig(C=0.5, variant="original")) == 0.0)

    def test_fixture_matches_reference_bitwise(self):
        cfg = SmoothingConfig(C=0.5, variant="original")
        h = cfg.bandwidth(8)
        assert np.array_equal(
            estimate_original(FIX8, cfg), reference.original_estimate(FIX8, h)
        )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15)
    def test_random_matches_reference_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 11))
        a = random_adjacency(rng, n, p=float(rng.uniform(0.2, 0.8)))
        c = float(rng.uniform(0.1, 1.0))
        cfg = SmoothingConfig(C=c, variant="original")
        got = estimate_original(a, cfg)
        assert np.array_equal(got, reference.original_estimate(a, cfg.bandwidth(n)))

    @pytest.mark.parametrize("n", [7, 9, 15])
    def test_odd_n_matches_reference_bitwise(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(3):
            a = random_adjacency(rng, n, p=float(rng.uniform(0.2, 0.8)))
            c = float(rng.uniform(0.2, 1.0))
            cfg = SmoothingConfig(C=c, variant="original")
            got = estimate_original(a, cfg)
            assert np.array_equal(got, reference.original_estimate(a, cfg.bandwidth(n)))

    def test_sizes_by_product(self):
        cfg = SmoothingConfig(C=0.5, variant="original")
        phat, sizes = estimate_edge_probabilities(FIX8, cfg, return_sizes=True)
        assert np.array_equal(phat, estimate_original(FIX8, cfg))
        h = cfg.bandwidth(8)
        want = [len(reference.node_neighborhood(FIX8, i, h)) for i in range(8)]
        assert np.array_equal(sizes, want)

    def test_size_guard(self):
        with pytest.raises(ValidationError):
            estimate_original(np.zeros((2, 2), dtype=np.int8),
                              SmoothingConfig(C=0.5, variant="original"))

    def test_sizes_diagnostic(self):
        cfg = SmoothingConfig(C=0.5, variant="original")
        _, sizes = estimate_original(FIX8, cfg, return_sizes=True)
        assert sizes.shape == (8,)
        assert sizes.min() >= 1

    def test_dispatch(self):
        mod = estimate_edge_probabilities(FIX8, SmoothingConfig(C=0.5))
        orig = estimate_edge_probabilities(FIX8, SmoothingConfig(C=0.5, variant="original"))
        assert np.array_equal(mod, estimate_modified(FIX8, SmoothingConfig(C=0.5)))
        assert not np.array_equal(mod, orig)


class TestColumnDistances:
    def test_identical_columns(self):
        a = np.zeros((4, 4), dtype=np.int8)
        d = column_distance_matrix(a)
        assert np.all(d == 0.0)

    def test_hand_value(self):
        # node 0 isolated, nodes 1 and 2 connected to each other: columns
        # differ in two coordinates, distance sqrt(2)
        a = np.zeros((3, 3), dtype=np.int8)
        a[1, 2] = a[2, 1] = 1
        assert column_distance_matrix(a)[1, 2] == math.sqrt(2)

    def test_matches_reference(self):
        rng = np.random.default_rng(12)
        a = random_adjacency(rng, 7)
        assert np.allclose(column_distance_matrix(a), reference.column_distances(a), atol=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(13)
        a = random_adjacency(rng, 6)
        d = column_distance_matrix(a)
        for i in range(6):
            for j in range(6):
                for k in range(6):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-12


class TestEstimationErrors:
    def test_zero(self):
        p = np.full((4, 4), 0.5)
        np.fill_diagonal(p, 0.0)
        e = estimation_errors(p, p)
        assert e.max_norm == 0.0 and e.mse == 0.0

    def test_constant_offset(self):
        p = np.zeros((4, 4))
        q = np.full((4, 4), 0.1)
        np.fill_diagonal(q, 0.0)
        assert estimation_errors(q, p).max_norm == 0.1

    def test_matches_reference(self):
        rng = np.random.default_rng(14)
        a = rng.random((5, 5))
        b = rng.random((5, 5))
        e = estimation_errors(a, b)
        mx, mse = reference.estimation_errors(a, b)
        assert e.max_norm == mx
        assert e.mse == pytest.approx(mse, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            estimation_errors(np.zeros((3, 3)), np.zeros((4, 4)))
