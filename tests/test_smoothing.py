"""Neighborhood smoothing estimators against the naive reference oracles.

Equality assertions here are bitwise (np.array_equal, ==) wherever both sides
perform the same arithmetic on exact integer counts; that exactness is part
of the estimator's contract, not an accident.
"""

import math

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
    _chebyshev_buffer,
    _count_dtype,
    _counts,
    _exact_gaps,
    _pair_neighborhoods,
    _pairwise_chebyshev,
    _pairwise_top2,
    _square_counts,
    quantile_rank,
)
import graphtree.smoothing as smoothing
from graphtree.experiments import three_group_graphon
from graphtree.sampling import edge_probabilities, sample_graph, sample_latents
from conftest import random_adjacency
import reference
from reference import deleted_square_entry, neighborhood_of_pair, pair_distance_dj

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
        sq = _square_counts(a)
        assert deleted_square_entry(sq, a, 2, 0, 1) == 0.0

    def test_complete_graph_k4(self):
        a = np.ones((4, 4), dtype=np.int8)
        np.fill_diagonal(a, 0)
        sq = _square_counts(a)
        # two common neighbors of 0 and 1; removing node 3 leaves one: (2-1)/4
        assert deleted_square_entry(sq, a, 3, 0, 1) == 0.25

    def test_matches_naive_on_random_draws(self):
        rng = np.random.default_rng(0)
        a = random_adjacency(rng, 12)
        sq = _square_counts(a)
        for _ in range(100):
            i, k, j = rng.choice(12, size=3, replace=False)
            want = reference.zeroed_square_over_n(a, j)[i, k]
            assert deleted_square_entry(sq, a, int(j), int(i), int(k)) == want

    def test_matrix_form_matches_entry_form(self):
        rng = np.random.default_rng(1)
        a = random_adjacency(rng, 9)
        s = _counts(a)
        sq = _square_counts(a)
        for j in range(9):
            r = reference.deleted_square_counts(s, a.astype(s.dtype), j)
            assert r.dtype == np.int16
            assert np.all(r[:, j] == 0)
            keep = np.arange(9) != j
            want = reference.zeroed_square_counts(a, j)
            assert np.array_equal(r[np.ix_(keep, keep)], want[np.ix_(keep, keep)])
            for i in range(9):
                for k in range(9):
                    if i != j and k != j:
                        assert r[i, k] / 9 == deleted_square_entry(sq, a, j, i, k)

    def test_bracket(self):
        # the deleted entry sits between (A^2)/n - 1/n and (A^2)/n
        rng = np.random.default_rng(2)
        a = random_adjacency(rng, 10)
        n = 10
        sq = _square_counts(a)
        for j in range(n):
            for i in range(n):
                for k in range(n):
                    if i == j or k == j:
                        continue
                    d = deleted_square_entry(sq, a, j, i, k)
                    assert d <= sq[i, k] / n
                    # tiny slack: the two-division left side rounds separately
                    assert sq[i, k] / n - 1 / n <= d + 1e-12

    def test_index_errors(self):
        a = random_adjacency(np.random.default_rng(3), 5)
        sq = _square_counts(a)
        with pytest.raises(ValueError):
            deleted_square_entry(sq, a, 2, 2, 1)
        with pytest.raises(ValueError):
            deleted_square_entry(sq, a, 2, 1, 2)
        with pytest.raises(ValueError):
            deleted_square_entry(sq, a, 2, 1, 7)


class TestPairDistance:
    def test_identical_rows_give_zero(self):
        a = np.zeros((5, 5), dtype=np.int8)
        a[0, 4] = a[4, 0] = 1
        a[1, 4] = a[4, 1] = 1  # nodes 0 and 1 have identical neighborhoods
        assert pair_distance_dj(a, 0, 1, 2) == 0.0

    def test_empty_graph(self):
        a = np.zeros((6, 6), dtype=np.int8)
        assert pair_distance_dj(a, 0, 1, 2) == 0.0

    def test_fixture_matches_naive(self):
        for i, i2, j in [(0, 1, 2), (3, 5, 0), (2, 4, 1), (1, 5, 3)]:
            assert pair_distance_dj(FIX6, i, i2, j) == reference.pair_distance(FIX6, i, i2, j)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25)
    def test_random_matches_naive(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 10))
        a = random_adjacency(rng, n, p=float(rng.uniform(0.2, 0.8)))
        i, i2, j = (int(v) for v in rng.choice(n, size=3, replace=False))
        assert pair_distance_dj(a, i, i2, j) == reference.pair_distance(a, i, i2, j)

    def test_symmetry(self):
        assert pair_distance_dj(FIX6, 0, 3, 5) == pair_distance_dj(FIX6, 3, 0, 5)

    def test_errors(self):
        a = random_adjacency(np.random.default_rng(4), 3)
        with pytest.raises(ValueError):
            pair_distance_dj(a, 0, 1, 2)  # n < 4
        with pytest.raises(ValueError):
            pair_distance_dj(FIX6, 0, 0, 2)

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
                assert pair_distance_dj(a, i, i2, j) == pair_distance_dj(b, i, i2, j)


class TestNeighborhoods:
    def test_all_tied_includes_everyone(self):
        a = np.zeros((6, 6), dtype=np.int8)  # all distances zero
        nb = neighborhood_of_pair(a, 0, 1, 0.2)
        assert sorted(nb) == [2, 3, 4, 5]

    def test_never_contains_endpoints_and_never_empty(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = random_adjacency(rng, 7)
            i, j = (int(v) for v in rng.choice(7, size=2, replace=False))
            nb = neighborhood_of_pair(a, i, j, 0.3)
            assert len(nb) >= 1
            assert i not in nb and j not in nb

    def test_matches_batch_rows(self):
        rng = np.random.default_rng(7)
        a = random_adjacency(rng, 9)
        s = _counts(a)
        buf = _chebyshev_buffer(9, s.dtype)
        h = 0.3
        rank = quantile_rank(h, 9 - 2)
        for j in range(9):
            nbrs = reference.dense_pair_neighborhoods(s, a.astype(s.dtype), j, rank, buf)
            for i in range(9):
                if i == j:
                    continue
                want = set(neighborhood_of_pair(a, i, j, h))
                assert want == set(reference.pair_neighborhood(a, i, j, h))
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
        buf = _chebyshev_buffer(n, s.dtype)
        rank = quantile_rank(h, n - 2)
        for _ in range(12):
            i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
            nbrs = reference.dense_pair_neighborhoods(s, a.astype(s.dtype), j, rank, buf)
            want = reference.pair_neighborhood(a, i, j, h)
            assert list(neighborhood_of_pair(a, i, j, h)) == want
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
            assert np.array_equal(
                neighborhood_of_pair(a, i, j, 0.4), neighborhood_of_pair(b, i, j, 0.4)
            )

    def test_chebyshev_matches_loops(self):
        rng = np.random.default_rng(9)
        n = 7
        x = rng.integers(0, n, size=(n, n)).astype(np.int16)
        # rows < n splits the upper triangle into blocks and mirrors the rest
        for rows in (1, 2, 3, 7):
            got = _pairwise_chebyshev(x, np.empty(rows * n * n, dtype=np.int16))
            assert got.dtype == np.int16
            for i in range(n):
                for i2 in range(n):
                    want = max(
                        (abs(int(x[i, k]) - int(x[i2, k])) for k in range(n) if k not in (i, i2)),
                        default=0,
                    )
                    assert got[i, i2] == want

    def test_chebyshev_buffer_reused_across_calls(self):
        rng = np.random.default_rng(10)
        buf = np.empty(2 * 6 * 6, dtype=np.int16)
        xs = [rng.integers(0, 6, size=(6, 6)).astype(np.int16) for _ in range(3)]
        fresh = [_pairwise_chebyshev(x, _chebyshev_buffer(6, np.int16)) for x in xs]
        for x, want in zip(xs, fresh):
            assert np.array_equal(_pairwise_chebyshev(x, buf), want)

    def test_buffer_rows_capped_at_n(self):
        assert _chebyshev_buffer(5, np.int16).shape == (5 * 5 * 5,)
        assert _chebyshev_buffer(1000, np.int16).shape == (1000 * 1000,)

    def test_count_dtype(self):
        # every count and count gap lies in [-(n - 1), n - 1]
        assert _count_dtype(4) == np.int16
        assert _count_dtype(32767) == np.int16
        assert _count_dtype(32768) == np.int32
        assert _count_dtype(2**31 - 1) == np.int32
        assert _count_dtype(2**31) == np.int64


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


def _three_group(n, seed):
    latents = sample_latents(n, seed)
    return sample_graph(edge_probabilities(three_group_graphon(), latents), seed + 1)


class TestBoundThenVerify:
    """The pruned modified pass against the dense per-j pass and the loop oracle."""

    @pytest.mark.parametrize("n", [97, 115, 128, 200, 256])
    @pytest.mark.parametrize("graph", [_three_group, _planted_partition])
    def test_matches_dense_pass_bitwise(self, n, graph):
        a = graph(n, 20 + n)
        cfg = SmoothingConfig(C=0.1)
        phat, sizes = estimate_modified(a, cfg, return_sizes=True)
        want_phat, want_sizes = reference.dense_modified_estimate(a, cfg.bandwidth(n))
        assert phat.tobytes() == want_phat.tobytes()
        assert np.array_equal(sizes, want_sizes)

    @given(tie_heavy_graphs(), st.sampled_from([0.1, 0.5, 1.0]))
    @settings(max_examples=20)
    def test_tie_heavy_graphs_match_reference(self, a, c):
        cfg = SmoothingConfig(C=c)
        assert np.array_equal(estimate_modified(a, cfg),
                              reference.modified_estimate(a, cfg.bandwidth(a.shape[0])))

    def test_top2_matches_loops(self):
        rng = np.random.default_rng(16)
        n = 9
        x = rng.integers(0, 4, size=(n, n)).astype(np.int16)
        for rows in (1, 4, 9):
            d1, g, d2 = _pairwise_top2(x, np.empty(rows * n * n, dtype=np.int16))
            for i in range(n):
                for i2 in range(n):
                    ks = [k for k in range(n) if k not in (i, i2)]
                    gaps = [abs(int(x[i, k]) - int(x[i2, k])) for k in ks]
                    assert d1[i, i2] == max(gaps, default=0)
                    if d1[i, i2] > 0:
                        assert g[i, i2] == ks[gaps.index(d1[i, i2])]
                        rest = [gap for k, gap in zip(ks, gaps) if k != g[i, i2]]
                        assert d2[i, i2] == max(rest, default=0)
                    else:
                        assert d2[i, i2] == 0

    @staticmethod
    def _entries(branch, monkeypatch):
        """Every (i, i2, j) of small seeded graphs where branch holds, checked with the scan spied.

        branch(d1, g, d2, v, delta, j) is evaluated on all triples at once,
        where v is the argmax term |B[g] - delta * A[j, g]|. Returns the
        number of matching entries and how many _exact_gaps sent to the scan.
        """
        scanned = []
        scan = smoothing._scan_gaps

        def spy(s, ai, i, *rest):
            scanned.append(i.size)
            return scan(s, ai, i, *rest)

        monkeypatch.setattr(smoothing, "_scan_gaps", spy)
        found = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = 8
            a = random_adjacency(rng, n, p=float(rng.uniform(0.2, 0.8)))
            s = _counts(a)
            ai = a.astype(s.dtype)
            top = _pairwise_top2(s, _chebyshev_buffer(n, s.dtype))
            i, i2, j = (t.ravel() for t in np.meshgrid(*[np.arange(n)] * 3, indexing="ij"))
            ok = (i != i2) & (i != j) & (i2 != j)
            i, i2, j = i[ok], i2[ok], j[ok]
            d1, g, d2 = (t[i, i2].astype(int) for t in top)
            delta = ai[i, j].astype(int) - ai[i2, j]
            v = np.abs(s[i, g].astype(int) - s[i2, g] - delta * ai[j, g])
            sel = np.flatnonzero(branch(d1, g, d2, v, delta, j))
            if not sel.size:
                continue
            found += sel.size
            got = _exact_gaps(s, ai, top, i[sel], i2[sel], j[sel])
            want = [reference.pair_gap(a, *map(int, e)) for e in zip(i[sel], i2[sel], j[sel])]
            assert got.tolist() == want
        return found, sum(scanned)

    def test_unique_argmax_is_deleted_column(self, monkeypatch):
        # j == g: M = D2, exact when A[i, j] == A[i2, j], within one otherwise
        for same in (True, False):
            found, scanned = self._entries(
                lambda d1, g, d2, v, delta, j: (d2 < d1) & (g == j) & ((delta == 0) == same),
                monkeypatch)
            assert found and scanned == found
        rng = np.random.default_rng(4)
        a = random_adjacency(rng, 8)
        s = _counts(a)
        top = d1, g, d2 = _pairwise_top2(s, _chebyshev_buffer(8, s.dtype))
        m = smoothing._bound_centers(top, np.arange(8)[:, None], np.tile(np.arange(8), (8, 1)))
        for i in range(8):
            for i2 in range(8):
                for j in range(8):
                    if len({i, i2, j}) < 3:
                        continue
                    centre = d2[i, i2] if d2[i, i2] < d1[i, i2] and g[i, i2] == j else d1[i, i2]
                    assert m[i, j, i2] == centre
                    gap = reference.pair_gap(a, i, i2, j)
                    if a[i, j] == a[i2, j]:
                        assert gap == centre
                    else:
                        assert centre - 1 <= gap <= centre + 1

    @pytest.mark.parametrize("step", [1, 0, -1])
    def test_unique_argmax_settles_in_constant_time(self, monkeypatch, step):
        # v is M + 1, M or M - 1 (the last only with D2 <= M - 2): no scan
        found, scanned = self._entries(
            lambda d1, g, d2, v, delta, j: (d2 < d1) & (g != j) & (v == d1 + step)
            & ((step >= 0) | (d2 <= d1 - 2)),
            monkeypatch)
        assert found and scanned == 0

    def test_second_gap_one_below_falls_through_to_scan(self, monkeypatch):
        found, scanned = self._entries(
            lambda d1, g, d2, v, delta, j: (d2 == d1 - 1) & (g != j) & (v == d1 - 1),
            monkeypatch)
        assert found and scanned == found

    def test_identical_rows_are_scanned(self, monkeypatch):
        # D1 = 0: no unique argmax; the gap is 1 exactly when A[i, j] != A[i2, j]
        # and j has a neighbour outside {i, i2}
        found, scanned = self._entries(lambda d1, g, d2, v, delta, j: d1 == 0, monkeypatch)
        assert found and scanned == found


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
