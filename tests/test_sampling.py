"""W-random graph sampling, exact tiny-graph probabilities, density checks."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from graphtree import (
    BlockPartition,
    StepGraphon,
    derive_seed,
    edge_probabilities,
    sample_graph,
    sample_latents,
)
from graphtree.sampling import check_adjacency, check_edge_probabilities
from graphtree.experiments import three_group_graphon
from conftest import random_step_graphon, step_graphons
from reference import (
    MAX_EXACT_NODES,
    MeasurePreservingMap,
    exact_graph_probability,
    pullback,
    rho_dense_check,
)


def constant_graphon(alpha):
    return StepGraphon(BlockPartition((0.0, 1.0)), np.array([[alpha]]))


def all_graphs(n):
    """Every labeled simple graph on n nodes as an adjacency matrix."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in itertools.product([0, 1], repeat=len(pairs)):
        a = np.zeros((n, n), dtype=np.int8)
        for (i, j), b in zip(pairs, bits):
            a[i, j] = a[j, i] = b
        yield a


class TestLatents:
    def test_range_and_length(self):
        s = sample_latents(1, 42)
        assert s.shape == (1,) and 0.0 <= s[0] <= 1.0

    def test_determinism(self):
        a = sample_latents(10, 7)
        b = sample_latents(10, 7)
        assert np.array_equal(a, b)

    def test_seed_sensitivity(self):
        assert not np.array_equal(sample_latents(10, 1), sample_latents(10, 2))

    def test_mean_in_clt_band(self):
        pts = sample_latents(10_000, 123)
        band = 4 * (1 / np.sqrt(12)) / 100  # 4 sigma of the mean of 1e4 uniforms
        assert abs(pts.mean() - 0.5) < band

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            sample_latents(0, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            edge_probabilities(constant_graphon(0.5), np.array([0.5, 1.2]))
        with pytest.raises(ValueError):
            edge_probabilities(constant_graphon(0.5), np.array([0.2, np.nan]))


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(1, 64, 0) == derive_seed(1, 64, 0)
        assert derive_seed(1, 64, 0) != derive_seed(1, 64, 1)
        assert derive_seed(1, 64, 0) != derive_seed(2, 64, 0)

    def test_range(self):
        s = derive_seed(3, 128, 1)
        assert 0 <= s < 2**64


class TestEdgeProbabilities:
    def test_constant(self):
        p = edge_probabilities(constant_graphon(0.3), sample_latents(5, 0))
        off = p[~np.eye(5, dtype=bool)]
        assert np.all(off == 0.3)
        assert np.all(np.diag(p) == 0.0)

    def test_cross_block_zero(self):
        w = StepGraphon(BlockPartition((0.0, 0.5, 1.0)), np.array([[1.0, 0.0], [0.0, 1.0]]))
        p = edge_probabilities(w, np.array([0.2, 0.7]))
        assert p[0, 1] == 0.0

    def test_same_group_value(self):
        p = edge_probabilities(three_group_graphon(), np.array([0.05, 0.1]))
        assert p[0, 1] == 0.7

    def test_result_is_a_fresh_writable_array(self):
        # the graphon's values are read-only; the result shares no memory with them
        w = three_group_graphon()
        p = edge_probabilities(w, sample_latents(20, 3))
        assert not np.shares_memory(p, w.values)
        assert p.flags.writeable and not w.values.flags.writeable

    def test_checker_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            check_edge_probabilities(np.array([[0.0, 0.5], [0.4, 0.0]]))
        with pytest.raises(ValueError):
            check_edge_probabilities(np.array([[0.5, 0.5], [0.5, 0.0]]))
        with pytest.raises(ValueError):
            check_edge_probabilities(np.full((2, 3), 0.5))
        with pytest.raises(ValueError):
            check_edge_probabilities(np.array([[0.0, 1.5], [1.5, 0.0]]))
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):  # not "symmetric"
            check_edge_probabilities(np.array([[0.0, np.nan], [np.nan, 0.0]]))


class TestSampleGraph:
    def test_extremes(self):
        zeros = np.zeros((6, 6))
        assert sample_graph(zeros, 1).sum() == 0
        ones = np.ones((6, 6))
        np.fill_diagonal(ones, 0.0)
        a = sample_graph(ones, 1)
        assert a.sum() == 6 * 5

    def test_shape_and_symmetry(self):
        p = np.full((5, 5), 0.5)
        np.fill_diagonal(p, 0.0)
        a = sample_graph(p, 3)
        check_adjacency(a)
        assert a.dtype == np.int8

    def test_determinism(self):
        p = np.full((10, 10), 0.4)
        np.fill_diagonal(p, 0.0)
        assert np.array_equal(sample_graph(p, 9), sample_graph(p, 9))
        assert not np.array_equal(sample_graph(p, 9), sample_graph(p, 10))

    def test_edge_count_binomial_band(self):
        n = 200
        p = np.full((n, n), 0.3)
        np.fill_diagonal(p, 0.0)
        m = n * (n - 1) // 2
        edges = sample_graph(p, 11).sum() / 2
        assert abs(edges - 0.3 * m) <= 4 * np.sqrt(m * 0.3 * 0.7)

    def test_edge_frequency_calibration(self):
        p = np.array(
            [
                [0.0, 0.2, 0.5, 0.8],
                [0.2, 0.0, 0.9, 0.1],
                [0.5, 0.9, 0.0, 0.4],
                [0.8, 0.1, 0.4, 0.0],
            ]
        )
        trials = 1500
        freq = np.zeros_like(p)
        for s in range(trials):
            freq += sample_graph(p, s)
        freq /= trials
        sigma = np.sqrt(p * (1 - p) / trials)
        assert np.all(np.abs(freq - p) <= 4 * sigma + 1e-12)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            sample_graph(np.array([[0.0, 0.5], [0.6, 0.0]]), 0)


class TestExactGraphProbability:
    def test_constant_two_nodes(self):
        w = constant_graphon(0.3)
        edge = np.array([[0, 1], [1, 0]], dtype=np.int8)
        none = np.zeros((2, 2), dtype=np.int8)
        assert exact_graph_probability(w, edge) == 0.3
        assert exact_graph_probability(w, none) == 1 - 0.3

    def test_three_node_probabilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        w = random_step_graphon(rng)
        total = sum(exact_graph_probability(w, a) for a in all_graphs(3))
        assert abs(total - 1.0) <= 1e-12

    def test_two_block_hand_value(self):
        # one node per block, one edge: p = sum over assignments; with both
        # latents free the edge probability integrates the value matrix
        w = StepGraphon(BlockPartition((0.0, 0.5, 1.0)), np.array([[1.0, 0.0], [0.0, 1.0]]))
        edge = np.array([[0, 1], [1, 0]], dtype=np.int8)
        # P(edge) = P(same block) * 1 + P(different blocks) * 0 = 0.5
        assert exact_graph_probability(w, edge) == pytest.approx(0.5, abs=1e-15)

    def test_weak_isomorphism_under_stretch(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            w = random_step_graphon(rng, max_blocks=3)
            wp = pullback(w, MeasurePreservingMap.stretch_mod(2))
            for a in all_graphs(3):
                assert abs(
                    exact_graph_probability(w, a) - exact_graph_probability(wp, a)
                ) <= 1e-12

    def test_size_guard(self):
        w = constant_graphon(0.5)
        big = np.zeros((MAX_EXACT_NODES + 1, MAX_EXACT_NODES + 1), dtype=np.int8)
        with pytest.raises(ValueError):
            exact_graph_probability(w, big)

    def test_rejects_nonbinary(self):
        w = constant_graphon(0.5)
        with pytest.raises(ValueError):
            exact_graph_probability(w, np.array([[0.0, 0.5], [0.5, 0.0]]))


class TestRhoDense:
    def test_one_point_per_block(self):
        p = BlockPartition((0.0, 0.5, 1.0))
        assert rho_dense_check(np.array([0.2, 0.7]), p, 0.5)

    def test_all_in_one_block(self):
        p = BlockPartition((0.0, 0.5, 1.0))
        assert not rho_dense_check(np.array([0.1, 0.2, 0.3]), p, 0.9)

    def test_strict_inequality(self):
        # counts/n exactly equal to (1-rho)*|B| must fail the check
        p = BlockPartition((0.0, 0.5, 1.0))
        assert not rho_dense_check(np.array([0.1, 0.2, 0.3, 0.6]), p, 0.5)

    def test_rho_domain(self):
        p = BlockPartition((0.0, 1.0))
        s = sample_latents(4, 0)
        with pytest.raises(ValueError):
            rho_dense_check(s, p, 0.0)
        with pytest.raises(ValueError):
            rho_dense_check(s, p, 1.0)

    @given(step_graphons(max_blocks=4), st.integers(0, 100))
    @settings(max_examples=20)
    def test_large_samples_usually_dense(self, w, seed):
        # at n=400 and rho=0.9 the failure probability is astronomically small
        s = sample_latents(400, seed)
        min_len = float(np.diff(w.partition.breakpoints).min())
        if min_len >= 0.05:
            assert rho_dense_check(s, w.partition, 0.9)
