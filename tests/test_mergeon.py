"""Exact mergeons: bottleneck levels, the discretization oracle, cluster trees."""

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from graphtree import (
    BlockPartition,
    StepGraphon,
    ValidationError,
    cluster_tree_of,
    dendrogram_merge_matrix,
    merge_distortion,
    mergeon_eval_matrix,
    single_linkage,
    step_mergeon,
)
from graphtree.experiments import three_group_graphon
from conftest import random_step_graphon, random_symmetric, step_graphons
import reference
from reference import MeasurePreservingMap, discretization_oracle, induced_merge_height, pullback

CHAIN = StepGraphon(
    BlockPartition((0.0, 0.25, 0.5, 1.0)),
    np.array([[0.9, 0.6, 0.2], [0.6, 0.9, 0.4], [0.2, 0.4, 0.9]]),
)

# merge levels of three_group_graphon, worked out by hand from the bottleneck
# rule: groups {0,1}, {2,3}, {4}; the 0.5 link sits between blocks 1 and 2
THREE_GROUP_LEVELS = np.array(
    [
        [0.7, 0.7, 0.5, 0.5, 0.1],
        [0.7, 0.7, 0.5, 0.5, 0.1],
        [0.5, 0.5, 0.7, 0.7, 0.1],
        [0.5, 0.5, 0.7, 0.7, 0.1],
        [0.1, 0.1, 0.1, 0.1, 0.7],
    ]
)


class TestStepMergeon:
    def test_constant(self):
        w = StepGraphon(BlockPartition((0.0, 1.0)), np.array([[0.4]]))
        assert np.array_equal(step_mergeon(w).values, [[0.4]])

    def test_chain_bottleneck(self):
        got = step_mergeon(CHAIN).values
        want = np.array([[0.9, 0.6, 0.4], [0.6, 0.9, 0.4], [0.4, 0.4, 0.9]])
        assert np.array_equal(got, want)

    def test_three_group(self):
        got = step_mergeon(three_group_graphon()).values
        assert np.array_equal(got, THREE_GROUP_LEVELS)

    @given(step_graphons())
    def test_off_diagonal_matches_path_enumeration(self, w):
        levels = step_mergeon(w).values
        k = w.partition.k
        for a in range(k):
            for b in range(a + 1, k):
                assert levels[a, b] == reference.maxmin_simple_paths(w.values, a, b)

    @given(step_graphons())
    @example(StepGraphon(BlockPartition((0.0, 1.0)), np.array([[0.4]])))  # k = 1
    def test_matches_closure_reference(self, w):
        # independent of single_linkage, which discretization_oracle also runs
        want = reference.maxmin_closure(w.values)
        np.fill_diagonal(want, w.values.max(axis=1))
        assert step_mergeon(w).values.tobytes() == want.tobytes()

    @given(step_graphons())
    def test_diagonal_rule(self, w):
        levels = step_mergeon(w).values
        for a in range(w.partition.k):
            assert levels[a, a] == max(w.values[a])

    @given(step_graphons(max_blocks=5), st.sampled_from([2, 3]))
    @settings(max_examples=40)
    def test_matches_discretization_oracle(self, w, m):
        assert np.array_equal(step_mergeon(w).values, discretization_oracle(w, m).values)

    @given(step_graphons(max_blocks=4))
    @settings(max_examples=20)
    def test_oracle_m_independent(self, w):
        assert np.array_equal(
            discretization_oracle(w, 2).values, discretization_oracle(w, 3).values
        )

    def test_oracle_constant(self):
        w = StepGraphon(BlockPartition((0.0, 1.0)), np.array([[0.4]]))
        assert np.array_equal(discretization_oracle(w, 2).values, [[0.4]])

    def test_oracle_rejects_small_m(self):
        with pytest.raises(ValueError):
            discretization_oracle(CHAIN, 1)

    @given(step_graphons())
    def test_invariants(self, w):
        lv = step_mergeon(w).values
        k = w.partition.k
        assert np.array_equal(lv, lv.T)
        assert lv.min() >= 0.0 and lv.max() <= 1.0
        # every level is a max/min selection of input values, so the
        # ultrametric and dominance inequalities hold exactly in floats
        for a in range(k):
            for b in range(k):
                if a != b:
                    assert lv[a, a] >= lv[a, b]
                for c in range(k):
                    assert lv[a, b] >= min(lv[a, c], lv[c, b])


class TestBlockMergeMatrix:
    def test_validation(self):
        # a merge matrix is a StepGraphon of merge heights; it rejects what
        # the old dedicated merge-matrix type rejected
        assert type(step_mergeon(CHAIN)) is StepGraphon
        p = BlockPartition((0.0, 0.5, 1.0))
        with pytest.raises(ValidationError):
            StepGraphon(p, np.array([[0.5, 0.2], [0.3, 0.5]]))
        with pytest.raises(ValidationError):
            StepGraphon(p, np.array([[1.5, 0.2], [0.2, 0.5]]))
        with pytest.raises(ValidationError):
            StepGraphon(p, np.array([[0.5]]))
        with pytest.raises(ValidationError, match="finite"):
            StepGraphon(p, np.array([[np.nan, 0.2], [0.2, 0.5]]))


class TestClusterTree:
    def test_three_group_tree(self):
        tree = cluster_tree_of(StepGraphon(
            three_group_graphon().partition, THREE_GROUP_LEVELS
        ))
        assert tree == [
            (0.7, [[0, 1], [2, 3], [4]]),
            (0.5, [[0, 1, 2, 3], [4]]),
            (0.1, [[0, 1, 2, 3, 4]]),
        ]

    def test_single_block(self):
        w = StepGraphon(BlockPartition((0.0, 1.0)), np.array([[0.4]]))
        tree = cluster_tree_of(step_mergeon(w))
        assert tree == [(0.4, [[0]])]

    def test_disconnected(self):
        p = BlockPartition((0.0, 0.5, 1.0))
        m = StepGraphon(p, np.array([[1.0, 0.0], [0.0, 1.0]]))
        tree = cluster_tree_of(m)
        assert tree == [
            (1.0, [[0], [1]]),
            (0.0, [[0, 1]]),
        ]

    @given(step_graphons())
    def test_hierarchy_invariant(self, w):
        tree = cluster_tree_of(step_mergeon(w))
        for _, clusters in tree:
            flat = [b for c in clusters for b in c]
            assert len(flat) == len(set(flat))
        for (_, upper), (_, lower) in zip(tree, tree[1:]):
            for cu in upper:
                hosts = [cl for cl in lower if set(cu) <= set(cl)]
                assert len(hosts) == 1

    @staticmethod
    def check_components(merge):
        lv = merge.values
        tree = cluster_tree_of(merge)
        for lam, clusters in tree:
            alive = [a for a in range(lv.shape[0]) if lv[a, a] >= lam]
            sub = lv[np.ix_(alive, alive)]
            want = [
                sorted(alive[i] for i in comp)
                for comp in reference.components_at_level(sub, lam)
            ]
            assert clusters == sorted(want)
        return tree

    @given(step_graphons())
    def test_matches_component_reference(self, w):
        self.check_components(step_mergeon(w))

    @given(step_graphons())
    def test_any_level_matrix_matches_component_reference(self, w):
        # a graphon's values as levels: any symmetric matrix, ties included,
        # where a block may appear below the level of its links
        tree = self.check_components(w)
        assert [lam for lam, _ in tree] == sorted(set(w.values.flat), reverse=True)

    def test_absent_block_does_not_link(self):
        # block 1 appears at 0.2, so its 0.9 links join nothing above that
        m = StepGraphon(CHAIN.partition, np.array(
            [[1.0, 0.9, 0.0], [0.9, 0.2, 0.9], [0.0, 0.9, 1.0]]))
        tree = self.check_components(m)
        assert tree == [
            (1.0, [[0], [2]]),
            (0.9, [[0], [2]]),
            (0.2, [[0, 1, 2]]),
            (0.0, [[0, 1, 2]]),
        ]

class TestMergeonEval:
    def test_constant(self):
        w = StepGraphon(BlockPartition((0.0, 1.0)), np.array([[0.4]]))
        m = step_mergeon(w)
        assert mergeon_eval_matrix(m, [0.1, 0.9])[0, 1] == 0.4

    def test_three_group_points(self):
        m = step_mergeon(three_group_graphon())
        assert mergeon_eval_matrix(m, [0.1, 0.9])[0, 1] == 0.1  # group 1 vs group 3
        assert mergeon_eval_matrix(m, [0.05, 0.1])[0, 1] == 0.7  # same block
        assert mergeon_eval_matrix(m, [0.1, 0.5])[0, 1] == 0.5  # group 1 vs group 2

    def test_symmetry_and_domain(self):
        m = step_mergeon(CHAIN)
        got = mergeon_eval_matrix(m, [0.1, 0.8])[0, 1]
        assert got == mergeon_eval_matrix(m, [0.8, 0.1])[0, 1]
        with pytest.raises(ValueError):
            mergeon_eval_matrix(m, [-0.5, 0.5])

    def test_eval_matrix(self):
        m = step_mergeon(CHAIN)
        pts = np.array([0.1, 0.3, 0.9, 0.3])
        got = mergeon_eval_matrix(m, pts)
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                want = 1.0 if i == j else mergeon_eval_matrix(m, [x, y])[0, 1]
                assert got[i, j] == want

    def test_eval_matrix_is_a_fresh_writable_array(self):
        # the mergeon's values are read-only; the result shares no memory with them
        m = step_mergeon(three_group_graphon())
        got = mergeon_eval_matrix(m, [0.1, 0.5, 0.9, 0.1])
        assert not np.shares_memory(got, m.values)
        assert got.flags.writeable and not m.values.flags.writeable


class TestInducedMergeHeight:
    def test_two_element_cluster(self):
        mvals = random_symmetric(np.random.default_rng(0), 4)
        assert induced_merge_height([[0, 1]], mvals, 0, 1) == mvals[0, 1]

    def test_min_over_pairs(self):
        mvals = np.ones((4, 4))
        mvals[1, 2] = mvals[2, 1] = 0.5
        mvals[1, 3] = mvals[3, 1] = 0.4
        mvals[2, 3] = mvals[3, 2] = 0.45
        assert induced_merge_height([[1, 2, 3]], mvals, 1, 2) == 0.4

    def test_smallest_common_cluster_wins(self):
        mvals = np.ones((4, 4))
        mvals[0, 1] = mvals[1, 0] = 0.9
        mvals[2, 3] = mvals[3, 2] = 0.2
        clusters = [[0, 1], [0, 1, 2, 3]]
        assert induced_merge_height(clusters, mvals, 0, 1) == 0.9
        assert induced_merge_height(clusters, mvals, 0, 2) == 0.2

    def test_errors(self):
        mvals = np.ones((3, 3))
        with pytest.raises(ValueError):
            induced_merge_height([[0, 1]], mvals, 0, 0)
        with pytest.raises(ValueError):
            induced_merge_height([[0, 1]], mvals, 0, 2)

    def test_fixed_point_of_own_tree(self):
        rng = np.random.default_rng(3)
        d = single_linkage(random_symmetric(rng, 6))
        m = dendrogram_merge_matrix(d)
        levels = sorted({m[i, j] for i in range(6) for j in range(i + 1, 6)})
        hierarchy = []
        for lam in levels:
            hierarchy.extend(d.cut(lam))
        for i in range(6):
            for j in range(i + 1, 6):
                assert induced_merge_height(hierarchy, m, i, j) == m[i, j]


class TestMergeDistortion:
    def test_identity(self):
        x = random_symmetric(np.random.default_rng(1), 5)
        assert merge_distortion(x, x) == 0.0

    def test_constant_offset(self):
        assert merge_distortion(np.full((3, 3), 0.5), np.full((3, 3), 0.3)) == 0.2

    def test_matches_pair_loop(self):
        rng = np.random.default_rng(2)
        a, b = random_symmetric(rng, 4), random_symmetric(rng, 4)
        want = max(abs(a[i, j] - b[i, j]) for i in range(4) for j in range(4) if i != j)
        assert merge_distortion(a, b) == want

    def test_diagonal_ignored(self):
        a = np.zeros((3, 3))
        b = np.zeros((3, 3))
        np.fill_diagonal(b, 1.0)
        assert merge_distortion(a, b) == 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            merge_distortion(np.zeros((3, 3)), np.zeros((4, 4)))
        with pytest.raises(ValueError):
            merge_distortion(np.zeros((1, 1)), np.zeros((1, 1)))

    def test_induced_heights_within_twice_noise(self):
        # single-linkage trees built from a perturbed matrix distort true
        # merge heights by less than twice the perturbation bound; the bound
        # needs mvals to be genuine merge heights (an ultrametric), so draw
        # them from a random graphon's mergeon, not an arbitrary matrix
        rng = np.random.default_rng(7)
        eps = 0.05
        for _ in range(20):
            n = int(rng.integers(4, 9))
            w = random_step_graphon(rng, max_blocks=5)
            mvals = mergeon_eval_matrix(step_mergeon(w), rng.random(n))
            noise = rng.uniform(-eps, eps, size=(n, n))
            noise = np.triu(noise, 1)
            noise = noise + noise.T
            assert np.abs(noise).max() < eps
            mhat = np.clip(mvals + noise, 0.0, 1.0)
            np.fill_diagonal(mhat, 1.0)
            d = single_linkage(mhat)
            m = dendrogram_merge_matrix(d)
            levels = sorted({m[i, j] for i in range(n) for j in range(i + 1, n)})
            hierarchy = []
            for lam in levels:
                hierarchy.extend(d.cut(lam))
            induced = np.ones((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    induced[i, j] = induced[j, i] = induced_merge_height(
                        hierarchy, mvals, i, j
                    )
            assert merge_distortion(mvals, induced) < 2 * eps


class TestMptInvariance:
    @given(step_graphons(max_blocks=4), st.integers(2, 3))
    @settings(max_examples=25)
    def test_mergeon_commutes_with_pullback(self, w, m):
        phi = MeasurePreservingMap.stretch_mod(m)
        pulled = step_mergeon(pullback(w, phi))
        orig = step_mergeon(w)
        rng = np.random.default_rng(0)
        for x, y in rng.random((50, 2)):
            assert (mergeon_eval_matrix(pulled, [x, y])[0, 1]
                    == mergeon_eval_matrix(orig, [phi.apply(x), phi.apply(y)])[0, 1])

    def test_cluster_tree_corresponds_under_preimage(self):
        w = three_group_graphon()
        phi = MeasurePreservingMap.stretch_mod(2)
        wp = pullback(w, phi)
        tree = cluster_tree_of(step_mergeon(w))
        tree_p = cluster_tree_of(step_mergeon(wp))
        # map each pulled-back block to the original block containing its image
        bp = np.asarray(wp.partition.breakpoints)
        block_map = w.partition.locate_many([phi.apply(x) for x in 0.5 * (bp[:-1] + bp[1:])])
        assert [lam for lam, _ in tree_p] == [lam for lam, _ in tree]
        for (_, clusters_p), (_, clusters) in zip(tree_p, tree):
            mapped = sorted(
                sorted({block_map[b] for b in cluster}) for cluster in clusters_p
            )
            # preimage clusters collapse exactly onto the original clusters
            assert sorted(map(sorted, {tuple(c) for c in mapped})) == clusters
