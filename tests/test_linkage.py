"""Single-linkage merge matrices, dendrograms, and level cuts."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from graphtree import (
    Dendrogram,
    Leaf,
    Merge,
    ValidationError,
    build_dendrogram,
    clusters_at_level,
    dendrogram_merge_matrix,
    merge_estimate,
)
from graphtree.linkage import _json_loads
from conftest import random_symmetric
import reference

# path 0 - 1 - 2 with a weak shortcut: the bottleneck from 0 to 2 rides the path
CHAIN_SIM = np.array(
    [
        [1.0, 0.9, 0.1],
        [0.9, 1.0, 0.8],
        [0.1, 0.8, 1.0],
    ]
)


def small_sims(seed, n_lo=2, n_hi=7, levels=9):
    """Random symmetric matrix with gridded values so ties actually occur."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_lo, n_hi + 1))
    vals = rng.integers(0, levels + 1, size=(n, n)) / levels
    sim = np.triu(vals, 1)
    sim = sim + sim.T
    np.fill_diagonal(sim, 1.0)
    return sim


class TestMergeEstimate:
    def test_two_nodes(self):
        s = np.array([[1.0, 0.3], [0.3, 1.0]])
        m = merge_estimate(s)
        assert m[0, 1] == 0.3 and m[0, 0] == 1.0 and m[1, 1] == 1.0

    def test_chain_rides_the_path(self):
        m = merge_estimate(CHAIN_SIM)
        assert m[0, 2] == 0.8
        assert m[0, 1] == 0.9
        assert m[1, 2] == 0.8

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40)
    def test_matches_path_enumeration(self, seed):
        sim = small_sims(seed)
        assert np.array_equal(merge_estimate(sim), reference.maxmin_matrix(sim))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25)
    def test_ultrametric(self, seed):
        m = merge_estimate(small_sims(seed))
        n = m.shape[0]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert m[i, j] >= min(m[i, k], m[k, j])

    def test_dominates_input_off_diagonal(self):
        sim = small_sims(123)
        m = merge_estimate(sim)
        off = ~np.eye(sim.shape[0], dtype=bool)
        assert np.all(m[off] >= sim[off])

    def test_errors(self):
        with pytest.raises(ValueError):
            merge_estimate(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            merge_estimate(np.ones((1, 1)))
        bad = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(ValueError):
            merge_estimate(bad)


class TestClustersAtLevel:
    def test_chain_example(self):
        m = merge_estimate(CHAIN_SIM)
        assert clusters_at_level(m, 0.85) == [[0, 1], [2]]
        assert clusters_at_level(m, 0.8) == [[0, 1, 2]]
        assert clusters_at_level(m, 0.95) == [[0], [1], [2]]

    def test_extremes(self):
        sim = small_sims(7)
        n = sim.shape[0]
        assert clusters_at_level(sim, 0.0) == [list(range(n))]
        assert clusters_at_level(sim, 1.5) == [[i] for i in range(n)]

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25)
    def test_closure_preserves_connectivity(self, seed):
        # thresholding the raw similarities and thresholding their max-min
        # closure give the same components, at every level that occurs
        sim = small_sims(seed)
        m = merge_estimate(sim)
        off = sim[~np.eye(sim.shape[0], dtype=bool)]
        for lam in sorted(set(off)) + [0.5 * (1 + off.max())]:
            assert clusters_at_level(sim, lam) == clusters_at_level(m, lam)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20)
    def test_matches_reference_components(self, seed):
        sim = small_sims(seed)
        for lam in (0.25, 0.5, 0.75):
            assert clusters_at_level(sim, lam) == reference.components_at_level(sim, lam)


class TestBuildDendrogram:
    def test_single_leaf(self):
        d = build_dendrogram(np.ones((1, 1)))
        assert d.root == Leaf(0) and d.n == 1
        assert d.cut(0.5) == [[0]]

    def test_two_leaves(self):
        d = build_dendrogram(np.array([[1.0, 0.7], [0.7, 1.0]]))
        assert d.root == Merge(Leaf(0), Leaf(1), 0.7)

    def test_chain_topology(self):
        d = build_dendrogram(CHAIN_SIM)
        assert d.root == Merge(Merge(Leaf(0), Leaf(1), 0.9), Leaf(2), 0.8)

    def test_all_equal_left_leaning(self):
        sim = np.full((4, 4), 0.5)
        np.fill_diagonal(sim, 1.0)
        d = build_dendrogram(sim)
        want = Merge(Merge(Merge(Leaf(0), Leaf(1), 0.5), Leaf(2), 0.5), Leaf(3), 0.5)
        assert d.root == want
        assert d.leaf_order == [0, 1, 2, 3]

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30)
    def test_cut_equals_components(self, seed):
        sim = small_sims(seed)
        d = build_dendrogram(sim)
        off = sim[~np.eye(sim.shape[0], dtype=bool)]
        lams = sorted(set(off))
        mids = [0.5 * (a + b) for a, b in zip(lams, lams[1:])]
        for lam in lams + mids + [0.0, 2.0]:
            assert d.cut(lam) == clusters_at_level(sim, lam)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20)
    def test_monotone_transform_keeps_partitions(self, seed):
        sim = small_sims(seed)
        cube = sim**3
        d1 = build_dendrogram(sim)
        d2 = build_dendrogram(cube)
        off = ~np.eye(sim.shape[0], dtype=bool)
        for lam in sorted(set(sim[off])):
            # pull the mapped threshold out of the mapped matrix so both cuts
            # see bit-identical values
            lam3 = cube[(sim == lam) & off][0]
            assert d1.cut(lam) == d2.cut(lam3)

    def test_levels_never_increase_toward_root(self):
        sim = small_sims(42)
        d = build_dendrogram(sim)

        def walk(node, bound):
            if isinstance(node, Leaf):
                return
            assert node.level <= bound
            walk(node.left, node.level)
            walk(node.right, node.level)

        walk(d.root, np.inf)

    def test_errors(self):
        with pytest.raises(ValueError):
            build_dendrogram(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            build_dendrogram(np.array([[1.0, 0.2], [0.3, 1.0]]))


class TestMergeMatrixRoundTrip:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30)
    def test_fixed_point_on_ultrametric(self, seed):
        # the merge matrix is its own closure, so the dendrogram built from it
        # encodes exactly the same pairwise levels
        m = merge_estimate(small_sims(seed))
        d = build_dendrogram(m)
        assert np.array_equal(dendrogram_merge_matrix(d), m)

    def test_chain(self):
        d = build_dendrogram(CHAIN_SIM)
        want = np.array([[1.0, 0.9, 0.8], [0.9, 1.0, 0.8], [0.8, 0.8, 1.0]])
        assert np.array_equal(dendrogram_merge_matrix(d), want)


class TestSerialization:
    def test_json_round_trip(self):
        d = build_dendrogram(small_sims(3))
        assert Dendrogram.from_json(d.to_json()) == d

    def test_json_dict_shape(self):
        d = build_dendrogram(CHAIN_SIM)
        doc = d.to_json_dict()
        assert doc == {"left": {"left": 0, "right": 1, "level": 0.9}, "right": 2, "level": 0.8}

    @pytest.mark.parametrize(
        "doc",
        [
            {"left": 0, "right": 1},
            {"left": 0, "right": 1, "level": 0.5, "extra": 1},
            "leaf",
            {"left": 0.5, "right": 1, "level": 0.5},
            [0, 1],
        ],
    )
    def test_bad_documents(self, doc):
        with pytest.raises(ValidationError):
            Dendrogram.from_json_dict(doc)

    def test_bad_json_text(self):
        with pytest.raises(ValidationError):
            Dendrogram.from_json("{not json")

    def test_newick_two_leaves(self):
        d = build_dendrogram(np.array([[1.0, 0.7], [0.7, 1.0]]))
        assert d.to_newick() == "(0:0.7,1:0.7);"

    def test_newick_chain(self):
        d = build_dendrogram(CHAIN_SIM)
        assert d.to_newick() == "((0:0.9,1:0.9):0.8,2:0.8);"

    def test_newick_labels_sanitized(self):
        d = build_dendrogram(np.array([[1.0, 0.7], [0.7, 1.0]]))
        out = d.to_newick(labels=["a b", "c:d(e)"])
        assert out == "(a_b:0.7,c_d_e_:0.7);"

    def test_newick_format_control(self):
        d = build_dendrogram(np.array([[1.0, 1 / 3], [1 / 3, 1.0]]))
        assert d.to_newick(fmt="%.3f") == "(0:0.333,1:0.333);"


def chain_dendrogram(n):
    """Leaf k joins the cluster {0..k-1} at level 1/(k+1): n - 1 levels deep."""
    node = Leaf(0)
    for k in range(1, n):
        node = Merge(node, Leaf(k), 1.0 / (k + 1))
    return Dendrogram(root=node, n=n)


class TestDeepTrees:
    # deeper than the interpreter's recursion limit: every traversal must be iterative
    N = 3000

    def test_json_round_trip(self):
        d = chain_dendrogram(self.N)
        text = d.to_json()
        back = Dendrogram.from_json(text)
        assert back.n == self.N
        assert back.to_json() == text
        assert Dendrogram.from_json_dict(d.to_json_dict()).to_json() == text
        assert text.startswith('{"left": ' * (self.N - 1) + "0, ")

    def test_leaf_order_cut_newick_and_merge_matrix(self):
        d = chain_dendrogram(self.N)
        assert d.leaf_order == list(range(self.N))
        assert d.cut(1.0 / 3) == [[0, 1, 2]] + [[k] for k in range(3, self.N)]
        nwk = d.to_newick()
        assert nwk.startswith("(" * (self.N - 1) + "0:0.5,1:0.5):")
        assert nwk.endswith(f",{self.N - 1}:{1.0 / self.N:.12g});")
        m = dendrogram_merge_matrix(d)
        k = np.maximum.outer(np.arange(self.N), np.arange(self.N))
        want = 1.0 / (k + 1)
        np.fill_diagonal(want, 1.0)
        assert np.array_equal(m, want)


class TestJsonBytes:
    @pytest.mark.parametrize("seed", range(20))
    def test_to_json_equals_json_dumps(self, seed):
        d = build_dendrogram(small_sims(seed, n_hi=12))
        assert d.to_json() == json.dumps(d.to_json_dict(), sort_keys=True)

    def test_special_levels_and_moderate_depth(self):
        d = Dendrogram(Merge(Merge(chain_dendrogram(300).root, Leaf(300), float("inf")),
                             Merge(Leaf(301), Leaf(302), float("-inf")), 7.5), n=303)
        text = d.to_json()
        assert text == json.dumps(d.to_json_dict(), sort_keys=True)
        assert Dendrogram.from_json(text).to_json() == text
        assert Dendrogram.from_json(text) == Dendrogram.from_json_dict(json.loads(text))

    @pytest.mark.parametrize("text", [
        '{"a": [1, -2.5e3, 0.25, true, false, null], "b": {}, "c": []}',
        ' \n[ "x\\"y\\u00e9", {"k" : {"k": 2}} , NaN, Infinity, -Infinity, -0, 1E2 ]\t',
        '{"dup": 1, "dup": 2}',
        '"text"',
        "12",
    ])
    def test_parser_matches_json_loads(self, text):
        got = _json_loads(text)
        want = json.loads(text)
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
        assert type(got) is type(want)

    @pytest.mark.parametrize("text", [
        "", "{", "[1,]", '{"a" 1}', '{"a": 1,}', "[1] 2", "{1: 2}", "[01]", "nul",
        '["a\nb"]', "[1, 2}", '{"a": 1]',
    ])
    def test_parser_rejects_what_json_loads_rejects(self, text):
        with pytest.raises(json.JSONDecodeError):
            json.loads(text)
        with pytest.raises(ValueError):
            _json_loads(text)
