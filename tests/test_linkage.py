"""Single-linkage merge matrices, dendrograms, and level cuts."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from graphtree import (
    Dendrogram,
    ValidationError,
    dendrogram_merge_matrix,
    single_linkage,
)
from graphtree.linkage import UnionFind
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


def nested_ultrametric(seed, n=300, depth=4):
    """Merge matrix of random nested groups, with levels tied across branches.

    Each point draws a label per depth; two points share a group at depth d
    when their first d labels agree, and their level grows with that depth.
    Labels come in random order, so cluster leaders are not sorted blocks.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, size=(n, depth))
    agree = np.cumprod(labels[:, None, :] == labels[None, :, :], axis=2).sum(axis=2)
    m = (agree + 1) / (depth + 2)
    np.fill_diagonal(m, 1.0)
    return m


def chain_sim(n):
    """Similarity -max(i, k): single linkage adds one leaf per level."""
    k = np.arange(n)
    return -np.maximum.outer(k, k).astype(float)


def assert_matches_reference(sim):
    m, d = single_linkage(sim)
    want = reference.maxmin_closure(sim)
    assert np.array_equal(m, want)
    assert d.to_json() == json.dumps(reference.argmax_agglomerate(want), sort_keys=True)


class TestSingleLinkage:
    @given(st.integers(0, 2**31 - 1), st.integers(1, 9))
    @settings(max_examples=60)
    def test_tied_grids_match_reference(self, seed, levels):
        assert_matches_reference(small_sims(seed, n_lo=1, n_hi=40, levels=levels))

    def test_chain_matches_reference(self):
        assert_matches_reference(chain_sim(400))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=3)
    def test_nested_ultrametric_matches_reference(self, seed):
        sim = nested_ultrametric(seed)
        assert_matches_reference(sim)
        assert np.array_equal(single_linkage(sim)[0], sim)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40)
    def test_closure_oracle_matches_path_enumeration(self, seed):
        sim = small_sims(seed)
        assert np.array_equal(reference.maxmin_closure(sim), reference.maxmin_matrix(sim))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30)
    def test_merge_matrix_is_its_own_tree(self, seed):
        sim = small_sims(seed, n_hi=15)
        m, d = single_linkage(sim)
        assert np.array_equal(dendrogram_merge_matrix(d), m)
        m2, d2 = single_linkage(m)
        assert np.array_equal(m2, m) and d2 == d

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30)
    def test_matches_scipy(self, seed):
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        sim = small_sims(seed, n_hi=30)
        m, d = single_linkage(sim)
        upper = np.triu_indices(sim.shape[0], 1)
        # scipy wants non-negative distances: rank the negated similarities,
        # a monotone map that single linkage does not see, and map back
        values, ranks = np.unique(-sim[upper], return_inverse=True)
        z = hierarchy.linkage(ranks.astype(float), method="single")
        assert np.array_equal(-values[hierarchy.cophenet(z).astype(int)], m[upper])
        # scipy breaks ties its own way, so shapes are compared by merge levels
        assert sorted(d.level) == sorted(-values[z[:, 2].astype(int)])

    def test_single_node(self):
        m, d = single_linkage(np.ones((1, 1)))
        assert np.array_equal(m, np.ones((1, 1)))
        assert d == Dendrogram((), (), ())

    def test_errors(self):
        for bad in (np.zeros((2, 3)), np.zeros((0, 0)), np.array([[1.0, 0.2], [0.3, 1.0]])):
            with pytest.raises(ValueError):
                single_linkage(bad)


class TestUnionFind:
    def test_root_is_smallest_member(self):
        uf = UnionFind(6)
        uf.union(4, 5)
        uf.union(5, 2)
        uf.union(3, 1)
        assert [uf.find(x) for x in range(6)] == [0, 1, 2, 1, 2, 2]
        uf.union(5, 3)
        assert {uf.find(x) for x in (1, 2, 3, 4, 5)} == {1}
        assert uf.find(0) == 0


class TestMergeEstimate:
    def test_two_nodes(self):
        s = np.array([[1.0, 0.3], [0.3, 1.0]])
        m = single_linkage(s)[0]
        assert m[0, 1] == 0.3 and m[0, 0] == 1.0 and m[1, 1] == 1.0

    def test_chain_rides_the_path(self):
        m = single_linkage(CHAIN_SIM)[0]
        assert m[0, 2] == 0.8
        assert m[0, 1] == 0.9
        assert m[1, 2] == 0.8

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40)
    def test_matches_path_enumeration(self, seed):
        sim = small_sims(seed)
        assert np.array_equal(single_linkage(sim)[0], reference.maxmin_matrix(sim))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25)
    def test_ultrametric(self, seed):
        m = single_linkage(small_sims(seed))[0]
        n = m.shape[0]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert m[i, j] >= min(m[i, k], m[k, j])

    def test_dominates_input_off_diagonal(self):
        sim = small_sims(123)
        m = single_linkage(sim)[0]
        off = ~np.eye(sim.shape[0], dtype=bool)
        assert np.all(m[off] >= sim[off])

    def test_errors(self):
        with pytest.raises(ValueError):
            single_linkage(np.zeros((2, 3)))
        bad = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(ValueError):
            single_linkage(bad)


class TestClustersAtLevel:
    def test_chain_example(self):
        d = single_linkage(single_linkage(CHAIN_SIM)[0])[1]
        assert d.cut(0.85) == [[0, 1], [2]]
        assert d.cut(0.8) == [[0, 1, 2]]
        assert d.cut(0.95) == [[0], [1], [2]]

    def test_extremes(self):
        sim = small_sims(7)
        n = sim.shape[0]
        d = single_linkage(sim)[1]
        assert d.cut(0.0) == [list(range(n))]
        assert d.cut(1.5) == [[i] for i in range(n)]

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25)
    def test_closure_preserves_connectivity(self, seed):
        # thresholding the raw similarities and thresholding their max-min
        # closure give the same components, at every level that occurs
        sim = small_sims(seed)
        m, d = single_linkage(sim)
        d_of_m = single_linkage(m)[1]
        off = sim[~np.eye(sim.shape[0], dtype=bool)]
        for lam in sorted(set(off)) + [0.5 * (1 + off.max())]:
            assert d.cut(lam) == d_of_m.cut(lam)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20)
    def test_matches_reference_components(self, seed):
        sim = small_sims(seed)
        d = single_linkage(sim)[1]
        for lam in (0.25, 0.5, 0.75):
            assert d.cut(lam) == reference.components_at_level(sim, lam)


class TestBuildDendrogram:
    def test_single_leaf(self):
        d = single_linkage(np.ones((1, 1)))[1]
        assert d == Dendrogram((), (), ()) and d.n == 1
        assert d.to_json() == "0" and d.leaf_order == [0]
        assert d.cut(0.5) == [[0]]

    def test_two_leaves(self):
        d = single_linkage(np.array([[1.0, 0.7], [0.7, 1.0]]))[1]
        assert d == Dendrogram([0], [1], [0.7])

    def test_chain_topology(self):
        d = single_linkage(CHAIN_SIM)[1]
        assert d == Dendrogram([0, 3], [1, 2], [0.9, 0.8])

    def test_all_equal_left_leaning(self):
        sim = np.full((4, 4), 0.5)
        np.fill_diagonal(sim, 1.0)
        d = single_linkage(sim)[1]
        assert d == Dendrogram([0, 4, 5], [1, 2, 3], [0.5] * 3)
        assert d.leaf_order == [0, 1, 2, 3]

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30)
    def test_cut_equals_components(self, seed):
        sim = small_sims(seed)
        d = single_linkage(sim)[1]
        off = sim[~np.eye(sim.shape[0], dtype=bool)]
        lams = sorted(set(off))
        mids = [0.5 * (a + b) for a, b in zip(lams, lams[1:])]
        for lam in lams + mids + [0.0, 2.0]:
            assert d.cut(lam) == reference.components_at_level(sim, lam)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20)
    def test_monotone_transform_keeps_partitions(self, seed):
        sim = small_sims(seed)
        cube = sim**3
        d1 = single_linkage(sim)[1]
        d2 = single_linkage(cube)[1]
        off = ~np.eye(sim.shape[0], dtype=bool)
        for lam in sorted(set(sim[off])):
            # pull the mapped threshold out of the mapped matrix so both cuts
            # see bit-identical values
            lam3 = cube[(sim == lam) & off][0]
            assert d1.cut(lam) == d2.cut(lam3)

    def test_levels_never_increase_toward_root(self):
        sim = small_sims(42)
        d = single_linkage(sim)[1]
        for k, level in enumerate(d.level):
            for child in (d.left[k], d.right[k]):
                if child >= d.n:
                    assert d.level[child - d.n] >= level

    def test_errors(self):
        with pytest.raises(ValueError):
            single_linkage(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            single_linkage(np.array([[1.0, 0.2], [0.3, 1.0]]))


class TestMergeMatrixRoundTrip:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30)
    def test_fixed_point_on_ultrametric(self, seed):
        # the merge matrix is its own closure, so the dendrogram built from it
        # encodes exactly the same pairwise levels
        m = single_linkage(small_sims(seed))[0]
        d = single_linkage(m)[1]
        assert np.array_equal(dendrogram_merge_matrix(d), m)

    def test_chain(self):
        d = single_linkage(CHAIN_SIM)[1]
        want = np.array([[1.0, 0.9, 0.8], [0.9, 1.0, 0.8], [0.8, 0.8, 1.0]])
        assert np.array_equal(dendrogram_merge_matrix(d), want)


class TestSerialization:
    def test_json_round_trip(self):
        d = single_linkage(small_sims(3))[1]
        assert Dendrogram.from_json(d.to_json()) == d

    def test_json_dict_shape(self):
        d = single_linkage(CHAIN_SIM)[1]
        doc = json.loads(d.to_json())
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
            Dendrogram.from_json(json.dumps(doc))

    def test_bad_json_text(self):
        with pytest.raises(ValidationError):
            Dendrogram.from_json("{not json")

    def test_newick_two_leaves(self):
        d = single_linkage(np.array([[1.0, 0.7], [0.7, 1.0]]))[1]
        assert d.to_newick() == "(0:0.7,1:0.7);"

    def test_newick_chain(self):
        d = single_linkage(CHAIN_SIM)[1]
        assert d.to_newick() == "((0:0.9,1:0.9):0.8,2:0.8);"

    def test_newick_labels_sanitized(self):
        d = single_linkage(np.array([[1.0, 0.7], [0.7, 1.0]]))[1]
        out = d.to_newick(labels=["a b", "c:d(e)"])
        assert out == "(a_b:0.7,c_d_e_:0.7);"

    def test_newick_fixed_format(self):
        d = single_linkage(np.array([[1.0, 1 / 3], [1 / 3, 1.0]]))[1]
        assert d.to_newick() == "(0:0.333333333333,1:0.333333333333);"




def chain_dendrogram(n):
    """Leaf k joins the cluster {0..k-1} at level 1/(k+1): n - 1 levels deep."""
    rows = range(n - 1)
    return Dendrogram([0] + [n + r - 1 for r in rows][1:], [r + 1 for r in rows],
                      [1.0 / (r + 2) for r in rows])


# ((0, 1) at 0.8, (2, 3) at 0.9) at 0.1, in canonical row order
BALANCED = Dendrogram([0, 2, 4], [1, 3, 5], [0.8, 0.9, 0.1])


class TestMergeTable:
    def test_canonical_row_order(self):
        # the same tree with the (2, 3) row first and the root's children named in reverse
        other = Dendrogram([2, 0, 5], [3, 1, 4], [0.9, 0.8, 0.1])
        assert other == BALANCED and hash(other) == hash(BALANCED)
        assert (other.left, other.right, other.level) == ((0, 2, 4), (1, 3, 5), (0.8, 0.9, 0.1))
        assert other.to_json() == BALANCED.to_json()

    def test_children_order_matters(self):
        swapped = Dendrogram([0, 2, 5], [1, 3, 4], [0.8, 0.9, 0.1])
        assert swapped != BALANCED
        assert swapped.leaf_order == [2, 3, 0, 1]

    def test_numpy_ints_and_levels(self):
        d = Dendrogram(np.array([0, 3]), np.array([1, 2]), np.array([0.9, 0.8]))
        assert d == single_linkage(CHAIN_SIM)[1]
        assert all(type(c) is int for c in d.left + d.right)
        assert all(type(x) is float for x in d.level)

    @pytest.mark.parametrize("table", [
        ([5], [5], [0.5]),  # leaves outside 0..n-1, twice
        ([0], [2], [0.5]),  # row 0 joins itself
        ([4, 0], [2, 1], [0.5, 0.9]),  # row 0 joins the later row 1
        ([0, 0], [1, 2], [0.9, 0.8]),  # leaf 0 joined twice, node 3 never
        ([0, 3], [1], [0.9, 0.8]),  # ragged rows
        ([0.5], [1], [0.5]),  # non-integer child
        ([-1], [1], [0.5]),
    ])
    def test_rejects_bad_tables(self, table):
        with pytest.raises(ValidationError):
            Dendrogram(*table)


class TestDeepTrees:
    # deeper than the interpreter's recursion limit: every traversal must be iterative
    N = 3000

    def test_json_round_trip(self):
        d = chain_dendrogram(self.N)
        text = d.to_json()
        back = Dendrogram.from_json(text)
        assert back.n == self.N
        assert back == d
        assert back.to_json() == text
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


class TestDeepTreeComparison:
    N = 3000

    def test_equality_and_hash(self):
        d1, d2 = chain_dendrogram(self.N), chain_dendrogram(self.N)
        assert d1 == d2
        assert hash(d1) == hash(d2)
        other = Dendrogram(d1.left, d1.right, d1.level[:-1] + (0.5,))
        assert d1 != other
        # the root's children swapped: same rows, mirrored tree
        mirror = Dendrogram(d1.left[:-1] + (self.N - 1,), d1.right[:-1] + (2 * self.N - 3,),
                            d1.level)
        assert d1 != mirror and mirror.leaf_order[0] == self.N - 1
        assert len({d1, d2, other, mirror}) == 3

    def test_repr_at_depth(self):
        text = repr(chain_dendrogram(self.N))
        assert text.startswith(f"Dendrogram(left=(0, {self.N}, {self.N + 1}, ")
        assert text.endswith(f"{1.0 / self.N!r}))")

    def test_repr_is_the_table(self):
        d = single_linkage(CHAIN_SIM)[1]
        assert repr(d) == "Dendrogram(left=(0, 3), right=(1, 2), level=(0.9, 0.8))"


class TestJsonBytes:
    @pytest.mark.parametrize("seed", range(20))
    def test_to_json_equals_json_dumps(self, seed):
        d = single_linkage(small_sims(seed, n_hi=12))[1]
        assert d.to_json() == json.dumps(json.loads(d.to_json()), sort_keys=True)

    def test_special_levels_and_moderate_depth(self):
        # the 300-leaf chain under a +inf merge, beside a -inf pair: 303 leaves, so
        # the chain's inner nodes move up by 3 and its root becomes node 601
        chain = chain_dendrogram(300)
        left, right = ([c + 3 * (c >= 300) for c in side] for side in (chain.left, chain.right))
        d = Dendrogram(left + [601, 301, 602], right + [300, 302, 603],
                       chain.level + (float("inf"), float("-inf"), 7.5))
        text = d.to_json()
        assert text == json.dumps(json.loads(text), sort_keys=True)
        assert Dendrogram.from_json(text).to_json() == text
        assert Dendrogram.from_json(text) == d

    @pytest.mark.parametrize("text", [
        "", "{", "[1,]", '{"a" 1}', '{"a": 1,}', "[1] 2", "{1: 2}", "[01]", "nul",
        '["a\nb"]', "[1, 2}", '{"a": 1]',
    ])
    def test_parser_rejects_what_json_loads_rejects(self, text):
        with pytest.raises(json.JSONDecodeError):
            json.loads(text)
        with pytest.raises(ValidationError):
            Dendrogram.from_json(text)

    @pytest.mark.parametrize("text", [
        '{"a": [1, -2.5e3, 0.25, true, false, null], "b": {}, "c": []}',
        ' \n[ "x\\"y\\u00e9", {"k" : {"k": 2}} , NaN, Infinity, -Infinity, -0, 1E2 ]\t',
        '{"dup": 1, "dup": 2}',
        '"text"',
        "12",
    ])
    def test_rejects_other_json(self, text):
        # valid JSON, but not a dendrogram
        json.loads(text)
        with pytest.raises(ValidationError):
            Dendrogram.from_json(text)


class TestFromJson:
    @pytest.mark.parametrize("text", [
        '{"left": {"left": 0, "level": 0.9, "right": 1}, "level": 0.8, "right": 2}',
        '{"right": 2, "level": 0.8, "left": {"right": 1, "left": 0, "level": 0.9}}',
        ' \n{\t"level" :0.8 ,"left":{"level":9e-1,"left":0,"right":1},\r\n"right": 2}\n ',
    ])
    def test_any_key_order_and_whitespace(self, text):
        d = Dendrogram.from_json(text)
        assert d == single_linkage(CHAIN_SIM)[1]
        assert d.to_json() == ('{"left": {"left": 0, "level": 0.9, "right": 1}, '
                               '"level": 0.8, "right": 2}')

    def test_right_subtree_first(self):
        text = ('{"right": {"left": 2, "level": 0.9, "right": 3}, "level": 0.1, '
                '"left": {"left": 0, "level": 0.8, "right": 1}}')
        assert Dendrogram.from_json(text) == BALANCED

    def test_special_levels(self):
        text = ('{"left": {"left": 0, "level": NaN, "right": 1}, "level": -Infinity, '
                '"right": {"left": 2, "level": Infinity, "right": 3}}')
        d = Dendrogram.from_json(text)
        assert np.isnan(d.level[0]) and d.level[1:] == (np.inf, -np.inf)
        assert d.to_json() == text

    def test_single_leaf(self):
        assert Dendrogram.from_json(" 0\n") == Dendrogram((), (), ())

    @pytest.mark.parametrize("text", [
        '{"left": 0, "level": 0.5, "right": 1,}',  # trailing comma
        '{"left" 0, "level": 0.5, "right": 1}',  # missing colon
        '{"left": 0, "level": 0.5, "right": 1} 0',  # extra data
        '{"left": 0, "level": 0.5, "right": 1}}',
        '{"left": 0, "level": 0.5, "right": 1, "name": "x"}',  # unknown key
        '{"left": 0, "level": 0.5, "left": 1}',  # duplicate key
        '{"left": 0, "level": 0.5}',  # missing key
        '{"left": 0.0, "level": 0.5, "right": 1}',  # non-int leaves
        '{"left": -1, "level": 0.5, "right": 1}',
        '{"left": "0", "level": 0.5, "right": 1}',
        '{"left": true, "level": 0.5, "right": 1}',
        '{"left": 1e0, "level": 0.5, "right": 0}',
        '{"left": 0, "level": "0.5", "right": 1}',  # non-number level
        '{"left": 0, "level": {"left": 0, "level": 1, "right": 1}, "right": 1}',
        '{"left": 0, "level": nan, "right": 1}',
        '{}',
        "5",  # one leaf must be leaf 0
        # leaves other than 0..n-1 once each, or a child that is not an earlier node
        '{"left": 5, "level": 0.5, "right": 5}',
        '{"left": 0, "level": 0.5, "right": 2}',  # leaf 2 of 2 would be the row itself
        '{"left": {"left": 0, "level": 0.9, "right": 1}, "level": 0.5, "right": 3}',
        '{"left": {"left": 0, "level": 0.9, "right": 3}, "level": 0.5, "right": 1}',
        '{"left": {"left": 0, "level": 0.9, "right": 0}, "level": 0.5, "right": 1}',
    ])
    def test_rejects(self, text):
        with pytest.raises(ValidationError):
            Dendrogram.from_json(text)
