"""Block partitions, step graphon evaluation, refinement, pullbacks, JSON I/O."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from graphtree import (
    BlockPartition,
    StepGraphon,
    ValidationError,
    load_step_graphon,
    save_step_graphon,
    step_graphon_from_dict,
    step_graphon_to_dict,
)
from conftest import breakpoint_tuples, step_graphons
from reference import MeasurePreservingMap, locate_by_bisect, pullback, refine


def two_block(v00, v01, v11, split=0.5):
    return StepGraphon(
        BlockPartition((0.0, split, 1.0)), np.array([[v00, v01], [v01, v11]])
    )


class TestBlockPartition:
    def test_properties(self):
        p = BlockPartition((0.0, 0.25, 1.0))
        assert p.k == 2
        assert np.array_equal(p.lengths, [0.25, 0.75])
        assert np.array_equal(p.midpoints(), [0.125, 0.625])

    def test_locate_half_open(self):
        p = BlockPartition((0.0, 0.5, 1.0))
        # breakpoint belongs to the block on its right
        assert p.locate(0.5) == 1
        assert p.locate(0.0) == 0
        assert p.locate(0.49999) == 0

    def test_locate_right_endpoint(self):
        p = BlockPartition((0.0, 0.5, 1.0))
        assert p.locate(1.0) == 1
        assert BlockPartition((0.0, 1.0)).locate(1.0) == 0

    def test_locate_single_block(self):
        assert BlockPartition((0.0, 1.0)).locate(0.7) == 0

    def test_locate_domain(self):
        p = BlockPartition((0.0, 1.0))
        with pytest.raises(ValueError):
            p.locate(-0.1)
        with pytest.raises(ValueError):
            p.locate(1.1)
        with pytest.raises(ValueError):
            p.locate_many([0.5, 1.2])
        with pytest.raises(ValueError):
            p.locate(float("nan"))
        with pytest.raises(ValueError):
            BlockPartition((0.0, 0.5, 1.0)).locate_many([0.2, float("nan")])

    @pytest.mark.parametrize(
        "bps",
        [(0.0,), (0.0, 0.5), (0.2, 0.5, 1.0), (0.0, 0.5, 0.5, 1.0), (0.0, 0.7, 0.3, 1.0)],
    )
    def test_invalid_breakpoints(self, bps):
        with pytest.raises(ValidationError):
            BlockPartition(bps)

    @given(breakpoint_tuples(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
    def test_locate_many_matches_locate(self, bps, xs):
        p = BlockPartition(bps)
        want = [locate_by_bisect(p, x) for x in xs]
        assert list(p.locate_many(xs)) == want
        assert [p.locate(x) for x in xs] == want

    def test_refine_halves_unit_interval(self):
        p = refine(BlockPartition((0.0, 1.0)), 0.3)
        assert p.breakpoints == (0.0, 0.5, 1.0)

    def test_refine_noop_when_blocks_small_enough(self):
        p = BlockPartition((0.0, 0.5, 1.0))
        assert refine(p, 0.25).breakpoints == p.breakpoints

    def test_refine_infeasible(self):
        with pytest.raises(ValueError):
            refine(BlockPartition((0.0, 0.1, 1.0)), 0.2)
        with pytest.raises(ValueError):
            refine(BlockPartition((0.0, 1.0)), 0.0)

    @given(breakpoint_tuples(), st.sampled_from([1.0, 0.75, 0.5, 0.25, 0.1]))
    def test_refine_bracket(self, bps, frac):
        p = BlockPartition(bps)
        delta = float(p.lengths.min()) * frac
        r = refine(p, delta)
        # 1e-12 slack: non-dyadic piece counts round the equal-split arithmetic
        assert r.lengths.min() >= delta - 1e-12
        assert r.lengths.max() <= 2 * delta + 1e-12
        assert set(p.breakpoints) <= set(r.breakpoints)
        for lo, hi in zip(r.breakpoints, r.breakpoints[1:]):
            # each refined block sits inside the original block of its left end
            assert hi <= p.breakpoints[p.locate(lo) + 1]


class TestStepGraphon:
    def test_constant_eval(self):
        w = StepGraphon(BlockPartition((0.0, 1.0)), np.array([[0.3]]))
        assert w.eval(0.2, 0.9) == 0.3

    def test_cross_block_eval(self):
        w = two_block(1.0, 0.0, 1.0)
        assert w.eval(0.25, 0.75) == 0.0
        assert w.eval(0.25, 0.25) == 1.0

    @given(step_graphons(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_eval_symmetry(self, w, x, y):
        assert w.eval(x, y) == w.eval(y, x)

    def test_eval_many_matches_eval(self):
        w = two_block(0.2, 0.5, 0.8)
        xs = np.array([0.0, 0.3, 0.5, 0.9, 1.0])
        got = w.eval_many(xs, xs[::-1])
        want = [w.eval(x, y) for x, y in zip(xs, xs[::-1])]
        assert list(got) == want

    def test_validation(self):
        p = BlockPartition((0.0, 0.5, 1.0))
        with pytest.raises(ValidationError):
            StepGraphon(p, np.array([[0.1, 0.2], [0.3, 0.1]]))  # asymmetric
        with pytest.raises(ValidationError):
            StepGraphon(p, np.array([[1.5, 0.2], [0.2, 0.1]]))  # out of range
        with pytest.raises(ValidationError):
            StepGraphon(p, np.array([[0.1]]))  # wrong shape
        with pytest.raises(ValidationError):
            StepGraphon(p, np.full((2, 2), np.nan))
        with pytest.raises(ValidationError, match="finite"):
            StepGraphon(p, np.array([[np.nan, 0.2], [0.2, 0.5]]))  # symmetric but for NaN

    def test_values_read_only(self):
        w = two_block(0.2, 0.5, 0.8)
        with pytest.raises(ValueError):
            w.values[0, 0] = 0.9


class TestMeasurePreservingMap:
    def test_apply(self):
        phi = MeasurePreservingMap.stretch_mod(2)
        assert phi.apply(0.3) == 0.6
        assert phi.apply(0.75) == 0.5
        assert phi.apply(0.5) == 0.0
        assert MeasurePreservingMap.identity().apply(0.42) == 0.42

    def test_apply_domain(self):
        with pytest.raises(ValueError):
            MeasurePreservingMap.stretch_mod(2).apply(1.5)

    def test_validation(self):
        with pytest.raises(ValidationError):
            MeasurePreservingMap("rotate", 2)
        with pytest.raises(ValidationError):
            MeasurePreservingMap("stretch_mod", 0)
        with pytest.raises(ValidationError):
            MeasurePreservingMap("identity", 3)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_measure_preservation_exact(self, m):
        phi = MeasurePreservingMap.stretch_mod(m)
        for a, b in [(0, 1), (Fraction(1, 3), Fraction(1, 2)), (Fraction(1, 7), Fraction(6, 7))]:
            pieces = phi.preimage_intervals(a, b)
            assert sum(hi - lo for lo, hi in pieces) == Fraction(b) - Fraction(a)
            for (lo, hi), (lo2, _) in zip(pieces, pieces[1:]):
                assert hi <= lo2

    @given(st.integers(1, 6), st.floats(0.0, 1.0))
    def test_preimages_map_back(self, m, x):
        phi = MeasurePreservingMap.stretch_mod(m)
        y = phi.apply(x)
        assert 0.0 <= y <= 1.0


class TestPullback:
    def test_identity_returns_self(self):
        w = two_block(0.2, 0.5, 0.8)
        assert pullback(w, MeasurePreservingMap.identity()) is w

    def test_stretch_two_blocks(self):
        w = two_block(0.9, 0.2, 0.6)
        wp = pullback(w, MeasurePreservingMap.stretch_mod(2))
        assert wp.partition.breakpoints == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert np.array_equal(wp.values, np.tile(w.values, (2, 2)))

    def test_constant_invariant(self):
        w = StepGraphon(BlockPartition((0.0, 1.0)), np.array([[0.4]]))
        wp = pullback(w, MeasurePreservingMap.stretch_mod(3))
        assert np.all(wp.values == 0.4)

    @given(step_graphons(max_blocks=4), st.integers(2, 4), st.data())
    def test_pointwise_identity(self, w, m, data):
        phi = MeasurePreservingMap.stretch_mod(m)
        wp = pullback(w, phi)
        xs = data.draw(
            st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20), label="points"
        )
        for x, y in zip(xs, reversed(xs)):
            assert wp.eval(x, y) == w.eval(phi.apply(x), phi.apply(y))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        w = two_block(0.2, 0.5, 0.8, split=0.25)
        path = tmp_path / "w.json"
        save_step_graphon(w, path)
        w2 = load_step_graphon(path)
        assert w2.partition.breakpoints == w.partition.breakpoints
        assert np.array_equal(w2.values, w.values)

    def test_dict_round_trip(self):
        w = two_block(0.0, 1.0, 0.5)
        assert np.array_equal(step_graphon_from_dict(step_graphon_to_dict(w)).values, w.values)

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"breakpoints": [0, 1]},
            {"breakpoints": [0, 1], "values": [[0.5]], "extra": 1},
            {"breakpoints": [0, 1], "values": [["x"]]},
            {"breakpoints": [0, 1], "values": [[0.5], [0.5]]},
            {"breakpoints": "nope", "values": [[0.5]]},
        ],
    )
    def test_bad_documents(self, doc):
        with pytest.raises(ValidationError):
            step_graphon_from_dict(doc)

    def test_bad_files(self, tmp_path):
        with pytest.raises(ValidationError):
            load_step_graphon(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValidationError):
            load_step_graphon(bad)

    def test_json_output_stable(self, tmp_path):
        w = two_block(0.2, 0.5, 0.8)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_step_graphon(w, p1)
        save_step_graphon(w, p2)
        assert p1.read_bytes() == p2.read_bytes()
        json.loads(p1.read_text())
