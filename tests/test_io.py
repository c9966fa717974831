"""Graph and matrix file formats: edge lists, CSV, and the GML subset."""

import gzip
import io
import os
import re
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st

from graphtree import (
    SmoothingConfig,
    ValidationError,
    edge_probabilities,
    estimate_edge_probabilities,
    load_adjacency_csv,
    load_edge_list,
    load_gml_subset,
    load_matrix_csv,
    sample_graph,
    sample_latents,
    save_adjacency_csv,
    save_edge_list,
    save_matrix_csv,
)
from graphtree import graph_io
from graphtree.experiments import three_group_graphon
from conftest import random_adjacency
import reference


class TestEdgeList:
    def test_single_edge(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1\n")
        a = load_edge_list(p)
        assert a.shape == (2, 2)
        assert a[0, 1] == 1 and a[1, 0] == 1
        assert a.dtype == np.int8

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("# a triangle\n\n0 1\n1 2\n\n# tail comment\n0 2\n")
        a = load_edge_list(p)
        assert a.sum() == 6

    def test_round_trip(self, tmp_path):
        a = random_adjacency(np.random.default_rng(0), 9, p=0.4)
        if a[:, -1].sum() == 0:  # format cannot carry an isolated last node
            a[0, -1] = a[-1, 0] = 1
        p = tmp_path / "g.edges"
        save_edge_list(p, a)
        assert np.array_equal(load_edge_list(p), a)

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_bytes_match_savetxt(self, tmp_path, seed):
        # "u v" per edge, u < v, in row-major order; seed None is a one-edge graph
        if seed is None:
            a = np.zeros((5, 5), dtype=np.int8)
            a[1, 4] = a[4, 1] = 1
        else:
            rng = np.random.default_rng(seed)
            a = random_adjacency(rng, int(rng.integers(10, 60)), p=float(rng.uniform(0.05, 0.6)))
        np.savetxt(tmp_path / "want", np.argwhere(np.triu(a, 1)), fmt="%d", delimiter=" ")
        save_edge_list(tmp_path / "by_path", a)
        with open(tmp_path / "by_file", "w") as fh:
            save_edge_list(fh, a)
        want = (tmp_path / "want").read_bytes()
        assert (tmp_path / "by_path").read_bytes() == want
        assert (tmp_path / "by_file").read_bytes() == want

    @pytest.mark.parametrize("by_path", [True, False])
    def test_isolated_last_node_refused(self, tmp_path, by_path):
        # n is one more than the largest id, so node 4 would be dropped
        a = np.zeros((5, 5), dtype=np.int8)
        a[1, 3] = a[3, 1] = 1
        p = tmp_path / "g.edges"
        with pytest.raises(ValidationError, match="node 4 has no edge.*adjacency CSV"):
            if by_path:
                save_edge_list(p, a)
            else:
                with open(p, "w") as fh:
                    save_edge_list(fh, a)
        assert (not p.exists()) if by_path else (p.read_bytes() == b"")

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("# nothing here\n")
        with pytest.raises(ValidationError, match="no edges"):
            load_edge_list(p)

    def test_self_loop_rejected(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1\n3 3\n")
        with pytest.raises(ValidationError, match=r"g\.edges:2: self loop"):
            load_edge_list(p)

    @pytest.mark.parametrize("line", ["0 1 2", "a b", "0 -1", "0"])
    def test_bad_lines_carry_line_numbers(self, tmp_path, line):
        p = tmp_path / "g.edges"
        p.write_text(f"0 1\n{line}\n")
        with pytest.raises(ValidationError, match=":2:"):
            load_edge_list(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_edge_list(tmp_path / "absent.edges")

    @pytest.mark.parametrize("text, want", [
        # None: reference.edge_list_by_lines' matrix; a list: the edges u < v; a str: the error
        ("0 1\n", None),
        ("0 1", None),
        ("\n\n  0\t1  \r\n# note 7 7\r\n\t# indented 3 3\n2 1\n\n", None),
        ("000000000000000003 000000000000000000\n", None),
        ("0\u20031\n", None),
        ("0 +3\n", [(0, 3)]),
        ("007 1\n", [(1, 7)]),
        ("0 1 # note\n", [(0, 1)]),
        ("1_0 2\n", ":1: node ids must be integers"),  # spellings only int() accepts
        ("\u0663 1\n", ":1: node ids must be integers"),
        ("\uff15 1\n", ":1: node ids must be integers"),
        ("12345678901234567890 2\n", ":1: node ids must be integers"),  # beyond int64
        ("1234567890123456789 2\n5 5\n", ":2: self loop"),
        ("0 1\n2 2\n", ":2: self loop"),
        pytest.param("0 1\n" * 5000 + "2 2\n", ":5001: self loop", id="late-self-loop"),
        pytest.param("# c\n" * 5000 + "0 1\nx y\n", ":5002: node ids must be integers",
                     id="late-bad-id"),
        ("# only a comment\n\n", "no edges"),
        ("", "no edges"),
    ], ids=lambda v: "edges" if isinstance(v, list) else None)
    def test_grammar(self, tmp_path, text, want):
        p = tmp_path / "g.edges"
        p.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's "no data" warning must not leak
            if isinstance(want, str):
                with pytest.raises(ValidationError, match=want):
                    load_edge_list(p)
                return
            got = load_edge_list(p)
        assert got.dtype == np.int8
        if want is None:
            assert np.array_equal(got, reference.edge_list_by_lines(p))
        else:
            assert [tuple(e) for e in np.argwhere(np.triu(got)).tolist()] == want

    def test_undecodable_tail_still_names_the_first_bad_line(self, tmp_path):
        # the line loop decodes as it goes, so an error on line 2 comes before
        # the bad byte near the end; the one-pass read must not change that
        p = tmp_path / "g.edges"
        p.write_bytes(b"0 1\n2 2\n" + b"0 1\n" * 5000 + b"\xff\n")
        with pytest.raises(ValidationError, match=r"g\.edges:2: self loop"):
            reference.edge_list_by_lines(p)
        with pytest.raises(ValidationError, match=r"g\.edges:2: self loop"):
            load_edge_list(p)

    @pytest.mark.parametrize("data, where", [
        (b"0 1\n# caf\xe9\n1 2\n", ":2: cannot decode byte 0xe9"),  # in a comment too
        (b"0 1\n" * 5000 + b"2 3 \x80\n", ":5001: cannot decode byte 0x80"),
    ], ids=["comment", "late"])
    def test_undecodable_byte_names_its_line(self, tmp_path, data, where):
        p = tmp_path / "g.edges"
        p.write_bytes(data)
        with pytest.raises(ValidationError) as want:
            reference.edge_list_by_lines(p)
        with pytest.raises(ValidationError) as got:
            load_edge_list(p)
        assert str(got.value) == str(want.value)
        assert f"g.edges{where}" in str(got.value)


# Line kinds for the differential test: blank lines, comments, edges, other
# spellings both parsers accept or both reject, and every error kind. A file
# mixing them must read exactly as reference.edge_list_by_lines reads it.
_SPACES = st.sampled_from(["", " ", "\t", "  ", " \t "])
_SEPS = st.sampled_from([" ", "\t", "  ", " \t"])
_IDS = st.integers(0, 24)
_EXOTIC_IDS = st.sampled_from(["+3", "007", "0x1"])
_LINES = st.one_of(
    st.builds(lambda a, u, s, v, b: f"{a}{u}{s}{v}{b}", _SPACES, _IDS, _SEPS, _IDS, _SPACES),
    st.builds(lambda a, c: f"{a}#{c}", _SPACES, st.sampled_from(["", " 1 2", "##", " x y z"])),
    _SPACES,
    st.builds(lambda u, v: f"{u} {v}", _EXOTIC_IDS, _IDS),
    st.builds(lambda u, v: f"{u} {v}", _IDS, _EXOTIC_IDS),
    st.sampled_from([
        "1 2 3",  # three tokens
        "a 2",  # not an integer
        "1.5 2",
        "-1 2",  # negative
        "4 4",  # self loop
        "7",
        "0\u20032",  # em space: whitespace to str.split and to numpy alike
        "0\x0c2",
    ]),
)


@given(st.lists(_LINES, max_size=12), st.sampled_from(["\n", "\r\n", "\r"]), st.booleans())
@settings(max_examples=300, deadline=None)
def test_edge_list_matches_line_loop(lines, newline, final_newline):
    text = newline.join(lines) + (newline if final_newline and lines else "")
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "g.edges")
        with open(p, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        try:
            want = reference.edge_list_by_lines(p)
        except ValidationError as e:
            with pytest.raises(type(e)) as got:
                load_edge_list(p)
            assert str(got.value) == str(e)
        else:
            got = load_edge_list(p)
            assert got.dtype == np.int8 and np.array_equal(got, want)


class TestAdjacencyCsv:
    def test_round_trip(self, tmp_path):
        a = random_adjacency(np.random.default_rng(1), 6)
        p = tmp_path / "a.csv"
        save_adjacency_csv(p, a)
        assert np.array_equal(load_adjacency_csv(p), a)

    def test_rejects_nonbinary(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("0,2\n2,0\n")
        with pytest.raises(ValidationError):
            load_adjacency_csv(p)

    def test_rejects_asymmetric(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("0,1\n0,0\n")
        with pytest.raises(ValidationError):
            load_adjacency_csv(p)

    def test_rejects_nonsquare(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("0,1,0\n1,0,1\n")
        with pytest.raises(ValidationError, match="matrix must be square"):
            load_adjacency_csv(p)

    def test_rejects_text(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("x,y\n1,2\n")
        with pytest.raises(ValidationError, match="numeric"):
            load_adjacency_csv(p)


class TestMatrixCsv:
    def test_fixed_format_bytes(self, tmp_path):
        p = tmp_path / "m.csv"
        save_matrix_csv(p, np.array([[1 / 3, 0.5], [1e-7, 123456789.0]]))
        assert p.read_bytes() == b"0.333333,0.5\n1e-07,1.23457e+08\n"

    def test_rejects_ragged_shape(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("0.1,0.2,0.3\n0.4,0.5,0.6\n")
        with pytest.raises(ValidationError, match="square"):
            load_matrix_csv(p)

    @pytest.mark.parametrize("load", [load_matrix_csv, load_adjacency_csv])
    def test_reads_only_the_named_file(self, tmp_path, load):
        # numpy's opener falls back to a compressed sibling of a missing name
        with gzip.open(tmp_path / "m.csv.gz", "wt") as fh:
            fh.write("0,1\n1,0\n")
        with pytest.raises(ValidationError, match="cannot read"):
            load(tmp_path / "m.csv")


class TestWritersTakeOpenFiles:
    @pytest.mark.parametrize("save", [save_edge_list, save_adjacency_csv, save_matrix_csv])
    def test_same_bytes_as_a_path(self, tmp_path, save):
        a = random_adjacency(np.random.default_rng(4), 7, p=0.5)
        save(tmp_path / "by_path", a)
        with open(tmp_path / "by_file", "w") as fh:
            save(fh, a)
        assert (tmp_path / "by_file").read_bytes() == (tmp_path / "by_path").read_bytes()


def savetxt_bytes(x, fmt):
    buf = io.StringIO()
    np.savetxt(buf, x, fmt=fmt, delimiter=",")
    return buf.getvalue().encode()


@pytest.fixture(scope="module")
def phats():
    """P-hat of both estimators on three-group graphs. Both sizes end in a
    ragged row block: 2**16 values make blocks of 127 rows at n = 513 and of
    65 rows at n = 1000."""
    out = {}
    for n in (513, 1000):
        a = sample_graph(edge_probabilities(three_group_graphon(), sample_latents(n, 7)), 8)
        for variant in ("original", "modified"):
            out[variant, n] = estimate_edge_probabilities(a, SmoothingConfig(C=0.1,
                                                                             variant=variant))
    return out


# values whose text is easy to get wrong: signed zeros and infinities, NaNs
# with either sign and another payload, subnormals, and exact decimal ties
# at the sixth significant digit (2**-9, 2**-10, 1000005)
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
           2.2250738585072014e-308 / 3, 1.953125e-3, 9.765625e-4, 1000005.0, 1e300,
           *np.array([0x7FF8000000000001, 0xFFF0000000000001], dtype=np.uint64).view(float)]


class TestWritersMatchSavetxt:
    """np.savetxt(dest, x, fmt, delimiter=",") is the writers' byte oracle."""

    @settings(max_examples=150)
    @given(m=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                        elements=st.floats() | st.sampled_from(SPECIAL)),
           block_values=st.sampled_from([1, 5, 1 << 16]))
    def test_float_matrices(self, m, block_values):
        # small blocks put the special values on either side of a block edge
        with mock.patch.object(graph_io, "_BLOCK_VALUES", block_values):
            buf = io.StringIO()
            save_matrix_csv(buf, m)
        assert buf.getvalue().encode() == savetxt_bytes(m, "%.6g")

    @pytest.mark.parametrize("variant", ["original", "modified"])
    @pytest.mark.parametrize("n", [513, 1000])
    def test_phat(self, phats, tmp_path, variant, n):
        m = phats[variant, n]
        save_matrix_csv(tmp_path / "phat.csv", m)
        assert (tmp_path / "phat.csv").read_bytes() == savetxt_bytes(m, "%.6g")

    @pytest.mark.parametrize("shape", [(1, 1), (1, 70000), (70000, 1), (70000,), (3, 0), (0, 3)])
    def test_shapes(self, tmp_path, shape):
        m = np.random.default_rng(3).random(shape)
        save_matrix_csv(tmp_path / "m.csv", m)
        assert (tmp_path / "m.csv").read_bytes() == savetxt_bytes(m, "%.6g")

    def test_adjacency(self, tmp_path):
        a = random_adjacency(np.random.default_rng(5), 300, p=0.3)
        save_adjacency_csv(tmp_path / "a.csv", a)
        save_matrix_csv(tmp_path / "m.csv", a)
        assert (tmp_path / "a.csv").read_bytes() == savetxt_bytes(a, "%d")
        assert (tmp_path / "m.csv").read_bytes() == savetxt_bytes(a, "%.6g")

    def test_open_file(self, phats, tmp_path):
        m = phats["original", 513]
        with open(tmp_path / "phat.csv", "w") as fh:
            fh.write("# kept\n")
            save_matrix_csv(fh, m)
        assert (tmp_path / "phat.csv").read_bytes() == b"# kept\n" + savetxt_bytes(m, "%.6g")

    def test_compressed_name(self, tmp_path):
        # numpy's opener compresses by the suffix of the name
        m = np.random.default_rng(4).random((40, 30))
        save_matrix_csv(tmp_path / "phat.csv.gz", m)
        with gzip.open(tmp_path / "phat.csv.gz") as fh:
            assert fh.read() == savetxt_bytes(m, "%.6g")

    def test_rejects_three_dimensions(self, tmp_path):
        with pytest.raises(ValueError, match="Expected 1D or 2D array, got 3D"):
            save_matrix_csv(tmp_path / "m.csv", np.zeros((2, 2, 2)))

    def test_peak_memory_is_bounded_by_the_row_blocks(self, phats, tmp_path):
        """The write holds one block of about 2**16 values at a time.

        Measured at 4.2 MiB traced on the n = 1000 original P-hat; one
        np.unique over the whole matrix peaks at about 39 MiB.
        """
        m = phats["original", 1000]
        tracemalloc.start()
        try:
            save_matrix_csv(tmp_path / "phat.csv", m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def loadtxt_outcome(path):
    """What load_matrix_csv must do with path, from np.loadtxt of the whole file."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            m = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as e:
            return f"{path}: not a numeric CSV matrix: {e}"
    if not m.size:
        return f"{path}: no rows"
    if m.shape[0] != m.shape[1]:
        return f"{path}: matrix must be square, got {m.shape}"
    return m


def _square_rows(n, edit=None, at=0):
    """The n lines of a random n x n %.17g matrix, line `at` passed through edit."""
    rows = [",".join("%.17g" % v for v in row) for row in np.random.default_rng(5).random((n, n))]
    if edit:
        rows[at] = edit(rows[at])
    return "".join(row + "\n" for row in rows)


class TestMatrixCsvLoad:
    """load_matrix_csv reads in row blocks what np.loadtxt reads whole, errors included."""

    @pytest.mark.parametrize("read_values", [1, 13, graph_io._READ_VALUES])
    @pytest.mark.parametrize("text", [
        "# header\n0.5,1\n\n1, 0.25 # tail\n\n",
        "1,2\r\n3,4",
        "7\n",
        _square_rows(9),
        _square_rows(9, lambda row: "", at=8),  # a row short
        _square_rows(9) + "1" + ",1" * 8 + "\n",  # a row over
        _square_rows(9) + "x\n",
        _square_rows(9, lambda row: row.rsplit(",", 1)[0], at=4),  # ragged in a middle block
        _square_rows(9, lambda row: row + ",1", at=8),  # ragged last row
        _square_rows(9, lambda row: "nope," + row.split(",", 1)[1], at=5),
        "1,2,3\n4,5,6\n",
        "\n\n# only comments\n",
    ])
    def test_matches_loadtxt_of_the_whole_file(self, tmp_path, monkeypatch, read_values, text):
        monkeypatch.setattr(graph_io, "_READ_VALUES", read_values)
        p = tmp_path / "m.csv"
        p.write_text(text, newline="")
        want = loadtxt_outcome(p)
        if isinstance(want, str):
            with pytest.raises(ValidationError) as err:
                load_matrix_csv(p)
            assert str(err.value) == want
        else:
            got = load_matrix_csv(p)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_undecodable_bytes_in_a_later_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(graph_io, "_READ_VALUES", 2)
        p = tmp_path / "m.csv"
        p.write_bytes(b"1,2,3\n4,5,6\n7,8,\xff\n")
        with pytest.raises(ValidationError, match="not a numeric CSV matrix: 'utf-8' codec"):
            load_matrix_csv(p)

    @pytest.mark.parametrize("n, fmt", [(1200, "%.17g"), (1000, "%.6g")])
    def test_peak_memory_within_1_12_of_the_result(self, phats, tmp_path, n, fmt):
        """The result is the one n x n array; the text is parsed a block at a time.

        np.loadtxt of the whole file peaked at 1.21 and 1.18 times the
        result's 8 n^2 bytes on these inputs, the blocked read at 1.04. The
        n = 1200 matrix stands for the 17-digit nested-graphon input and the
        n = 1000 one is the original estimator's P-hat at 6 digits.
        """
        if n == 1000:
            m = phats["original", n]
        else:
            m = np.random.default_rng(6).integers(0, 97, size=(n, n)) / 97
        p = tmp_path / "m.csv"
        graph_io._write_rows(p, m, fmt)
        tracemalloc.start()
        try:
            got = load_matrix_csv(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.12 * 8 * n * n, f"peak {peak / (8 * n * n):.3f} x the result"
        if fmt == "%.17g":
            assert got.tobytes() == m.tobytes()


MINIMAL_GML = """\
graph [
  node [ id 0 ]
  node [ id 1 ]
  edge [ source 0 target 1 ]
]
"""


class TestGml:
    def test_minimal(self, tmp_path):
        p = tmp_path / "g.gml"
        p.write_text(MINIMAL_GML)
        a, labels = load_gml_subset(p)
        assert np.array_equal(a, [[0, 1], [1, 0]])
        assert labels == ["0", "1"]

    def test_noncontiguous_ids_remap_densely(self, tmp_path):
        p = tmp_path / "g.gml"
        p.write_text(
            'graph [\n'
            '  node [ id 10 label "ten" ]\n'
            '  node [ id 3 label "three" ]\n'
            '  node [ id 7 ]\n'
            '  edge [ source 10 target 3 ]\n'
            '  edge [ source 7 target 10 ]\n'
            ']\n'
        )
        a, labels = load_gml_subset(p)
        assert labels == ["three", "7", "ten"]
        want = np.zeros((3, 3), dtype=np.int8)
        want[0, 2] = want[2, 0] = 1
        want[1, 2] = want[2, 1] = 1
        assert np.array_equal(a, want)

    def test_quoted_labels_with_spaces(self, tmp_path):
        p = tmp_path / "g.gml"
        p.write_text(
            'graph [\n'
            '  directed 0\n'
            '  node [ id 0 label "Alpha Beta" ]\n'
            '  node [ id 1 label "Gamma" ]\n'
            '  edge [ source 0 target 1 ]\n'
            ']\n'
        )
        _, labels = load_gml_subset(p)
        assert labels == ["Alpha Beta", "Gamma"]

    def test_directed_duplicates_collapse_with_warning(self, tmp_path):
        p = tmp_path / "g.gml"
        p.write_text(
            'graph [\n'
            '  directed 1\n'
            '  node [ id 0 ]\n'
            '  node [ id 1 ]\n'
            '  edge [ source 0 target 1 ]\n'
            '  edge [ source 1 target 0 ]\n'
            ']\n'
        )
        with pytest.warns(UserWarning, match="duplicate"):
            a, _ = load_gml_subset(p)
        assert a.sum() == 2

    def test_unknown_edge_endpoint(self, tmp_path):
        p = tmp_path / "g.gml"
        p.write_text("graph [\n  node [ id 0 ]\n  edge [ source 0 target 5 ]\n]\n")
        with pytest.raises(ValidationError, match="unknown node id 5"):
            load_gml_subset(p)

    def test_node_without_id(self, tmp_path):
        p = tmp_path / "g.gml"
        p.write_text('graph [\n  node [ label "x" ]\n]\n')
        with pytest.raises(ValidationError, match="without id"):
            load_gml_subset(p)

    def test_duplicate_node_id(self, tmp_path):
        p = tmp_path / "g.gml"
        p.write_text("graph [\n  node [ id 0 ]\n  node [ id 0 ]\n]\n")
        with pytest.raises(ValidationError, match="duplicate node id"):
            load_gml_subset(p)

    def test_self_loop(self, tmp_path):
        p = tmp_path / "g.gml"
        p.write_text("graph [\n  node [ id 0 ]\n  edge [ source 0 target 0 ]\n]\n")
        with pytest.raises(ValidationError, match="self loop"):
            load_gml_subset(p)

    @pytest.mark.parametrize("text, message", [
        # cut off inside its last edge, which would otherwise leave node 2 isolated
        ("graph [ node [ id 0 ] node [ id 1 ] node [ id 2 ] edge [ source 0 target 1 ] "
         "edge [ source 1 target 2", "edge block still open at end of file"),
        ("graph [\n  node [ id 0 ]\n", "graph block still open at end of file"),
        ("graph [\n  node [ id 0 ] ]\n  node [ id 1 ]\n]\n", "']' closes no open block"),
    ], ids=["cut-edge", "cut-graph", "stray-close"])
    def test_unbalanced_blocks(self, tmp_path, text, message):
        p = tmp_path / "g.gml"
        p.write_text(text)
        with pytest.raises(ValidationError, match=re.escape(f"{p}: {message}")):
            load_gml_subset(p)

    def test_no_nodes(self, tmp_path):
        p = tmp_path / "g.gml"
        p.write_text("graph [\n]\n")
        with pytest.raises(ValidationError, match="no node records"):
            load_gml_subset(p)

    def test_nested_blocks_skipped(self, tmp_path):
        # graphics blocks as yEd and Cytoscape write them, before and after the ids
        p = tmp_path / "g.gml"
        p.write_text(
            'graph [\n'
            '  node [ graphics [ x 1.0 y 2.0 ] id 0 label "a" ]\n'
            '  node [ id 1 label "b" graphics [ x 3.0 y 4.0 ] ]\n'
            '  node [ id 2 ]\n'
            '  edge [ graphics [ width 1 ] source 0 target 1 ]\n'
            '  edge [ source 1 target 2 graphics [ Line [ point [ x 1 y 2 ] ] ] ]\n'
            ']\n'
        )
        a, labels = load_gml_subset(p)
        assert labels == ["a", "b", "2"]
        assert np.array_equal(a, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    def test_other_attributes_skipped(self, tmp_path):
        p = tmp_path / "g.gml"
        p.write_text(
            'Creator "someone"\n'
            'graph [\n'
            '  comment "league"\n'
            '  node [ id 0 value 3 ]\n'
            '  node [ id 1 value 4 ]\n'
            '  edge [ source 0 target 1 weight 2 ]\n'
            ']\n'
        )
        a, _ = load_gml_subset(p)
        assert a.sum() == 2
