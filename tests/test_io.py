"""Graph and matrix file formats: edge lists, CSV, and the GML subset."""

import numpy as np
import pytest

from graphtree import (
    ValidationError,
    load_adjacency_csv,
    load_edge_list,
    load_gml_subset,
    load_matrix_csv,
    save_adjacency_csv,
    save_edge_list,
    save_matrix_csv,
)
from conftest import random_adjacency


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


class TestWritersTakeOpenFiles:
    @pytest.mark.parametrize("save", [save_edge_list, save_adjacency_csv, save_matrix_csv])
    def test_same_bytes_as_a_path(self, tmp_path, save):
        a = random_adjacency(np.random.default_rng(4), 7, p=0.5)
        save(tmp_path / "by_path", a)
        with open(tmp_path / "by_file", "w") as fh:
            save(fh, a)
        assert (tmp_path / "by_file").read_bytes() == (tmp_path / "by_path").read_bytes()


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
        g = load_gml_subset(p)
        assert np.array_equal(g.adjacency, [[0, 1], [1, 0]])
        assert g.labels == ("0", "1")
        assert g.id_map == {0: 0, 1: 1}

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
        g = load_gml_subset(p)
        assert g.id_map == {3: 0, 7: 1, 10: 2}
        assert g.labels == ("three", "7", "ten")
        want = np.zeros((3, 3), dtype=np.int8)
        want[0, 2] = want[2, 0] = 1
        want[1, 2] = want[2, 1] = 1
        assert np.array_equal(g.adjacency, want)

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
        g = load_gml_subset(p)
        assert g.labels == ("Alpha Beta", "Gamma")

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
            g = load_gml_subset(p)
        assert g.adjacency.sum() == 2

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

    def test_no_nodes(self, tmp_path):
        p = tmp_path / "g.gml"
        p.write_text("graph [\n]\n")
        with pytest.raises(ValidationError, match="no node records"):
            load_gml_subset(p)

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
        g = load_gml_subset(p)
        assert g.adjacency.sum() == 2
