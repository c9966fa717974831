"""Command line interface, exercised through click's test runner.

Exit code contract: 0 success, 2 validation failure, 1 unexpected error.
"""

import csv
import io
import json
import logging
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from graphtree import (
    Dendrogram,
    ExperimentConfig,
    SmoothingConfig,
    edge_probabilities,
    estimate_edge_probabilities,
    run_synthetic_experiment,
    sample_graph,
    sample_latents,
    save_adjacency_csv,
    save_edge_list,
    step_graphon_to_dict,
)
from graphtree import experiments
from graphtree.cli import main
from graphtree.experiments import three_group_graphon
from conftest import random_step_graphon


@pytest.fixture(autouse=True)
def reset_root_logging():
    # main() installs a stderr handler via basicConfig; drop it after each
    # test so the next invocation binds the next runner's stream
    root = logging.getLogger()
    before = list(root.handlers)
    yield
    for h in root.handlers[:]:
        if h not in before:
            root.removeHandler(h)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def graphon_file(tmp_path):
    p = tmp_path / "w.json"
    p.write_text(json.dumps({"breakpoints": [0.0, 0.5, 1.0],
                             "values": [[0.8, 0.2], [0.2, 0.8]]}))
    return str(p)


@pytest.fixture
def graph30_file(tmp_path):
    # three planted groups of ten; h = C * sqrt(ln 30 / 30) is 33.7 at C = 100
    rng = np.random.default_rng(1)
    g = np.arange(30) % 3
    a = np.triu(rng.random((30, 30)) < np.where(g[:, None] == g[None], 0.8, 0.1), 1)
    iu, ju = np.nonzero(a)
    p = tmp_path / "g30.edges"
    p.write_text("".join(f"{u} {v}\n" for u, v in zip(iu, ju)))
    return str(p)


@pytest.fixture
def k5_file(tmp_path):
    p = tmp_path / "k5.edges"
    p.write_text("".join(f"{u} {v}\n" for u in range(5) for v in range(u + 1, 5)))
    return str(p)


class TestValidate:
    def test_ok(self, runner, graphon_file):
        res = runner.invoke(main, ["graphon", "validate", graphon_file])
        assert res.exit_code == 0
        assert "valid step graphon: 2 blocks" in res.stdout

    def test_invalid_document(self, runner, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"breakpoints": [0.0, 1.0], "values": [[1.5]]}))
        res = runner.invoke(main, ["graphon", "validate", str(p)])
        assert res.exit_code == 2
        assert "error:" in res.stderr

    def test_missing_file(self, runner, tmp_path):
        res = runner.invoke(main, ["graphon", "validate", str(tmp_path / "nope.json")])
        assert res.exit_code == 2

    def test_bool_is_not_a_number(self, runner, tmp_path):
        p = tmp_path / "bool.json"
        p.write_text('{"breakpoints": [0, true], "values": [[true]]}')
        res = runner.invoke(main, ["graphon", "validate", str(p)])
        assert res.exit_code == 2
        assert "breakpoints must be a list of numbers" in res.stderr


class TestSample:
    def test_deterministic_stdout(self, runner, graphon_file):
        args = ["sample", "--graphon", graphon_file, "--n", "8", "--seed", "7"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.exit_code == 0
        assert a.stdout == b.stdout

    def test_csv_format_parses(self, runner, graphon_file, tmp_path):
        out = tmp_path / "a.csv"
        res = runner.invoke(main, [
            "sample", "--graphon", graphon_file, "--n", "6", "--seed", "1",
            "--format", "csv", "--out", str(out),
        ])
        assert res.exit_code == 0
        a = np.loadtxt(out, delimiter=",")
        assert a.shape == (6, 6)
        assert np.array_equal(a, a.T)
        assert set(np.unique(a)) <= {0.0, 1.0}

    def test_builtin_name(self, runner):
        res = runner.invoke(main, ["sample", "--graphon", "three-group", "--n", "6",
                                   "--seed", "3"])
        assert res.exit_code == 0

    def test_seed_changes_output(self, runner, graphon_file):
        a = runner.invoke(main, ["sample", "--graphon", graphon_file, "--n", "20",
                                 "--seed", "1", "--format", "csv"])
        b = runner.invoke(main, ["sample", "--graphon", graphon_file, "--n", "20",
                                 "--seed", "2", "--format", "csv"])
        assert a.stdout != b.stdout

    def test_zero_nodes_rejected(self, runner):
        res = runner.invoke(main, ["sample", "--graphon", "three-group", "--n", "0",
                                   "--seed", "1"])
        assert res.exit_code == 2
        assert "--n" in res.stderr

    def test_negative_seed_rejected(self, runner):
        res = runner.invoke(main, ["sample", "--graphon", "three-group", "--n", "8",
                                   "--seed", "-1"])
        assert res.exit_code == 2
        assert "--seed" in res.stderr

    @pytest.mark.parametrize("fmt", ["edges", "csv"])
    def test_stdout_matches_file(self, runner, graphon_file, tmp_path, fmt):
        args = ["sample", "--graphon", graphon_file, "--n", "12", "--seed", "5",
                "--format", fmt]
        res = runner.invoke(main, args)
        out = tmp_path / "g.out"
        assert runner.invoke(main, args + ["--out", str(out)]).exit_code == 0
        assert res.exit_code == 0 and res.stdout_bytes == out.read_bytes() != b""

    def test_csv_is_the_graph_an_experiment_cell_links(self, runner, tmp_path, monkeypatch):
        # sample and experiment synthetic each split the seed into the latent
        # and edge streams; this ties the two splits together
        linked = []

        def estimate(a, config):
            linked.append(a.copy())
            return estimate_edge_probabilities(a, config)

        monkeypatch.setattr(experiments, "estimate_edge_probabilities", estimate)
        run_synthetic_experiment(
            ExperimentConfig("three-group", (12, 16), (0, 5), C=0.5, out_dir=str(tmp_path)))
        cells = [(12, 0), (12, 5), (16, 0), (16, 5)]  # grid order, one process
        assert len(linked) == len(cells)
        for (n, seed), a in zip(cells, linked):
            want = io.StringIO()
            save_adjacency_csv(want, a)
            res = runner.invoke(main, ["sample", "--graphon", "three-group", "--n", str(n),
                                       "--seed", str(seed), "--format", "csv"])
            assert res.exit_code == 0
            assert res.stdout == want.getvalue()

    def test_bad_format_rejected(self, runner, graphon_file):
        res = runner.invoke(main, ["sample", "--graphon", graphon_file, "--n", "4",
                                   "--seed", "1", "--format", "dot"])
        assert res.exit_code == 2


class TestEstimate:
    def test_stdout_matches_file(self, runner, graph30_file, tmp_path):
        args = ["estimate", "--input", graph30_file, "--C", "0.5"]
        res = runner.invoke(main, args)
        out = tmp_path / "phat.csv"
        assert runner.invoke(main, args + ["--out", str(out)]).exit_code == 0
        assert res.exit_code == 0 and res.stdout_bytes == out.read_bytes()
        assert np.loadtxt(out, delimiter=",").shape == (30, 30)

    def test_stdout_is_savetxt_of_the_estimate(self, runner, tmp_path):
        # n = 513 writes P-hat in five row blocks, the last one ragged
        n = 513
        a = sample_graph(edge_probabilities(three_group_graphon(), sample_latents(n, 7)), 8)
        path = tmp_path / "g.edges"
        save_edge_list(path, a)
        res = runner.invoke(main, ["estimate", "--input", str(path), "--variant", "original"])
        buf = io.StringIO()
        np.savetxt(buf, estimate_edge_probabilities(a, SmoothingConfig(C=0.1, variant="original")),
                   fmt="%.6g", delimiter=",")
        assert res.exit_code == 0 and res.stdout_bytes == buf.getvalue().encode()

    def test_complete_graph(self, runner, k5_file, tmp_path):
        out = tmp_path / "phat.csv"
        res = runner.invoke(main, ["estimate", "--input", k5_file, "--C", "0.5",
                                   "--out", str(out)])
        assert res.exit_code == 0
        phat = np.loadtxt(out, delimiter=",")
        off = phat[~np.eye(5, dtype=bool)]
        assert np.all(off == 1.0)

    def test_too_small(self, runner, tmp_path):
        p = tmp_path / "tiny.edges"
        p.write_text("0 1\n1 2\n")
        res = runner.invoke(main, ["estimate", "--input", str(p), "--C", "0.5"])
        assert res.exit_code == 2
        assert "needs >= 4" in res.stderr

    def test_bandwidth_over_one(self, runner, graph30_file):
        res = runner.invoke(main, ["estimate", "--input", graph30_file, "--C", "100"])
        assert res.exit_code == 2
        assert "outside (0, 1)" in res.stderr

    def test_negative_c(self, runner, graph30_file):
        res = runner.invoke(main, ["estimate", "--input", graph30_file, "--C", "-1"])
        assert res.exit_code == 2
        assert "C must be positive" in res.stderr

    def test_both_edge_list_readers_agree(self, runner, tmp_path):
        # the same graph written messily (CRLF, comments, blanks, a "+3" id)
        # and as save_edge_list writes it gives the same bytes
        rng = np.random.default_rng(4)
        a = np.triu(rng.random((30, 30)) < 0.3, 1).astype(np.int8)
        a[0, 29] = a[0, 3] = 1
        a = a | a.T
        plain = tmp_path / "plain.edges"
        save_edge_list(plain, a)
        lines = ["# edges, messy", ""]
        for u, v in np.argwhere(np.triu(a, 1)):
            lines.append(f" {u}\t{v} " if (u, v) != (0, 3) else "0 +3")
            if u % 7 == 0:
                lines.append("")
        messy = tmp_path / "messy.edges"
        messy.write_bytes("\r\n".join(lines).encode())
        for variant in ("modified", "original"):
            args = ["estimate", "--C", "0.5", "--variant", variant, "--input"]
            want = runner.invoke(main, args + [str(plain)])
            got = runner.invoke(main, args + [str(messy)])
            assert want.exit_code == 0 and got.exit_code == 0
            assert got.stdout_bytes == want.stdout_bytes

    def test_self_loop_names_its_line(self, runner, tmp_path):
        p = tmp_path / "loop.edges"
        p.write_text("# header\n0 1\n1 2\n2 2\n2 3\n")
        res = runner.invoke(main, ["estimate", "--input", str(p), "--C", "0.5"])
        assert res.exit_code == 2
        assert f"{p}:4: self loops are not allowed" in res.stderr

    @pytest.mark.parametrize("name, data, message", [
        ("big.edges", b"12345678901234567890 1\n", ":1: node ids must be integers"),
        # the id parses, but an n x n matrix of that side cannot exist
        ("huge.edges", b"0 1\n1 1234567890123456789\n", "largest node id 1234567890123456789"),
        ("wide.csv", b"0,1,0\n1,0,1\n", "matrix must be square, got (2, 3)"),
        ("text.edges", b"0 1\n1 2\n\xff\n", ":3: cannot decode byte 0xff"),
        ("empty.csv", b"", "empty.csv: no rows"),
        # too small for every command: 4 nodes to estimate, 2 to cluster or score
        ("one.csv", b"0\n", "got 1"),
        # cut off inside its last edge, which would otherwise leave node 2 isolated
        ("cut.gml", b"graph [ node [ id 0 ] node [ id 1 ] node [ id 2 ] "
                    b"edge [ source 0 target 1 ] edge [ source 1 target 2",
         "cut.gml: edge block still open at end of file"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_bad_input_exits_2(self, runner, tmp_path, name, data, message):
        p = tmp_path / name
        p.write_bytes(data)
        commands = [["estimate", "--input", str(p), "--C", "0.5"]]
        if name.endswith(".csv"):  # a matrix for the commands that read one too
            commands += [["cluster", "--phat", str(p)],
                         ["distortion", "--truth", str(p), "--est", str(p)]]
        for args in commands:
            res = runner.invoke(main, args)
            assert res.exit_code == 2
            assert message in res.stderr
            assert res.stderr.count("\n") == 1  # the error line alone

    def test_original_variant(self, runner, tmp_path):
        p = tmp_path / "tiny.edges"
        p.write_text("0 1\n1 2\n")
        res = runner.invoke(main, ["estimate", "--input", str(p), "--C", "0.5",
                                   "--variant", "original"])
        assert res.exit_code == 0


class TestCluster:
    def test_chain(self, runner, tmp_path):
        p = tmp_path / "sim.csv"
        np.savetxt(p, np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.8], [0.1, 0.8, 1.0]]),
                   fmt="%.6g", delimiter=",")
        tree = tmp_path / "t.json"
        nwk = tmp_path / "t.nwk"
        res = runner.invoke(main, ["cluster", "--phat", str(p), "--tree", str(tree),
                                   "--newick", str(nwk)])
        assert res.exit_code == 0
        doc = json.loads(tree.read_text())
        assert doc == {"left": {"left": 0, "right": 1, "level": 0.9},
                       "right": 2, "level": 0.8}
        assert nwk.read_text() == "((0:0.9,1:0.9):0.8,2:0.8);\n"

    def test_asymmetric_rejected(self, runner, tmp_path):
        p = tmp_path / "sim.csv"
        p.write_text("1,0.5\n0.4,1\n")
        res = runner.invoke(main, ["cluster", "--phat", str(p)])
        assert res.exit_code == 2
        assert "symmetric" in res.stderr

    def test_nan_rejected(self, runner, tmp_path):
        p = tmp_path / "sim.csv"
        p.write_text("0,nan\nnan,0\n")
        for args in (["cluster", "--phat", str(p)],
                     ["distortion", "--truth", str(p), "--est", str(p)]):
            res = runner.invoke(main, args)
            assert res.exit_code == 2
            assert res.stderr == f"error: {p}: matrix holds NaN\n"

    def test_minus_inf_keeps_both_leaves(self, runner, tmp_path):
        p = tmp_path / "sim.csv"
        p.write_text("0,-inf\n-inf,0\n")
        tree = tmp_path / "t.json"
        res = runner.invoke(main, ["cluster", "--phat", str(p), "--tree", str(tree)])
        assert res.exit_code == 0
        assert tree.read_text() == '{"left": 0, "level": -Infinity, "right": 1}\n'


# exact `mergeon --out` documents and `--tree` lines; a random step graphon
# is named by the seed conftest.random_step_graphon draws it from
THREE_GROUP_MERGEON = (
    [0.0, 0.29166666666666663, 0.3333333333333333, 0.375, 0.6666666666666666, 1.0],
    [[0.7, 0.7, 0.5, 0.5, 0.1], [0.7, 0.7, 0.5, 0.5, 0.1], [0.5, 0.5, 0.7, 0.7, 0.1],
     [0.5, 0.5, 0.7, 0.7, 0.1], [0.1, 0.1, 0.1, 0.1, 0.7]],
    '[{"clusters": [[0, 1], [2, 3], [4]], "level": 0.7}, '
    '{"clusters": [[0, 1, 2, 3], [4]], "level": 0.5}, '
    '{"clusters": [[0, 1, 2, 3, 4]], "level": 0.1}]\n',
)
GOLDEN_MERGEONS = {
    "three-group": THREE_GROUP_MERGEON,
    "paper-synthetic": THREE_GROUP_MERGEON,
    "separated-three-block": (
        [0.0, 0.3333333333333333, 0.6666666666666666, 1.0],
        [[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]],
        '[{"clusters": [[0], [1], [2]], "level": 0.9}, '
        '{"clusters": [[0, 1, 2]], "level": 0.05}]\n',
    ),
    3: (
        [0.0, 0.09375, 0.171875, 0.1875, 0.234375, 1.0],
        [[0.6, 0.6, 0.6, 0.6, 0.6], [0.6, 0.8, 0.8, 0.7, 0.8], [0.6, 0.8, 0.9, 0.7, 0.9],
         [0.6, 0.7, 0.7, 0.7, 0.7], [0.6, 0.8, 0.9, 0.7, 0.9]],
        '[{"clusters": [[2, 4]], "level": 0.9}, {"clusters": [[1, 2, 4]], "level": 0.8}, '
        '{"clusters": [[1, 2, 3, 4]], "level": 0.7}, '
        '{"clusters": [[0, 1, 2, 3, 4]], "level": 0.6}]\n',
    ),
    5: (
        [0.0, 0.03125, 0.46875, 0.765625, 0.796875, 1.0],
        [[1.0, 0.0, 0.6, 0.6, 0.6], [0.0, 0.1, 0.0, 0.0, 0.0], [0.6, 0.0, 0.8, 0.8, 0.8],
         [0.6, 0.0, 0.8, 1.0, 1.0], [0.6, 0.0, 0.8, 1.0, 1.0]],
        '[{"clusters": [[0], [3, 4]], "level": 1.0}, {"clusters": [[0], [2, 3, 4]], "level": 0.8}, '
        '{"clusters": [[0, 2, 3, 4]], "level": 0.6}, '
        '{"clusters": [[0, 2, 3, 4], [1]], "level": 0.1}, '
        '{"clusters": [[0, 1, 2, 3, 4]], "level": 0.0}]\n',
    ),
}


def _indented(x, pad):
    """A number or nested list as JSON at indent 2, one element a line."""
    if isinstance(x, list):
        return "[\n" + ",\n".join(pad + "  " + _indented(v, pad + "  ") for v in x) + f"\n{pad}]"
    return repr(x)


class TestMergeon:
    def test_three_group_values(self, runner):
        res = runner.invoke(main, ["mergeon", "--graphon", "three-group"])
        assert res.exit_code == 0
        doc = json.loads(res.stdout)
        lv = doc["levels"]
        assert len(doc["breakpoints"]) == 6
        assert lv[0][1] == 0.7
        assert lv[1][2] == 0.5
        assert lv[0][4] == 0.1
        assert all(lv[i][i] == 0.7 for i in range(5))

    def test_single_block_file(self, runner, tmp_path):
        p = tmp_path / "w.json"
        p.write_text(json.dumps({"breakpoints": [0.0, 1.0], "values": [[0.4]]}))
        res = runner.invoke(main, ["mergeon", "--graphon", str(p)])
        assert json.loads(res.stdout)["levels"] == [[0.4]]

    def test_tree_output(self, runner, tmp_path):
        out = tmp_path / "tree.json"
        res = runner.invoke(main, ["mergeon", "--graphon", "three-group",
                                   "--out", str(tmp_path / "m.json"), "--tree", str(out)])
        assert res.exit_code == 0
        doc = json.loads(out.read_text())
        assert [lv["level"] for lv in doc] == [0.7, 0.5, 0.1]
        assert doc[-1]["clusters"] == [[0, 1, 2, 3, 4]]

    @pytest.mark.parametrize("source", list(GOLDEN_MERGEONS))
    def test_golden_bytes(self, runner, tmp_path, source):
        breakpoints, levels, tree_text = GOLDEN_MERGEONS[source]
        if isinstance(source, int):
            path = tmp_path / "w.json"
            with open(path, "w") as fh:
                json.dump(step_graphon_to_dict(random_step_graphon(np.random.default_rng(source))), fh)
            source = str(path)
        out_text = ('{\n  "breakpoints": ' + _indented(breakpoints, "  ")
                    + ',\n  "levels": ' + _indented(levels, "  ") + "\n}\n")
        tree = tmp_path / "tree.json"
        res = runner.invoke(main, ["mergeon", "--graphon", source, "--tree", str(tree)])
        assert res.exit_code == 0
        assert res.stdout == out_text
        assert tree.read_text() == tree_text


class TestDistortion:
    def test_value(self, runner, tmp_path):
        t = tmp_path / "t.csv"
        e = tmp_path / "e.csv"
        np.savetxt(t, np.array([[1.0, 0.5], [0.5, 1.0]]), fmt="%.6g", delimiter=",")
        np.savetxt(e, np.array([[1.0, 0.6], [0.6, 1.0]]), fmt="%.6g", delimiter=",")
        res = runner.invoke(main, ["distortion", "--truth", str(t), "--est", str(e)])
        assert res.exit_code == 0
        assert res.stdout.strip() == "0.1"

    def test_shape_mismatch(self, runner, tmp_path):
        t = tmp_path / "t.csv"
        e = tmp_path / "e.csv"
        np.savetxt(t, np.eye(2), fmt="%.6g", delimiter=",")
        np.savetxt(e, np.eye(3), fmt="%.6g", delimiter=",")
        res = runner.invoke(main, ["distortion", "--truth", str(t), "--est", str(e)])
        assert res.exit_code == 2


class TestExperiment:
    def test_synthetic_run(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "graphon": "three-group", "n_grid": [8], "seeds": [1, 2], "C": 0.5,
        }))
        out = tmp_path / "out"
        res = runner.invoke(main, ["experiment", "synthetic", "--config", str(cfg),
                                   "--out-dir", str(out)])
        assert res.exit_code == 0
        assert f"wrote 2 records to {out}/records.csv" in res.stdout
        assert (out / "records.csv").exists()
        assert (out / "dendro_n8_seed1.json").exists()

    def test_median_table(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "graphon": "three-group", "n_grid": [8, 12], "seeds": [1, 2, 3], "C": 0.5,
        }))
        out = tmp_path / "out"
        res = runner.invoke(main, ["experiment", "synthetic", "--config", str(cfg),
                                   "--out-dir", str(out)])
        assert res.exit_code == 0
        lines = res.stdout.splitlines()
        assert lines[:3] == [f"wrote 6 records to {out}/records.csv", "",
                             "     n   med max-norm  med distortion      med mse"]
        with open(out / "records.csv") as fh:
            rows = [{k: float(v) for k, v in r.items()} for r in csv.DictReader(fh)]
        for line, n in zip(lines[3:], (8, 12)):
            mine = [r for r in rows if r["n"] == n]
            want = "%6d %14.4g %15.4g %12.4g" % (
                n, *(np.median([r[k] for r in mine])
                     for k in ("max_norm_error", "merge_distortion", "mse")))
            assert line == want
        assert len(lines) == 5

    def test_bad_config(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graphon": "three-group", "n_grid": [8]}))
        res = runner.invoke(main, ["experiment", "synthetic", "--config", str(cfg)])
        assert res.exit_code == 2
        assert "missing config keys" in res.stderr

    def test_bad_grid_leaves_records_untouched(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "out"
        out.mkdir()
        before = b"n,seed,merge_distortion,max_norm_error,mse,wall_time_ms\n8,1,0.5,0.5,0.1,3\n"
        (out / "records.csv").write_bytes(before)
        for grid, message in (({"n_grid": [8, 3], "seeds": [1]}, "needs >= 4 nodes, got 3"),
                              ({"n_grid": [8], "seeds": [1, -3]}, "non-negative, got -3"),
                              ({"n_grid": [8, 8], "seeds": [1]}, "n_grid must be a list without"),
                              ({"n_grid": [8], "seeds": [1, 1]}, "seeds must be a list without")):
            cfg.write_text(json.dumps({"graphon": "three-group", "C": 0.5, **grid}))
            res = runner.invoke(main, ["experiment", "synthetic", "--config", str(cfg),
                                       "--out-dir", str(out)])
            assert res.exit_code == 2
            assert message in res.stderr
            assert (out / "records.csv").read_bytes() == before
            assert [p.name for p in out.iterdir()] == ["records.csv"]

    @pytest.mark.parametrize("extra", [
        {"C": "abc"}, {"workers": "x"}, {"out_dir": None},
        {"n_grid": [64.9, "32"]}, {"seeds": [True, 2.5]}, {"workers": 1.7}, {"C": True},
    ])
    def test_bad_config_value(self, runner, tmp_path, extra):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graphon": "three-group", "n_grid": [8], "seeds": [1],
                                   **extra}))
        res = runner.invoke(main, ["experiment", "synthetic", "--config", str(cfg),
                                   "--out-dir", str(tmp_path / "out")])
        assert res.exit_code == 2
        assert f"{next(iter(extra))} must be" in res.stderr
        assert not (tmp_path / "out").exists()

    def test_unparsable_config(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{broken")
        res = runner.invoke(main, ["experiment", "synthetic", "--config", str(cfg)])
        assert res.exit_code == 2


class TestDataset:
    def test_cluster_run(self, runner, k5_file, tmp_path):
        out = tmp_path / "out"
        res = runner.invoke(main, ["dataset", "cluster", "--input", k5_file,
                                   "--C", "0.3", "--out-dir", str(out)])
        assert res.exit_code == 0
        assert f"dendrogram with 5 leaves -> {out}" in res.stdout
        for name in ("dendrogram.json", "dendrogram.newick", "labels.csv"):
            assert (out / name).exists()

    def test_baseline_flag(self, runner, k5_file, tmp_path):
        out = tmp_path / "out"
        res = runner.invoke(main, ["dataset", "cluster", "--input", k5_file,
                                   "--C", "0.3", "--out-dir", str(out), "--baseline"])
        assert res.exit_code == 0
        assert (out / "baseline_dendrogram.newick").exists()

    def test_cluster_listing(self, runner, graph30_file, tmp_path, caplog):
        # the listing is logged (stderr under the CLI); caplog reads the records
        with caplog.at_level("INFO", logger="graphtree"):
            res = runner.invoke(main, ["dataset", "cluster", "--input", graph30_file,
                                       "--C", "0.5", "--variant", "original",
                                       "--out-dir", str(tmp_path / "out")])
        assert res.exit_code == 0
        assert "dendrogram with 30 leaves" in res.stdout
        d = Dendrogram.from_json((tmp_path / "out" / "dendrogram.json").read_text())
        want = []
        for lam in sorted(set(d.level), reverse=True)[:3]:
            parts = d.cut(lam)
            want.append("level %g: %d clusters" % (lam, len(parts)))
            for part in parts[:12]:
                names = ", ".join(map(str, part[:8])) + (", ..." if len(part) > 8 else "")
                want.append("  [%3d] %s" % (len(part), names))
            if len(parts) > 12:
                want.append("  ... and %d more" % (len(parts) - 12))
        assert caplog.messages[1:] == want
        assert caplog.messages[0].startswith(f"dataset {graph30_file}: n=30")
        assert caplog.messages[1] == "level 0.9375: 27 clusters"
        assert caplog.messages[-1] == "  ... and 13 more"

    @pytest.mark.parametrize("c, message", [("100", "outside (0, 1)"),
                                            ("-1", "C must be positive")])
    def test_bad_c(self, runner, graph30_file, tmp_path, c, message):
        res = runner.invoke(main, ["dataset", "cluster", "--input", graph30_file,
                                   "--C", c, "--out-dir", str(tmp_path / "out")])
        assert res.exit_code == 2
        assert message in res.stderr

    def test_missing_input(self, runner, tmp_path):
        res = runner.invoke(main, ["dataset", "cluster", "--input",
                                   str(tmp_path / "nope.edges")])
        assert res.exit_code == 2


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "graphtree", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "hierarchical graph clustering" in proc.stdout

    def test_unknown_command(self, runner):
        res = runner.invoke(main, ["frobnicate"])
        assert res.exit_code == 2


class TestDeepCluster:
    def test_chain_1500_leaves(self, runner, tmp_path):
        # similarity -max(i, k) makes single linkage add one leaf per level,
        # so the dendrogram is a 1499-level chain
        n = 1500
        k = np.arange(n)
        p = tmp_path / "chain.csv"
        np.savetxt(p, -np.maximum.outer(k, k), fmt="%d", delimiter=",")
        tree = tmp_path / "t.json"
        nwk = tmp_path / "t.nwk"
        res = runner.invoke(main, ["cluster", "--phat", str(p), "--tree", str(tree),
                                   "--newick", str(nwk)])
        assert res.exit_code == 0, res.stderr
        text = tree.read_text()
        assert text.startswith('{"left": ' * (n - 1) + "0, ")
        d = Dendrogram.from_json(text)
        assert d.n == n and d.leaf_order == list(range(n))
        assert d.to_json() + "\n" == text
        assert d.to_newick() + "\n" == nwk.read_text()
