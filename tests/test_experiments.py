"""Synthetic experiment harness and dataset clustering runs."""

import concurrent.futures
import csv
import dataclasses
import re

import numpy as np
import pytest

from graphtree import (
    BUILTIN_GRAPHONS,
    Dendrogram,
    ExperimentConfig,
    RECORD_HEADER,
    RunRecord,
    ValidationError,
    load_graph_file,
    resolve_graphon,
    run_dataset_clustering,
    run_synthetic_experiment,
    save_edge_list,
    separated_three_block_graphon,
    step_graphon_to_dict,
    three_group_graphon,
)
from graphtree import experiments
from reference import group_of_thirds


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def rows_without_wall_time(path):
    return [row[:-1] for row in read_csv_rows(path)]


class TestBuiltinGraphons:
    def test_three_group_structure(self):
        w = three_group_graphon()
        b = w.partition.breakpoints
        assert len(b) == 6
        # groups are blocks {0,1}, {2,3}, {4}; each has total measure 1/3
        assert b[2] - b[0] == pytest.approx(1 / 3, abs=1e-15)
        assert b[4] - b[2] == pytest.approx(1 / 3, abs=1e-15)
        assert b[5] - b[4] == pytest.approx(1 / 3, abs=1e-15)
        assert w.values[0, 0] == 0.7 and w.values[4, 4] == 0.7
        assert w.values[1, 2] == 0.5 and w.values[2, 1] == 0.5
        assert w.values[0, 4] == 0.1

    def test_separated_three_block(self):
        w = separated_three_block_graphon(within=0.8, across=0.2)
        assert w.partition.breakpoints == (0.0, 1 / 3, 2 / 3, 1.0)
        assert np.all(np.diag(w.values) == 0.8)
        assert w.values[0, 1] == 0.2

    def test_paper_synthetic_alias(self):
        assert step_graphon_to_dict(resolve_graphon("paper-synthetic")) == step_graphon_to_dict(
            three_group_graphon()
        )

    def test_resolve_inline_dict(self):
        doc = {"breakpoints": [0.0, 1.0], "values": [[0.4]]}
        assert step_graphon_to_dict(resolve_graphon(doc)) == doc

    def test_resolve_errors(self):
        with pytest.raises(ValidationError, match="unknown graphon"):
            resolve_graphon("no-such-graphon")
        with pytest.raises(ValidationError):
            resolve_graphon([0.0, 1.0])

    def test_builtin_names(self):
        assert {"three-group", "paper-synthetic", "separated-three-block"} <= set(
            BUILTIN_GRAPHONS
        )


class TestExperimentConfig:
    def test_from_dict_minimal(self):
        cfg = ExperimentConfig.from_dict(
            {"graphon": "three-group", "n_grid": [8], "seeds": [1, 2]}
        )
        assert cfg.n_grid == (8,)
        assert cfg.seeds == (1, 2)
        assert cfg.C == 0.1 and cfg.variant == "modified" and cfg.workers == 1

    @pytest.mark.parametrize(
        "doc",
        [
            {"graphon": "three-group", "n_grid": [8], "seeds": [1], "bogus": 1},
            {"graphon": "three-group", "n_grid": [8]},
            {"graphon": "three-group", "n_grid": [], "seeds": [1]},
            {"graphon": "three-group", "n_grid": [8], "seeds": []},
            {"graphon": "three-group", "n_grid": [8], "seeds": [1], "C": 0},
            {"graphon": "three-group", "n_grid": [8], "seeds": [1], "variant": "fancy"},
            {"graphon": "three-group", "n_grid": [8], "seeds": [1], "workers": 0},
            {"graphon": "nope", "n_grid": [8], "seeds": [1]},
            {"graphon": "three-group", "n_grid": None, "seeds": [1]},
            {"graphon": "three-group", "n_grid": ["a"], "seeds": [1]},
            {"graphon": "three-group", "n_grid": "12", "seeds": [1]},
            {"graphon": "three-group", "n_grid": [8], "seeds": [1], "C": "abc"},
            {"graphon": "three-group", "n_grid": [8], "seeds": [1], "C": None},
            {"graphon": "three-group", "n_grid": [8], "seeds": [1], "variant": ["modified"]},
            {"graphon": "three-group", "n_grid": [8], "seeds": [1], "workers": "x"},
            {"graphon": "three-group", "n_grid": [8], "seeds": [1], "workers": 1e400},
            {"graphon": "three-group", "n_grid": [8], "seeds": [1], "out_dir": None},
            # values int() or float() would round or coerce
            {"graphon": "three-group", "n_grid": [64.9, "32"], "seeds": [1]},
            {"graphon": "three-group", "n_grid": [8], "seeds": [True, 2.5]},
            {"graphon": "three-group", "n_grid": [8], "seeds": [1], "workers": 1.7},
            {"graphon": "three-group", "n_grid": [8], "seeds": [1], "workers": True},
            {"graphon": "three-group", "n_grid": [8], "seeds": [1], "C": True},
            {"graphon": "three-group", "n_grid": [8], "seeds": [1], "C": "0.5"},
        ],
    )
    def test_bad_documents(self, doc):
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "kw, match",
        [
            ({"C": float("nan")}, "C must be positive"),
            ({"n_grid": (16, 3)}, "needs >= 4 nodes"),
            ({"C": 50.0, "n_grid": (16,)}, "outside \\(0, 1\\)"),
            ({"seeds": (1.5,)}, "seeds must be a list of integers"),
            ({"seeds": (True,)}, "seeds must be a list of integers"),
            ({"n_grid": (8.5,)}, "n_grid must be a list of integers"),
            ({"C": "0.1"}, "C must be a number"),
            ({"C": 10**400}, "C must be a number"),  # no float holds it
            # a repeated entry would run, write and count one cell twice
            ({"n_grid": (16, 16)}, "n_grid must be a list without repeats"),
            ({"seeds": (1, np.int64(1))}, "seeds must be a list without repeats"),
        ],
        ids=["nan-C", "n-below-minimum", "h-over-one", "float-seed", "bool-seed", "float-n",
             "string-C", "huge-int-C", "repeated-n", "repeated-seed"],
    )
    def test_rejected_on_construction(self, kw, match):
        with pytest.raises(ValidationError, match=match):
            ExperimentConfig(**{"graphon": "three-group", "n_grid": (8,), "seeds": (1,), **kw})

    def test_numpy_integers_accepted(self):
        cfg = ExperimentConfig(graphon="three-group", n_grid=[np.int64(8)], seeds=[np.int64(1)],
                               C=np.int64(1))
        assert cfg.n_grid == (8,) and cfg.seeds == (1,) and cfg.C == 1.0
        assert isinstance(cfg.n_grid, tuple) and isinstance(cfg.C, float)

    def test_header_matches_record_fields(self):
        assert RECORD_HEADER.split(",") == [f.name for f in dataclasses.fields(RunRecord)]


class TestSyntheticRuns:
    def make_cfg(self, out_dir, **kw):
        base = dict(
            graphon="three-group", n_grid=(12, 8), seeds=(2, 1), C=0.5, out_dir=str(out_dir)
        )
        base.update(kw)
        return ExperimentConfig(**base)

    def test_smoke(self, tmp_path):
        cfg = self.make_cfg(tmp_path / "out")
        records = run_synthetic_experiment(cfg)
        assert [(r.n, r.seed) for r in records] == [(8, 1), (8, 2), (12, 1), (12, 2)]
        for r in records:
            assert 0.0 <= r.merge_distortion <= 1.0
            assert 0.0 <= r.max_norm_error <= 1.0
            assert r.mse >= 0.0

        rows = read_csv_rows(tmp_path / "out" / "records.csv")
        assert rows[0] == RECORD_HEADER.split(",")
        assert len(rows) == 5
        assert [row[:2] for row in rows[1:]] == [["8", "1"], ["8", "2"], ["12", "1"], ["12", "2"]]
        for n, seed in [(8, 1), (8, 2), (12, 1), (12, 2)]:
            text = (tmp_path / "out" / f"dendro_n{n}_seed{seed}.json").read_text()
            assert Dendrogram.from_json(text).n == n

    def test_deterministic_modulo_wall_time(self, tmp_path):
        r1 = run_synthetic_experiment(self.make_cfg(tmp_path / "a"))
        r2 = run_synthetic_experiment(self.make_cfg(tmp_path / "b"))
        assert rows_without_wall_time(tmp_path / "a" / "records.csv") == rows_without_wall_time(
            tmp_path / "b" / "records.csv"
        )
        assert [dataclasses.replace(r, wall_time_ms=0) for r in r1] == [
            dataclasses.replace(r, wall_time_ms=0) for r in r2
        ]
        for n, seed in [(8, 1), (12, 2)]:
            name = f"dendro_n{n}_seed{seed}.json"
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_worker_count_does_not_change_results(self, tmp_path):
        run_synthetic_experiment(self.make_cfg(tmp_path / "serial", workers=1))
        run_synthetic_experiment(self.make_cfg(tmp_path / "pool", workers=2))
        assert rows_without_wall_time(
            tmp_path / "serial" / "records.csv"
        ) == rows_without_wall_time(tmp_path / "pool" / "records.csv")
        for n, seed in [(8, 1), (8, 2), (12, 1), (12, 2)]:
            name = f"dendro_n{n}_seed{seed}.json"
            assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "pool" / name).read_bytes()

    @pytest.mark.parametrize("n_grid, seeds, size", [((8,), (1,), None), ((12, 8), (2, 1), 4)])
    def test_pool_has_at_most_one_worker_per_cell(self, tmp_path, monkeypatch, n_grid, seeds,
                                                  size):
        # the stand-in records the pool size and maps in this process; none is forked
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = self.make_cfg(tmp_path / "out", n_grid=n_grid, seeds=seeds, workers=16)
        assert len(run_synthetic_experiment(cfg)) == len(n_grid) * len(seeds)
        assert sizes == ([] if size is None else [size])

    def test_original_variant_runs(self, tmp_path):
        cfg = self.make_cfg(tmp_path / "out", variant="original", n_grid=(8,), seeds=(1,))
        (record,) = run_synthetic_experiment(cfg)
        assert record.n == 8 and record.seed == 1


class TestGroupOfThirds:
    def test_examples(self):
        pts = np.array([0.0, 0.3, 0.34, 0.5, 0.67, 0.99, 1.0])
        assert group_of_thirds(pts).tolist() == [0, 0, 1, 1, 2, 2, 2]


class TestLoadGraphFile:
    def test_edge_list(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1\n1 2\n")
        a, labels = load_graph_file(p)
        assert a.shape == (3, 3)
        assert labels == ["0", "1", "2"]

    def test_csv(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("0,1\n1,0\n")
        a, labels = load_graph_file(p)
        assert a.shape == (2, 2) and labels == ["0", "1"]

    def test_gml(self, tmp_path):
        p = tmp_path / "g.gml"
        p.write_text(
            'graph [\n  node [ id 0 label "x" ]\n  node [ id 1 label "y" ]\n'
            "  edge [ source 0 target 1 ]\n]\n"
        )
        a, labels = load_graph_file(p)
        assert labels == ["x", "y"]


class TestDatasetClustering:
    def write_k5(self, tmp_path):
        a = np.ones((5, 5), dtype=np.int8)
        np.fill_diagonal(a, 0)
        p = tmp_path / "k5.edges"
        save_edge_list(p, a)
        return p

    def test_complete_graph_merges_at_one(self, tmp_path):
        p = self.write_k5(tmp_path)
        dendro = run_dataset_clustering(p, c=0.09, out_dir=str(tmp_path / "out"))
        assert dendro.n == 5
        assert dendro.level == (1.0,) * 4
        for name in ("dendrogram.json", "dendrogram.newick", "labels.csv"):
            assert (tmp_path / "out" / name).exists()

    def test_logs_clusters_at_largest_levels(self, tmp_path, caplog):
        a = np.ones((10, 10), dtype=np.int8)
        np.fill_diagonal(a, 0)
        p = tmp_path / "k10.edges"
        save_edge_list(p, a)
        with caplog.at_level("INFO", logger="graphtree"):
            run_dataset_clustering(p, c=0.3, out_dir=str(tmp_path / "out"))
        assert caplog.messages[1:] == ["level 1: 1 clusters", "  [ 10] 0, 1, 2, 3, 4, 5, 6, 7, ..."]

    def test_artifacts_byte_deterministic(self, tmp_path):
        p = self.write_k5(tmp_path)
        run_dataset_clustering(p, out_dir=str(tmp_path / "a"))
        run_dataset_clustering(p, out_dir=str(tmp_path / "b"))
        for name in ("dendrogram.json", "dendrogram.newick", "labels.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_labels_csv_content(self, tmp_path):
        p = self.write_k5(tmp_path)
        run_dataset_clustering(p, out_dir=str(tmp_path / "out"))
        rows = read_csv_rows(tmp_path / "out" / "labels.csv")
        assert rows[0] == ["index", "label"]
        assert rows[1] == ["0", "0"] and len(rows) == 6

    def test_baseline_artifacts(self, tmp_path):
        p = self.write_k5(tmp_path)
        run_dataset_clustering(p, out_dir=str(tmp_path / "out"), baseline=True)
        assert (tmp_path / "out" / "baseline_dendrogram.json").exists()
        assert (tmp_path / "out" / "baseline_dendrogram.newick").exists()

    def test_newick_labels_lose_whitespace(self, tmp_path):
        # a quoted GML label may hold any character but '"', line breaks included
        labels = ["a b", "c\nd", "e\tf", "g\x0ch", "(i)"]
        p = tmp_path / "g.gml"
        p.write_text("graph [\n"
                     + "".join(f'  node [ id {i} label "{lab}" ]\n' for i, lab in enumerate(labels))
                     + "".join(f"  edge [ source {i} target {i + 1} ]\n" for i in range(4))
                     + "]\n")
        run_dataset_clustering(p, c=0.3, out_dir=str(tmp_path / "out"), baseline=True)
        for name in ("dendrogram.newick", "baseline_dendrogram.newick"):
            text = (tmp_path / "out" / name).read_text()
            assert text.count("\n") == 1 and text.endswith(";\n")
            leaves = re.findall(r"[(,]([^(),:]+):", text)
            assert sorted(leaves) == ["_i_", "a_b", "c_d", "e_f", "g_h"]

    def test_too_small_rejected(self, tmp_path):
        p = tmp_path / "tiny.edges"
        p.write_text("0 1\n1 2\n")
        with pytest.raises(ValidationError, match="needs >= 4"):
            run_dataset_clustering(p, out_dir=str(tmp_path / "out"))

    def test_original_variant_minimum(self, tmp_path):
        p = tmp_path / "tiny.edges"
        p.write_text("0 1\n1 2\n")
        d = run_dataset_clustering(
            p, c=0.3, variant="original", out_dir=str(tmp_path / "out")
        )
        assert d.n == 3

    @pytest.mark.parametrize("variant", ["modified", "original"])
    def test_one_pass_logs_neighborhood_sizes(self, tmp_path, monkeypatch, caplog, variant):
        import graphtree.smoothing as smoothing

        rng = np.random.default_rng(3)
        a = np.triu(rng.random((11, 11)) < 0.4, 1).astype(np.int8)
        a = a | a.T
        p = tmp_path / "g.edges"
        save_edge_list(p, a)
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return wrapper

        for name in ("_pair_neighborhoods", "_node_neighborhoods"):
            monkeypatch.setattr(smoothing, name, counted(getattr(smoothing, name)))
        with caplog.at_level("INFO", logger="graphtree"):
            run_dataset_clustering(p, c=0.5, variant=variant, out_dir=str(tmp_path / "out"))
        if variant == "modified":
            assert calls == ["_pair_neighborhoods"]  # one pass over every ordered pair
        else:
            assert calls == ["_node_neighborhoods"]
        config = smoothing.SmoothingConfig(C=0.5, variant=variant)
        _, sizes = smoothing.estimate_edge_probabilities(a, config, return_sizes=True)
        if variant == "modified":
            sizes = sizes[~np.eye(11, dtype=bool)]
        want = "neighborhood sizes min/median/max = %d/%g/%d" % (
            sizes.min(), np.median(sizes), sizes.max())
        assert want in caplog.text
