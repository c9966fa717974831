"""The two workloads: their inputs, their rounds of operations, their checks.

A round is a fixed list of operations; a run repeats whole rounds, so every
run attempts the same mix and a failing kind of operation is always the same
share of the attempts. Operations go through public entry points only:
`run_synthetic_experiment` and the `graphtree` click command, invoked in this
process so that one process holds the whole workload.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

import graphtree
from graphtree import ExperimentConfig
from graphtree.cli import main as graphtree_cli

import inputs
from checks import (
    CheckFailed,
    check_structure,
    condensed,
    merge_matrix,
    newick_leaves,
    parse_dendrogram_json,
    require_equal,
    single_linkage_levels,
)


@dataclass
class Op:
    """One timed operation. `run` returns None on success, else the error text."""

    kind: str
    run: Callable[[], "str | None"]
    check: Callable[[], None]
    cli: bool


def run_cli(args: list) -> "str | None":
    """`graphtree <args>` in this process; its exit code decides success."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            graphtree_cli.main(args=args, prog_name="graphtree", standalone_mode=True)
        except SystemExit as e:
            code = e.code
    if code in (0, None):
        return None
    return f"exit {code}: {err.getvalue().strip()}"


def read_text(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def checked_tree(path: str, n: int, unit_levels: bool = True):
    tree = parse_dendrogram_json(read_text(path))
    check_structure(tree, n, unit_levels)
    return tree


class PaperGrid:
    """run_synthetic_experiment on paper-synthetic, C=0.1, modified, one cell per call."""

    n = 128
    cells_per_round = 4
    pool_rounds = 16  # distinct cells prepared; a longer run starts over

    def generate(self, d: str, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        seeds = rng.choice(10**6, size=self.cells_per_round * self.pool_rounds, replace=False) + 1
        cells = [{"graphon": "paper-synthetic", "n_grid": [self.n], "seeds": [int(s)],
                  "C": 0.1, "variant": "modified", "workers": 1} for s in seeds]
        path = os.path.join(d, "grid.json")
        inputs.write_json(path, cells)
        return {"grid": path}

    def warm_up(self, manifest: dict, d: str) -> None:
        graphtree.run_synthetic_experiment(ExperimentConfig.from_dict(
            {"graphon": "paper-synthetic", "n_grid": [16], "seeds": [1],
             "out_dir": os.path.join(d, "warm"), "workers": 1}))

    def round_ops(self, manifest: dict, r: int, out: str) -> list:
        with open(manifest["grid"]) as fh:
            cells = json.load(fh)
        k = self.cells_per_round
        start = (r % self.pool_rounds) * k
        return [self._op(dict(cell, out_dir=os.path.join(out, f"r{r}c{i}")))
                for i, cell in enumerate(cells[start:start + k])]

    def _op(self, doc: dict) -> Op:
        def run():
            try:
                graphtree.run_synthetic_experiment(ExperimentConfig.from_dict(doc))
            except Exception as e:  # counted as a failed operation
                return f"{type(e).__name__}: {e}"
            return None

        def check():
            n, seed = doc["n_grid"][0], doc["seeds"][0]
            with open(os.path.join(doc["out_dir"], "records.csv"), newline="") as fh:
                rows = list(csv.reader(fh))
            if rows[0] != "n,seed,merge_distortion,max_norm_error,mse,wall_time_ms".split(","):
                raise CheckFailed(f"records.csv header {rows[0]}")
            if len(rows) != 2 or rows[1][:2] != [str(n), str(seed)]:
                raise CheckFailed(f"records.csv rows {rows[1:]}")
            tree = checked_tree(os.path.join(doc["out_dir"], f"dendro_n{n}_seed{seed}.json"), n)
            truth = inputs.three_group_merge_heights(inputs.three_group_latents(seed, n))
            want = "%.12g" % np.abs(condensed(truth) - condensed(merge_matrix(tree))).max()
            if rows[1][2] != want:
                raise CheckFailed(f"cell n={n} seed={seed}: merge_distortion {rows[1][2]} != {want}")

        return Op("cell", run, check, cli=False)


class DatasetCluster:
    """`graphtree dataset cluster --C 0.09 --baseline` on football-shaped GML files."""

    sizes = (115,)  # one file each per round; not a power of two
    groups, p_in, p_out = 12, 0.8, 0.034  # about 600 edges at n=115
    pool_rounds = 8

    def generate(self, d: str, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        files = []
        for r in range(self.pool_rounds):
            for n in self.sizes:
                path = os.path.join(d, f"pp{r}_{n}.gml")
                labels = inputs.planted_partition_gml(path, n, self.groups, self.p_in,
                                                      self.p_out, rng)
                files.append({"path": path, "labels": labels})
        tiny = os.path.join(d, "tiny.gml")
        inputs.planted_partition_gml(tiny, 14, 3, 0.8, 0.1, rng)
        return {"files": files, "tiny": tiny}

    def warm_up(self, manifest: dict, d: str) -> None:
        err = run_cli(["dataset", "cluster", "--input", manifest["tiny"], "--C", "0.09",
                       "--baseline", "--out-dir", os.path.join(d, "warm")])
        if err:
            raise RuntimeError(f"warm-up failed: {err}")

    def round_ops(self, manifest: dict, r: int, out: str) -> list:
        k = len(self.sizes)
        start = (r % self.pool_rounds) * k
        return [self._op(f, os.path.join(out, f"r{r}f{i}"))
                for i, f in enumerate(manifest["files"][start:start + k])]

    def _op(self, f: dict, out: str) -> Op:
        args = ["dataset", "cluster", "--input", f["path"], "--C", "0.09", "--baseline",
                "--out-dir", out]

        def check():
            labels = f["labels"]
            n = len(labels)
            with open(os.path.join(out, "labels.csv"), newline="") as fh:
                rows = list(csv.reader(fh))
            if rows != [["index", "label"]] + [[str(i), lab] for i, lab in enumerate(labels)]:
                raise CheckFailed(f"{out}/labels.csv does not list the GML labels by node id")
            checked_tree(os.path.join(out, "dendrogram.json"), n)
            base = checked_tree(os.path.join(out, "baseline_dendrogram.json"), n, unit_levels=False)
            for name in ("dendrogram.newick", "baseline_dendrogram.newick"):
                if newick_leaves(read_text(os.path.join(out, name))) != Counter(labels):
                    raise CheckFailed(f"{out}/{name}: leaves differ from labels.csv")
            a = gml_adjacency(f["path"], n)
            require_equal(f"{out}/baseline_dendrogram.json vs scipy single linkage",
                          condensed(merge_matrix(base)),
                          single_linkage_levels(-column_distances(a)))

        return Op("dataset", lambda: run_cli(args), check, cli=True)


class Paper:
    """The paper's two experiments in one round: four PaperGrid cells, then one
    DatasetCluster file.

    One workload, not two: the n=115 modified passes of a dataset file swing
    about twice as far with the host's load as the speed kernel does, so on
    their own their scaled times spread 15-20% between runs. Within a round
    that is mostly grid cells they still exercise GML parsing, the second
    pass, Newick output and the baseline, and the round time stays steady.
    """

    grid, dataset = PaperGrid(), DatasetCluster()

    def generate(self, d: str, seed: int) -> dict:
        return {**self.grid.generate(d, seed), **self.dataset.generate(d, seed)}

    def warm_up(self, manifest: dict, d: str) -> None:
        self.grid.warm_up(manifest, os.path.join(d, "grid"))
        self.dataset.warm_up(manifest, os.path.join(d, "dataset"))

    def round_ops(self, manifest: dict, r: int, out: str) -> list:
        return self.grid.round_ops(manifest, r, out) + self.dataset.round_ops(manifest, r, out)


def gml_adjacency(path: str, n: int) -> np.ndarray:
    """Adjacency of a generated GML file, rows in ascending node-id order."""
    ids, edges, key = [], [], None
    for tok in read_text(path).split():
        if key == "id":
            ids.append(int(tok))
        elif key == "source":
            edges.append([int(tok), None])
        elif key == "target":
            edges[-1][1] = int(tok)
        key = tok
    row = {nid: i for i, nid in enumerate(sorted(ids))}
    a = np.zeros((n, n), dtype=np.int64)
    for s, t in edges:
        a[row[s], row[t]] = a[row[t], row[s]] = 1
    return a


def column_distances(a: np.ndarray) -> np.ndarray:
    """Euclidean distance between 0/1 columns: the root of their Hamming distance."""
    deg = a.sum(axis=0)
    return np.sqrt((deg[:, None] + deg[None, :] - 2 * (a.T @ a)).astype(float))


class LargeN:
    """The README's CLI chain at n=1000 plus chains of depth n from a nested graphon."""

    n = 1000
    nested_n = 1200  # neither size is a power of two
    pool_rounds = 2

    def generate(self, d: str, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        graphs = []
        for r in range(self.pool_rounds):
            path = os.path.join(d, f"g{r}.edges")
            inputs.three_group_edge_list(path, self.n, rng)
            graphs.append(path)
        tiny = os.path.join(d, "tiny.edges")
        inputs.three_group_edge_list(tiny, 24, rng)
        nested = os.path.join(d, "nested.csv")
        np.savetxt(nested, inputs.nested_merge_heights(self.nested_n), fmt="%.17g", delimiter=",")
        return {"graphs": graphs, "tiny": tiny, "nested": nested}

    def warm_up(self, manifest: dict, d: str) -> None:
        phat = os.path.join(inputs.fresh_dir(d), "tiny_phat.csv")
        for args in (["estimate", "--input", manifest["tiny"], "--variant", "original",
                      "--out", phat],
                     ["cluster", "--phat", phat, "--tree", os.path.join(d, "tiny_tree.json")]):
            err = run_cli(args)
            if err:
                raise RuntimeError(f"warm-up failed: {err}")

    def round_ops(self, manifest: dict, r: int, out: str) -> list:
        out = inputs.fresh_dir(out, f"r{r}")
        phat = os.path.join(out, "phat.csv")
        tree = os.path.join(out, "tree.json")
        newick = os.path.join(out, "tree.newick")
        nested_tree = os.path.join(out, "nested.json")
        graph = manifest["graphs"][r % self.pool_rounds]
        n, nested_n = self.n, self.nested_n

        def check_phat():
            p = np.loadtxt(phat, delimiter=",")
            if p.shape != (n, n) or not np.array_equal(p, p.T):
                raise CheckFailed(f"{phat}: not a symmetric {n}x{n} matrix")
            if p.min() < 0.0 or p.max() > 1.0 or np.any(np.diagonal(p) != 0.0):
                raise CheckFailed(f"{phat}: entries outside [0, 1] or nonzero diagonal")

        def check_tree():
            t = checked_tree(tree, n)
            require_equal(f"{tree} vs scipy single linkage", condensed(merge_matrix(t)),
                          single_linkage_levels(np.loadtxt(phat, delimiter=",")))
            if newick_leaves(read_text(newick)) != Counter(str(i) for i in range(n)):
                raise CheckFailed(f"{newick}: leaves are not 0..{n - 1}, each once")

        def check_nested():
            t = checked_tree(nested_tree, nested_n)
            require_equal(f"{nested_tree} vs its ultrametric input", condensed(merge_matrix(t)),
                          condensed(inputs.nested_merge_heights(nested_n)))

        return [
            Op("estimate", lambda: run_cli(["estimate", "--input", graph, "--C", "0.1",
                                            "--variant", "original", "--out", phat]),
               check_phat, cli=True),
            Op("cluster", lambda: run_cli(["cluster", "--phat", phat, "--tree", tree,
                                           "--newick", newick]),
               check_tree, cli=True),
            Op("nested-cluster", lambda: run_cli(["cluster", "--phat", manifest["nested"],
                                                  "--tree", nested_tree]),
               check_nested, cli=True),
        ]


WORKLOADS = {
    "paper": Paper(),
    "large-n": LargeN(),
}

# Faults of the program that make an operation fail on every attempt, by the
# text of the error; the run names them when it reports its failures.
KNOWN_FAULTS = {
    "maximum recursion depth exceeded": (
        "RecursionError: Dendrogram.to_json, to_newick, leaf_order and "
        "dendrogram_merge_matrix (src/graphtree/linkage.py) recurse once per tree "
        "level, so a tree deeper than the interpreter's recursion limit cannot be written"
    ),
}
