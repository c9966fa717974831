"""Experiment harness: synthetic convergence runs and real-dataset clustering.

A synthetic run is a pure function of (graphon, n, seed, C, variant): sample
latents and a graph, estimate edge probabilities, single-link, and score the
result against the true merge heights at the latent coordinates. Records land
in a CSV with a fixed header; dendrograms land in per-run JSON files. Latent
coordinates exist only in simulation, so dataset runs emit no distortion.
"""

from __future__ import annotations

import concurrent.futures
import csv
import logging
import numbers
import os
import time
from contextlib import nullcontext
from dataclasses import MISSING, astuple, dataclass, fields
from itertools import repeat

import numpy as np

from .errors import ValidationError
from .graph_io import load_adjacency_csv, load_edge_list, load_gml_subset
from .graphon import StepGraphon, _is_number, step_graphon_from_dict
from .linkage import Dendrogram, dendrogram_merge_matrix, single_linkage
from .mergeon import merge_distortion, mergeon_eval_matrix, step_mergeon
from .sampling import derive_seed, edge_probabilities, sample_graph, sample_latents
from .smoothing import (
    SmoothingConfig,
    column_distance_matrix,
    estimate_edge_probabilities,
    estimation_errors,
)

__all__ = [
    "BUILTIN_GRAPHONS",
    "three_group_graphon",
    "separated_three_block_graphon",
    "resolve_graphon",
    "ExperimentConfig",
    "RunRecord",
    "RECORD_HEADER",
    "run_synthetic_experiment",
    "run_dataset_clustering",
    "load_graph_file",
]

log = logging.getLogger("graphtree")


def three_group_graphon() -> StepGraphon:
    """Three equal communities with a narrow 0.5 link between the first two.

    Five blocks: groups are blocks {0,1}, {2,3}, {4}; each group has measure
    1/3 and internal value 0.7. The thin blocks 1 and 2 (width 1/24 each)
    carry the 0.5 connection; every other cross value is 0.1. The resulting
    tree joins groups 1 and 2 at 0.5 and everything at 0.1.
    """
    b = (0.0, 1 / 3 - 1 / 24, 1 / 3, 1 / 3 + 1 / 24, 2 / 3, 1.0)
    v = np.full((5, 5), 0.1)
    v[0:2, 0:2] = 0.7
    v[2:4, 2:4] = 0.7
    v[4, 4] = 0.7
    v[1, 2] = v[2, 1] = 0.5
    return step_graphon_from_dict({"breakpoints": list(b), "values": v.tolist()})


def separated_three_block_graphon(within: float = 0.9, across: float = 0.05) -> StepGraphon:
    """Three equal blocks, strong diagonal, weak everything else."""
    v = np.full((3, 3), across)
    np.fill_diagonal(v, within)
    return step_graphon_from_dict(
        {"breakpoints": [0.0, 1 / 3, 2 / 3, 1.0], "values": v.tolist()}
    )


BUILTIN_GRAPHONS = {
    "three-group": three_group_graphon,
    "paper-synthetic": three_group_graphon,
    "separated-three-block": separated_three_block_graphon,
}


def resolve_graphon(source) -> StepGraphon:
    """Builtin name or {"breakpoints", "values"} dict -> StepGraphon."""
    if isinstance(source, str):
        if source in BUILTIN_GRAPHONS:
            return BUILTIN_GRAPHONS[source]()
        raise ValidationError(
            f"unknown graphon {source!r}; builtins: {', '.join(sorted(BUILTIN_GRAPHONS))}"
        )
    if isinstance(source, dict):
        return step_graphon_from_dict(source)
    raise ValidationError(f"graphon source must be a name or a dict, got {type(source).__name__}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a synthetic experiment needs; serializable as flat JSON."""

    graphon: object  # builtin name or inline dict
    n_grid: tuple
    seeds: tuple
    C: float = 0.1
    variant: str = "modified"
    out_dir: str = "results"
    workers: int = 1

    def __post_init__(self):
        def check(key, ok, kind):
            value = getattr(self, key)
            if not ok(value):
                raise ValidationError(f"{key} must be {kind}, got {value!r}")

        for key in ("n_grid", "seeds"):
            check(key, lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
                  "a list of integers")
            check(key, lambda v: len(set(v)) == len(v), "a list without repeats")
            object.__setattr__(self, key, tuple(getattr(self, key)))
        check("C", _is_number, "a number")
        object.__setattr__(self, "C", float(self.C))
        check("variant", lambda v: isinstance(v, str), "a string")
        check("out_dir", lambda v: isinstance(v, str), "a string")
        check("workers", _is_int, "an integer")
        if not self.n_grid:
            raise ValidationError("n_grid must be non-empty")
        if not self.seeds:
            raise ValidationError("seeds must be non-empty")
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")
        if min(self.seeds) < 0:
            raise ValidationError(f"seeds must be non-negative, got {min(self.seeds)}")
        smoothing = SmoothingConfig(self.C, self.variant)
        for n in self.n_grid:
            smoothing.bandwidth(n)  # every cell's n and h, before any file is written
        resolve_graphon(self.graphon)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ValidationError("experiment config must be a JSON object")
        extra = set(doc) - {f.name for f in fields(cls)}
        if extra:
            raise ValidationError(f"unknown config keys: {sorted(extra)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(doc)
        if missing:
            raise ValidationError(f"missing config keys: {sorted(missing)}")
        return cls(**doc)


def _is_int(v) -> bool:
    """An integer, numpy's included; bool, float and str are refused, not rounded."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


@dataclass(frozen=True)
class RunRecord:
    n: int
    seed: int
    merge_distortion: float
    max_norm_error: float
    mse: float
    wall_time_ms: int


RECORD_HEADER = ",".join(f.name for f in fields(RunRecord))


def _single_run(w: StepGraphon, n: int, seed: int, c: float, variant: str):
    """One (n, seed) cell; top level so a process pool can pickle it."""
    t0 = time.perf_counter()
    latents = sample_latents(n, derive_seed(seed, n, 0))
    p = edge_probabilities(w, latents)
    a = sample_graph(p, derive_seed(seed, n, 1))
    phat = estimate_edge_probabilities(a, SmoothingConfig(C=c, variant=variant))
    dendro = single_linkage(phat)
    mhat = dendrogram_merge_matrix(dendro)
    mvals = mergeon_eval_matrix(step_mergeon(w), latents)
    errs = estimation_errors(phat, p)
    record = RunRecord(
        n=n,
        seed=seed,
        merge_distortion=merge_distortion(mvals, mhat),
        max_norm_error=errs.max_norm,
        mse=errs.mse,
        wall_time_ms=int(round((time.perf_counter() - t0) * 1000)),
    )
    return record, dendro.to_json()


def _record_row(r: RunRecord) -> list:
    """Floats at %.12g, ints in full."""
    return ["%.12g" % v if isinstance(v, float) else str(v) for v in astuple(r)]


def run_synthetic_experiment(cfg: ExperimentConfig):
    """Run the full (n, seed) grid; returns the records in (n, seed) order.

    Rows are appended to records.csv as each run finishes, in grid order, so
    an aborted experiment leaves a valid prefix on disk. Dendrograms go to
    dendro_n{n}_seed{seed}.json next to the CSV. Byte content depends only on
    the config (wall_time_ms excepted).
    """
    w = resolve_graphon(cfg.graphon)
    jobs = sorted((n, s) for n in cfg.n_grid for s in cfg.seeds)
    # a pool forks all its workers at the first submit, so never more than cells
    workers = min(cfg.workers, len(jobs))
    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_path = os.path.join(cfg.out_dir, "records.csv")
    records = []
    with open(csv_path, "w", newline="") as fh, (
            concurrent.futures.ProcessPoolExecutor(workers) if workers > 1
            else nullcontext()) as pool:
        writer = csv.writer(fh)
        writer.writerow(RECORD_HEADER.split(","))
        fh.flush()
        ns, seeds = zip(*jobs)
        results = (pool.map if pool else map)(
            _single_run, repeat(w), ns, seeds, repeat(cfg.C), repeat(cfg.variant))
        for (n, seed), (record, dendro_json) in zip(jobs, results):
            records.append(record)
            writer.writerow(_record_row(record))
            fh.flush()
            dpath = os.path.join(cfg.out_dir, f"dendro_n{n}_seed{seed}.json")
            with open(dpath, "w") as dh:
                dh.write(dendro_json + "\n")
            log.info(
                "run n=%d seed=%d distortion=%.4g max_norm=%.4g (%d ms)",
                n, seed, record.merge_distortion, record.max_norm_error,
                record.wall_time_ms,
            )
    return records


def load_graph_file(path):
    """Extension dispatch; returns (adjacency, labels)."""
    lower = str(path).lower()
    if lower.endswith(".gml"):
        return load_gml_subset(path)
    if lower.endswith(".csv"):
        a = load_adjacency_csv(path)
    else:
        a = load_edge_list(path)
    return a, [str(i) for i in range(a.shape[0])]


def run_dataset_clustering(
    path,
    c: float = 0.09,
    variant: str = "modified",
    out_dir: str = "results",
    baseline: bool = False,
) -> Dendrogram:
    """Estimate + single linkage on a graph file; writes dendrogram artifacts.

    Logs the neighborhood sizes and, at each of the three largest merge
    levels, the clusters by node label (at most 12 per level, 8 names each).
    Emits dendrogram.json, dendrogram.newick, and labels.csv into out_dir
    (plus baseline_dendrogram.* when baseline is set, built from negated
    column distances instead of the smoothing estimate). Artifacts are byte
    deterministic for a fixed input file.
    """
    a, labels = load_graph_file(path)
    n = a.shape[0]
    config = SmoothingConfig(C=c, variant=variant)
    h = config.bandwidth(n)
    phat, sizes = estimate_edge_probabilities(a, config, return_sizes=True)
    if variant == "modified":
        sizes = sizes[~np.eye(n, dtype=bool)]
    log.info(
        "dataset %s: n=%d, h=%.6g, neighborhood sizes min/median/max = %d/%g/%d",
        path, n, h, int(sizes.min()), float(np.median(sizes)), int(sizes.max()),
    )
    dendro = single_linkage(phat)
    for lam in sorted(set(dendro.level), reverse=True)[:3]:
        parts = dendro.cut(lam)
        log.info("level %g: %d clusters", lam, len(parts))
        for part in parts[:12]:
            names = ", ".join(labels[i] for i in part[:8]) + (", ..." if len(part) > 8 else "")
            log.info("  [%3d] %s", len(part), names)
        if len(parts) > 12:
            log.info("  ... and %d more", len(parts) - 12)

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "labels.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "label"])
        for i, lab in enumerate(labels):
            writer.writerow([i, lab])
    trees = [("", dendro)]
    if baseline:
        trees.append(("baseline_", single_linkage(-column_distance_matrix(a))))
    for prefix, tree in trees:
        for ext, text in (("json", tree.to_json()), ("newick", tree.to_newick(labels))):
            with open(os.path.join(out_dir, f"{prefix}dendrogram.{ext}"), "w") as fh:
                fh.write(text + "\n")
    return dendro
