"""Command line front end.

Exit codes: 0 on success, 2 when input fails validation, 1 for anything else
unexpected. All informational output (bandwidth, neighborhood stats, run
progress) goes to stderr via logging; artifacts go to files or stdout.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import sys

import click
import numpy as np

from .errors import ValidationError
from .experiments import (
    BUILTIN_GRAPHONS,
    ExperimentConfig,
    load_graph_file,
    resolve_graphon,
    run_dataset_clustering,
    run_synthetic_experiment,
)
from .graph_io import (_opened, load_matrix_csv, save_adjacency_csv, save_edge_list,
                       save_matrix_csv)
from .graphon import _read_json, load_step_graphon, step_graphon_to_dict
from .linkage import single_linkage
from .mergeon import cluster_tree_of, merge_distortion, step_mergeon
from .sampling import derive_seed, edge_probabilities, sample_graph, sample_latents
from .smoothing import SmoothingConfig, estimate_edge_probabilities


def _fail_cleanly(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValidationError as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(2)
        except Exception as e:  # anything unexpected is exit 1, per contract
            click.echo(f"error: {e}", err=True)
            sys.exit(1)

    return wrapper


def _graphon_from_flag(value):
    """Builtin name first, then a JSON file path."""
    if value in BUILTIN_GRAPHONS:
        return resolve_graphon(value)
    return load_step_graphon(value)


def _dest(out: str):
    """An output flag as a writer destination: stdout for -, else the path."""
    return sys.stdout if out == "-" else out


def _write_text(text: str, out: str) -> None:
    with _opened(_dest(out)) as fh:
        fh.write(text)


def _load_square_csv(path) -> np.ndarray:
    m = load_matrix_csv(path)
    if not np.array_equal(m, m.T):
        raise ValidationError(f"{path}: matrix holds NaN" if np.isnan(m).any()
                              else f"{path}: matrix must be symmetric")
    if m.shape[0] < 2:
        raise ValidationError(f"{path}: need at least two rows, got {m.shape[0]}")
    return m


@click.group()
def main():
    """Graphon-based hierarchical graph clustering."""
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(name)s: %(message)s")


@main.group()
def graphon():
    """Step graphon file utilities."""


@graphon.command("validate")
@click.argument("path", type=click.Path())
@_fail_cleanly
def graphon_validate(path):
    """Check a step graphon JSON file; exit 0 iff valid."""
    w = load_step_graphon(path)
    click.echo(f"valid step graphon: {w.partition.k} blocks")


@main.command()
@click.option("--graphon", "source", required=True,
              help="Step graphon JSON file, or a builtin name "
                   f"({', '.join(sorted(BUILTIN_GRAPHONS))}).")
@click.option("--n", type=click.IntRange(min=1), required=True, help="Number of nodes.")
@click.option("--seed", type=click.IntRange(min=0), required=True,
              help="Master seed for this run.")
@click.option("--out", default="-", show_default=True, help="Output path, - for stdout.")
@click.option("--format", "fmt", type=click.Choice(["edges", "csv"]), default="edges",
              show_default=True)
@_fail_cleanly
def sample(source, n, seed, out, fmt):
    """Sample one graph; latent and edge draws use split substreams of --seed."""
    w = _graphon_from_flag(source)
    latents = sample_latents(n, derive_seed(seed, n, 0))
    a = sample_graph(edge_probabilities(w, latents), derive_seed(seed, n, 1))
    save = save_adjacency_csv if fmt == "csv" else save_edge_list
    save(_dest(out), a)


@main.command()
@click.option("--input", "path", required=True, type=click.Path(),
              help="Graph file: .gml, .csv adjacency, or edge list.")
@click.option("--C", "c", type=float, default=0.1, show_default=True,
              help="Neighborhood size constant; bandwidth is C*sqrt(ln n / n).")
@click.option("--variant", type=click.Choice(["modified", "original"]), default="modified",
              show_default=True)
@click.option("--out", default="-", show_default=True, help="Estimate CSV path, - for stdout.")
@_fail_cleanly
def estimate(path, c, variant, out):
    """Estimate edge probabilities by neighborhood smoothing."""
    a, _ = load_graph_file(path)
    config = SmoothingConfig(C=c, variant=variant)
    logging.getLogger("graphtree").info("n=%d, h=%.6g", a.shape[0], config.bandwidth(a.shape[0]))
    save_matrix_csv(_dest(out), estimate_edge_probabilities(a, config))


@main.command()
@click.option("--phat", "path", required=True, type=click.Path(),
              help="Symmetric similarity matrix CSV.")
@click.option("--tree", default="-", show_default=True, help="Dendrogram JSON path, - for stdout.")
@click.option("--newick", default=None, type=click.Path(), help="Also write Newick here.")
@_fail_cleanly
def cluster(path, tree, newick):
    """Single-linkage dendrogram of a similarity matrix."""
    m = _load_square_csv(path)
    dendro = single_linkage(m)
    _write_text(dendro.to_json() + "\n", tree)
    if newick is not None:
        _write_text(dendro.to_newick() + "\n", newick)


@main.command()
@click.option("--graphon", "source", required=True,
              help="Step graphon JSON file or builtin name.")
@click.option("--out", default="-", show_default=True, help="Merge matrix JSON, - for stdout.")
@click.option("--tree", default=None, help="Also write the cluster tree JSON here.")
@_fail_cleanly
def mergeon(source, out, tree):
    """Exact block merge matrix (and optionally the cluster tree) of a graphon."""
    w = _graphon_from_flag(source)
    merge = step_mergeon(w)
    doc = step_graphon_to_dict(merge)
    doc["levels"] = doc.pop("values")
    _write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", out)
    if tree is not None:
        entries = [{"level": lam, "clusters": c} for lam, c in cluster_tree_of(merge)]
        _write_text(json.dumps(entries, sort_keys=True) + "\n", tree)


@main.command()
@click.option("--truth", required=True, type=click.Path(), help="True merge heights CSV.")
@click.option("--est", required=True, type=click.Path(), help="Estimated merge matrix CSV.")
@_fail_cleanly
def distortion(truth, est):
    """Merge distortion (max off-diagonal absolute difference) of two matrices."""
    mvals = _load_square_csv(truth)
    mhat = _load_square_csv(est)
    if mvals.shape != mhat.shape:
        raise ValidationError(f"shape mismatch: {mvals.shape} vs {mhat.shape}")
    click.echo("%.12g" % merge_distortion(mvals, mhat))


@main.group()
def experiment():
    """Synthetic experiment harness."""


@experiment.command("synthetic")
@click.option("--config", "config_path", required=True, type=click.Path(),
              help="Experiment config JSON.")
@click.option("--out-dir", default=None, type=click.Path(), help="Override config out_dir.")
@click.option("--workers", default=None, type=int, help="Override config workers.")
@_fail_cleanly
def experiment_synthetic(config_path, out_dir, workers):
    """Run the (n, seed) grid of a config; writes records.csv and dendrograms."""
    cfg = ExperimentConfig.from_dict(_read_json(config_path))
    if out_dir is not None:
        cfg = dataclasses.replace(cfg, out_dir=out_dir)
    if workers is not None:
        cfg = dataclasses.replace(cfg, workers=workers)
    records = run_synthetic_experiment(cfg)
    click.echo(f"wrote {len(records)} records to {cfg.out_dir}/records.csv")
    click.echo(f"\n{'n':>6} {'med max-norm':>14} {'med distortion':>15} {'med mse':>12}")
    for n in sorted({r.n for r in records}):
        rows = [r for r in records if r.n == n]
        click.echo("%6d %14.4g %15.4g %12.4g" % (
            n,
            np.median([r.max_norm_error for r in rows]),
            np.median([r.merge_distortion for r in rows]),
            np.median([r.mse for r in rows]),
        ))


@main.group()
def dataset():
    """Real dataset pipelines."""


@dataset.command("cluster")
@click.option("--input", "path", required=True, type=click.Path(), help="Graph file.")
@click.option("--C", "c", type=float, default=0.09, show_default=True)
@click.option("--variant", type=click.Choice(["modified", "original"]), default="modified",
              show_default=True)
@click.option("--out-dir", default="results", show_default=True, type=click.Path())
@click.option("--baseline", is_flag=True,
              help="Also cluster negated column distances for comparison.")
@_fail_cleanly
def dataset_cluster(path, c, variant, out_dir, baseline):
    """End-to-end: load graph, estimate, single-link, write dendrogram artifacts."""
    dendro = run_dataset_clustering(path, c=c, variant=variant, out_dir=out_dir,
                                    baseline=baseline)
    click.echo(f"dendrogram with {dendro.n} leaves -> {out_dir}")


if __name__ == "__main__":
    main()
