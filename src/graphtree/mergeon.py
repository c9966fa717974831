"""Exact cluster trees and mergeons of step graphons.

The merge level of two blocks is the widest bottleneck over block paths; the
within-block level additionally accounts for the block's own value.
"""

from __future__ import annotations

import numpy as np

from .graphon import StepGraphon
from .linkage import dendrogram_merge_matrix, single_linkage
from .sampling import edge_probabilities

__all__ = [
    "step_mergeon",
    "cluster_tree_of",
    "mergeon_eval_matrix",
    "merge_distortion",
]


def step_mergeon(w: StepGraphon) -> StepGraphon:
    """The mergeon of a step graphon: a step graphon on the same blocks.

    Its value at (a, b) with a != b is the level at which blocks a and b
    join, the maximum over block paths from a to b (consecutive blocks
    distinct) of the minimum inter-block value along the path, which is
    single linkage of the block values. At (a, a) it is the level at which
    two points of block a join, the row maximum max(values[a][a], max over
    c != a of values[a][c]), since points of a block join either inside the
    block or through any neighbor.
    """
    v = w.values
    levels = dendrogram_merge_matrix(single_linkage(v))
    np.fill_diagonal(levels, v.max(axis=1))
    return StepGraphon(w.partition, levels)


def cluster_tree_of(merge: StepGraphon) -> list:
    """(level, clusters) at every distinct merge level, descending.

    With m = merge.values, the clusters at level lam are the connected
    components of the graph on blocks {a : m[a][a] >= lam} with an edge
    {a, b} whenever m[a][b] >= lam, each a sorted list of block indices,
    ordered by smallest member. Blocks whose within-block level is below
    lam have not appeared yet and are absent from that entry.

    Every entry is a cut of one single linkage of the levels capped at both
    blocks' own levels, so an absent block has no edge and stays a singleton
    that the entry leaves out.
    """
    lv = merge.values
    d = np.diagonal(lv)
    tree = single_linkage(np.minimum(lv, np.minimum.outer(d, d)))
    return [(lam, [c for c in tree.cut(lam) if d[c[0]] >= lam])
            for lam in sorted({float(x) for x in lv.flat}, reverse=True)]


def mergeon_eval_matrix(merge: StepGraphon, points) -> np.ndarray:
    """Pairwise true merge heights at sample points; diagonal set to 1."""
    out = edge_probabilities(merge, points)
    np.fill_diagonal(out, 1.0)
    return out


def merge_distortion(mvals: np.ndarray, mhat: np.ndarray) -> float:
    """Max over i != j of |mvals[i][j] - mhat[i][j]|; the diagonal is ignored."""
    mvals = np.asarray(mvals, dtype=float)
    mhat = np.asarray(mhat, dtype=float)
    if mvals.shape != mhat.shape or mvals.ndim != 2 or mvals.shape[0] != mvals.shape[1]:
        raise ValueError(f"dimension mismatch: {mvals.shape} vs {mhat.shape}")
    n = mvals.shape[0]
    if n < 2:
        raise ValueError("need at least two points")
    diff = np.abs(mvals - mhat)
    np.fill_diagonal(diff, 0.0)
    return float(diff.max())
