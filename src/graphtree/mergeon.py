"""Exact cluster trees and mergeons of step graphons.

The merge level of two blocks is the widest bottleneck over block paths; the
within-block level additionally accounts for the block's own value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .graphon import BlockPartition, StepGraphon
from .linkage import dendrogram_merge_matrix, single_linkage

__all__ = [
    "BlockMergeMatrix",
    "ClusterTree",
    "TreeLevel",
    "step_mergeon",
    "cluster_tree_of",
    "mergeon_eval_matrix",
    "merge_distortion",
]


@dataclass(frozen=True, eq=False)
class BlockMergeMatrix:
    """Pairwise merge levels of a step graphon's blocks.

    Entry (a, b) with a != b is the level at which blocks a and b join;
    entry (a, a) is the level at which two points of block a join.
    """

    partition: BlockPartition
    levels: np.ndarray = field(repr=False)

    def __post_init__(self):
        lv = np.asarray(self.levels, dtype=float)
        object.__setattr__(self, "levels", lv)
        k = self.partition.k
        if lv.shape != (k, k):
            raise ValidationError(f"levels must be {k}x{k}, got {lv.shape}")
        if not ((lv >= 0.0) & (lv <= 1.0)).all():
            raise ValidationError("levels must lie in [0, 1]")
        if not np.array_equal(lv, lv.T):
            raise ValidationError("levels must be symmetric")
        lv.setflags(write=False)

    def eval(self, x: float, y: float) -> float:
        return float(self.levels[self.partition.locate(x), self.partition.locate(y)])

    def to_dict(self) -> dict:
        return {
            "breakpoints": list(self.partition.breakpoints),
            "levels": [[float(v) for v in row] for row in self.levels],
        }


class TreeLevel(NamedTuple):
    level: float
    clusters: list  # sorted lists of block indices, ordered by smallest member


@dataclass(frozen=True)
class ClusterTree:
    """All clusters of a block merge matrix, one entry per distinct level, descending."""

    entries: tuple

    def to_json(self) -> str:
        return json.dumps([{"level": e.level, "clusters": e.clusters} for e in self.entries],
                          sort_keys=True)


def step_mergeon(w: StepGraphon) -> BlockMergeMatrix:
    """Merge levels of all block pairs of a step graphon.

    Off-diagonal (a, b): maximum over block paths from a to b (consecutive
    blocks distinct) of the minimum inter-block value along the path, which
    is single linkage of the block values. Diagonal (a, a): the row maximum
    of the values, max(values[a][a], max over c != a of values[a][c]), since
    points of a block join either inside the block or through any neighbor.
    """
    v = w.values
    levels = dendrogram_merge_matrix(single_linkage(v))
    np.fill_diagonal(levels, v.max(axis=1))
    return BlockMergeMatrix(w.partition, levels)


def cluster_tree_of(merge: BlockMergeMatrix) -> ClusterTree:
    """Clusters at every distinct level of the merge matrix, descending.

    At level lam the clusters are the connected components of the graph on
    blocks {a : levels[a][a] >= lam} with an edge {a, b} whenever
    levels[a][b] >= lam. Blocks whose within-block level is below lam have
    not appeared yet and are absent from that entry.

    Every entry is a cut of one single linkage of the levels capped at both
    blocks' own levels, so an absent block has no edge and stays a singleton
    that the entry leaves out.
    """
    lv = merge.levels
    d = np.diagonal(lv)
    tree = single_linkage(np.minimum(lv, np.minimum.outer(d, d)))
    return ClusterTree(tuple(
        TreeLevel(lam, [c for c in tree.cut(lam) if d[c[0]] >= lam])
        for lam in sorted({float(x) for x in lv.flat}, reverse=True)))


def mergeon_eval_matrix(merge: BlockMergeMatrix, points) -> np.ndarray:
    """Pairwise true merge heights at sample points; diagonal set to 1."""
    idx = merge.partition.locate_many(points)
    out = merge.levels[np.ix_(idx, idx)].copy()
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
