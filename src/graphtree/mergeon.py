"""Exact cluster trees and mergeons of step graphons.

The merge level of two blocks is the widest bottleneck over block paths; the
within-block level additionally accounts for the block's own value. Neither
formula is taken on faith: discretization_oracle recomputes merge heights from
a finite single-linkage construction on split-up atoms, and the two must agree
exactly for every input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .graphon import BlockPartition, StepGraphon
from .linkage import UnionFind, single_linkage

__all__ = [
    "BlockMergeMatrix",
    "ClusterTree",
    "TreeLevel",
    "step_mergeon",
    "discretization_oracle",
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
        if lv.min() < 0.0 or lv.max() > 1.0:
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

    def to_json_list(self) -> list:
        return [{"level": e.level, "clusters": e.clusters} for e in self.entries]

    def to_json(self) -> str:
        return json.dumps(self.to_json_list(), sort_keys=True)


def step_mergeon(w: StepGraphon) -> BlockMergeMatrix:
    """Merge levels of all block pairs of a step graphon.

    Off-diagonal (a, b): maximum over block paths from a to b (consecutive
    blocks distinct) of the minimum inter-block value along the path, which
    is single linkage of the block values. Diagonal (a, a): the row maximum
    of the values, max(values[a][a], max over c != a of values[a][c]), since
    points of a block join either inside the block or through any neighbor.
    Gated by exact equality with discretization_oracle for every input.
    """
    v = w.values
    levels = single_linkage(v)[0]
    np.fill_diagonal(levels, v.max(axis=1))
    return BlockMergeMatrix(w.partition, levels)


def discretization_oracle(w: StepGraphon, m: int) -> BlockMergeMatrix:
    """Merge levels recovered from a finite single-linkage construction.

    Splits every block into m equal atoms, builds the complete weighted graph
    on atoms with weights evaluated at atom midpoints, single-links it, and
    collapses the atom-level merge heights back to block level. The result
    must not depend on m; step_mergeon must reproduce it exactly.
    """
    if m < 2:
        raise ValueError("need at least two atoms per block")
    part = w.partition
    k = part.k
    atom_bps = [0.0]
    for a, b in zip(part.breakpoints, part.breakpoints[1:]):
        for t in range(1, m):
            atom_bps.append(a + t * (b - a) / m)
        atom_bps.append(b)
    atoms = BlockPartition(tuple(atom_bps))
    reps = atoms.midpoints()
    n = k * m
    weights = w.eval_many(np.repeat(reps, n), np.tile(reps, n)).reshape(n, n)

    heights, _ = single_linkage(weights)

    levels = np.empty((k, k))
    for a in range(k):
        levels[a, a] = heights[a * m, a * m + 1]
        for b in range(a + 1, k):
            levels[a, b] = levels[b, a] = heights[a * m, b * m]
    return BlockMergeMatrix(part, levels)


def cluster_tree_of(merge: BlockMergeMatrix) -> ClusterTree:
    """Clusters at every distinct level of the merge matrix, descending.

    At level lam the clusters are the connected components of the graph on
    blocks {a : levels[a][a] >= lam} with an edge {a, b} whenever
    levels[a][b] >= lam. Blocks whose within-block level is below lam have
    not appeared yet and are absent from that entry.
    """
    lv = merge.levels
    k = lv.shape[0]
    # both the blocks present and the edges among them only grow as lam falls,
    # so one union-find serves every level
    uf = UnionFind(k)
    entries = []
    for lam in sorted({float(x) for x in lv.flat}, reverse=True):
        alive = [a for a in range(k) if lv[a, a] >= lam]
        for i, a in enumerate(alive):
            for b in alive[i + 1:]:
                if lv[a, b] >= lam:
                    uf.union(a, b)
        clusters = {}
        for a in alive:
            clusters.setdefault(uf.find(a), []).append(a)
        entries.append(TreeLevel(lam, sorted(clusters.values())))
    return ClusterTree(tuple(entries))


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
