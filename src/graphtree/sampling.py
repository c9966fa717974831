"""Sampling of graphs from step graphons, and the checks of their matrices.

All randomness flows through numpy's default_rng (PCG64). Seeds are plain
integers; derive_seed folds several integers into one stream id so that
latents and edges of a run never share a stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphon import StepGraphon

__all__ = [
    "LatentSample",
    "sample_latents",
    "edge_probabilities",
    "sample_graph",
    "check_adjacency",
    "check_edge_probabilities",
    "derive_seed",
]

@dataclass(frozen=True, eq=False)
class LatentSample:
    """Latent uniform coordinates of sampled nodes plus the seed that made them."""

    points: np.ndarray = field(repr=False)
    seed: int = 0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 1:
            raise ValueError("need a nonempty 1-d array of points")
        if not ((pts >= 0.0) & (pts <= 1.0)).all():
            raise ValueError("latent points must lie in [0, 1]")
        pts.setflags(write=False)

    @property
    def n(self) -> int:
        return self.points.size


def derive_seed(*parts) -> int:
    """Deterministic 64-bit seed from a tuple of integers (master seed, n, stream)."""
    ss = np.random.SeedSequence([int(p) for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


def sample_latents(n: int, seed: int) -> LatentSample:
    """n independent uniforms on [0,1] from a fresh generator with the given seed."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(seed)
    return LatentSample(rng.random(n), seed)


def edge_probabilities(w: StepGraphon, latents: LatentSample) -> np.ndarray:
    """P[i][j] = W(x_i, x_j) for i != j; the diagonal is stored as 0."""
    idx = w.partition.locate_many(latents.points)
    p = w.values[np.ix_(idx, idx)].copy()
    np.fill_diagonal(p, 0.0)
    return p


def check_edge_probabilities(p: np.ndarray) -> None:
    p = np.asarray(p)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("edge probability matrix must be square")
    if not ((p >= 0.0) & (p <= 1.0)).all():  # NaN included
        raise ValueError("edge probabilities must lie in [0, 1]")
    if not np.array_equal(p, p.T):
        raise ValueError("edge probability matrix must be symmetric")
    if np.any(np.diagonal(p) != 0.0):
        raise ValueError("edge probability diagonal must be 0")


def check_adjacency(a: np.ndarray) -> None:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("adjacency must be square")
    if not np.array_equal(a, a.T):
        raise ValueError("adjacency must be symmetric")
    if not np.isin(a, (0, 1)).all():
        raise ValueError("adjacency entries must be 0 or 1")
    if np.any(np.diagonal(a) != 0):
        raise ValueError("adjacency diagonal must be 0 (no self loops)")


def sample_graph(p: np.ndarray, seed: int) -> np.ndarray:
    """One Bernoulli draw per unordered pair, mirrored into a symmetric 0/1 matrix.

    Pairs are visited in row-major upper-triangle order, so the output is a
    pure function of (p, seed).
    """
    check_edge_probabilities(p)
    n = p.shape[0]
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(n, k=1)
    hits = rng.random(iu[0].size) < p[iu]
    a = np.zeros((n, n), dtype=np.int8)
    a[iu[0][hits], iu[1][hits]] = 1
    return a | a.T
