"""Seeded input generators, numpy only.

Every generator is a pure function of its seed (or of nothing, for the
nested-graphon matrices), so the program under test only ever sees files.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Three-group graphon of the paper's synthetic experiment, in closed form:
# five blocks, groups {0,1}, {2,3}, {4}; 0.7 within a group, 0.5 across the
# thin blocks 1 and 2, 0.1 everywhere else.
THREE_GROUP_BREAKS = np.array([0.0, 1 / 3 - 1 / 24, 1 / 3, 1 / 3 + 1 / 24, 2 / 3, 1.0])
THREE_GROUP_VALUES = np.full((5, 5), 0.1)
THREE_GROUP_VALUES[0:2, 0:2] = 0.7
THREE_GROUP_VALUES[2:4, 2:4] = 0.7
THREE_GROUP_VALUES[4, 4] = 0.7
THREE_GROUP_VALUES[1, 2] = THREE_GROUP_VALUES[2, 1] = 0.5


def derived_seed(*parts: int) -> int:
    """The documented per-run seed derivation: SeedSequence(parts), first 64-bit word."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1, np.uint64)[0])


def three_group_latents(seed: int, n: int) -> np.ndarray:
    """Latent points of synthetic cell (n, seed), regenerated from the seed alone."""
    return np.random.default_rng(derived_seed(seed, n, 0)).random(n)


def three_group_merge_heights(x: np.ndarray) -> np.ndarray:
    """True merge heights at latents x: 0.7 within a third, 0.5 between the
    first two thirds, 0.1 otherwise."""
    g = (x >= 1 / 3).astype(int) + (x >= 2 / 3)
    same = g[:, None] == g[None, :]
    first_two = (g[:, None] < 2) & (g[None, :] < 2)
    return np.where(same, 0.7, np.where(first_two, 0.5, 0.1))


def bernoulli_graph(p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Symmetric 0/1 adjacency with independent upper-triangle draws."""
    n = p.shape[0]
    iu = np.triu_indices(n, k=1)
    a = np.zeros((n, n), dtype=np.int8)
    hits = rng.random(iu[0].size) < p[iu]
    a[iu[0][hits], iu[1][hits]] = 1
    return a | a.T


def write_edge_list(path: str, a: np.ndarray) -> None:
    iu, ju = np.nonzero(np.triu(a, k=1))
    if ju.max() != a.shape[0] - 1:
        raise ValueError("last node is isolated; an edge list cannot carry n")
    with open(path, "w") as fh:
        fh.write("".join(f"{u} {v}\n" for u, v in zip(iu.tolist(), ju.tolist())))


def three_group_edge_list(path: str, n: int, rng: np.random.Generator) -> None:
    """W-random graph from the three-group graphon, written as an edge list."""
    x = rng.random(n)
    blk = np.searchsorted(THREE_GROUP_BREAKS, x, side="right") - 1
    p = THREE_GROUP_VALUES[np.ix_(blk, blk)]
    write_edge_list(path, bernoulli_graph(p, rng))


def planted_partition_gml(path: str, n: int, groups: int, p_in: float, p_out: float,
                          rng: np.random.Generator) -> list:
    """Football-shaped GML file; returns the labels in ascending node-id order.

    Node ids are distinct but not contiguous and the records are shuffled, so
    the reader's id mapping is exercised. Each node carries its group as a
    `value` attribute, which the reader skips.
    """
    ids = np.sort(rng.choice(10 * n, size=n, replace=False))
    group = rng.permutation(np.arange(n) % groups)
    p = np.where(group[:, None] == group[None, :], p_in, p_out)
    a = bernoulli_graph(p, rng)
    labels = [f"team{int(i):04d}" for i in ids]
    lines = ["graph", "[", "  directed 0"]
    for k in rng.permutation(n).tolist():
        lines += ["  node", "  [", f"    id {int(ids[k])}", f'    label "{labels[k]}"',
                  f"    value {int(group[k])}", "  ]"]
    iu, ju = np.nonzero(np.triu(a, k=1))
    flip = rng.random(iu.size) < 0.5
    for u, v, f in zip(iu.tolist(), ju.tolist(), flip.tolist()):
        s, t = (v, u) if f else (u, v)
        lines += ["  edge", "  [", f"    source {int(ids[s])}", f"    target {int(ids[t])}", "  ]"]
    lines.append("]")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return labels


def nested_merge_heights(n: int, steps: int = 16) -> np.ndarray:
    """Merge heights of the nested graphon W(a, b) = (min(a, b) + 1) / (steps + 1).

    Node i sits at latent 1 - (i + 1/2)/n, so nodes are listed from the
    densest block outward; under the lowest-leader tie rule each merge then
    adds one node to the same cluster and the tree is a chain n - 1 deep.
    The matrix is an ultrametric, so single linkage must return it unchanged.
    The diagonal holds 1, the program's convention for merge matrices.
    """
    x = 1.0 - (np.arange(n) + 0.5) / n
    blk = np.minimum((x * steps).astype(int), steps - 1)
    m = (np.minimum.outer(blk, blk) + 1) / (steps + 1)
    np.fill_diagonal(m, 1.0)
    return m


def write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def fresh_dir(*parts: str) -> str:
    path = os.path.join(*parts)
    os.makedirs(path, exist_ok=True)
    return path
