"""Output checks computed apart from the program.

Dendrogram JSON is parsed here without recursion, so a tree thousands of
levels deep (which the program cannot write today) can still be checked once
it can. scipy is imported only by these checks, after the timed part.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

import numpy as np


class CheckFailed(Exception):
    """An output disagrees with its independent computation."""


@dataclass
class Tree:
    """Flat dendrogram: internal node k joins left[k] and right[k] at level[k].

    A child reference c >= 0 is leaf c; c < 0 is internal node -c - 1.
    Internal nodes are numbered in post-order, so children precede parents.
    """

    left: list
    right: list
    level: list
    leaves: list

    @property
    def n(self) -> int:
        return len(self.leaves)


_JSON_TOKEN = re.compile(r'[{}]|"[^"]*"|[^\s{}:,"]+')


def parse_dendrogram_json(text: str) -> Tree:
    """Parse the program's {"left", "level", "right"} tree iteratively."""
    tree = Tree([], [], [], [])
    frames = []  # open objects: [pending key, {key: value}]
    root = None

    def attach(value):
        nonlocal root
        if not frames:
            if root is not None:
                raise CheckFailed("dendrogram JSON has more than one root")
            root = value
            return
        key = frames[-1][0]
        if key is None or key in frames[-1][1]:
            raise CheckFailed(f"dendrogram JSON: value without a fresh key near {value!r}")
        frames[-1][1][key] = value
        frames[-1][0] = None

    for tok in _JSON_TOKEN.findall(text):
        if tok == "{":
            frames.append([None, {}])
        elif tok == "}":
            _, node = frames.pop()
            if set(node) != {"left", "right", "level"}:
                raise CheckFailed(f"dendrogram node has keys {sorted(node)}")
            tree.left.append(node["left"])
            tree.right.append(node["right"])
            tree.level.append(node["level"])
            attach(-len(tree.level))
        elif tok.startswith('"'):
            if not frames:
                raise CheckFailed("dendrogram JSON: key outside an object")
            frames[-1][0] = tok[1:-1]
        elif frames and frames[-1][0] == "level":
            attach(float(tok))
        else:
            try:
                leaf = int(tok)
            except ValueError:
                raise CheckFailed(f"dendrogram JSON: bad leaf {tok!r}") from None
            tree.leaves.append(leaf)
            attach(leaf)
    if frames or root is None:
        raise CheckFailed("dendrogram JSON is truncated")
    if root >= 0 and tree.level:
        raise CheckFailed("dendrogram JSON: leaf root with merges")
    return tree


def check_structure(tree: Tree, n: int, unit_levels: bool) -> None:
    """Each leaf exactly once, a binary tree over them, levels never rising toward the root."""
    if sorted(tree.leaves) != list(range(n)):
        raise CheckFailed(f"dendrogram leaves are not 0..{n - 1}, each once")
    if len(tree.level) != n - 1:
        raise CheckFailed(f"dendrogram has {len(tree.level)} merges for {n} leaves")
    if unit_levels and not all(0.0 <= lvl <= 1.0 for lvl in tree.level):
        raise CheckFailed("dendrogram levels leave [0, 1]")
    for k, lvl in enumerate(tree.level):
        for c in (tree.left[k], tree.right[k]):
            if c < 0 and tree.level[-c - 1] < lvl:
                raise CheckFailed(f"merge {k} at {lvl} sits above a lower merge")


def merge_matrix(tree: Tree) -> np.ndarray:
    """Level of the lowest common merge for every pair; diagonal 1."""
    n = tree.n
    out = np.ones((n, n))
    members = []
    for k, lvl in enumerate(tree.level):
        sides = []
        for c in (tree.left[k], tree.right[k]):
            if c >= 0:
                sides.append(np.array([c]))
            else:
                sides.append(members[-c - 1])
                members[-c - 1] = None
        a, b = sides
        out[np.ix_(a, b)] = lvl
        out[np.ix_(b, a)] = lvl
        members.append(np.concatenate(sides))
    return out


def newick_leaves(text: str) -> Counter:
    """Multiset of leaf names in a Newick string."""
    names = Counter()
    for part in re.split(r"[(),;]", text.strip()):
        name = part.split(":", 1)[0].strip()
        if name:
            names[name] += 1
    return names


def single_linkage_levels(sim: np.ndarray) -> np.ndarray:
    """scipy single-linkage merge levels of a similarity matrix, condensed order.

    Similarities are replaced by their ranks (largest rank = most similar) so
    scipy sees exact integer distances and its cophenetic values map back to
    the similarity values exactly; single linkage depends on order only.
    """
    from scipy.cluster.hierarchy import cophenet, linkage

    n = sim.shape[0]
    vals = sim[np.triu_indices(n, k=1)]
    uniq, rank = np.unique(vals, return_inverse=True)
    top = uniq.size - 1
    coph = cophenet(linkage((top - rank).astype(float), method="single"))
    return uniq[top - np.rint(coph).astype(np.int64)]


def condensed(m: np.ndarray) -> np.ndarray:
    return m[np.triu_indices(m.shape[0], k=1)]


def require_equal(what: str, got: np.ndarray, want: np.ndarray) -> None:
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape} != {want.shape}")
    bad = np.flatnonzero(got != want)
    if bad.size:
        i = bad[0]
        raise CheckFailed(f"{what}: {bad.size} entries differ, first {got.flat[i]!r} != {want.flat[i]!r}")
