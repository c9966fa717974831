"""Single linkage on similarity matrices: merge matrices, dendrograms, level cuts.

The merge matrix entry (i, j) is the best bottleneck over simple paths, i.e.
the level at which i and j fall into a common cluster when edges below the
level are discarded. It is computed from a maximum spanning tree: the unique
tree path between two nodes realizes the max-min value. Diagonal fixed at 1.
"""

from __future__ import annotations

import json
import math
import re
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "Leaf",
    "Merge",
    "Dendrogram",
    "merge_estimate",
    "build_dendrogram",
    "clusters_at_level",
    "dendrogram_merge_matrix",
]


def merge_estimate(sim: np.ndarray) -> np.ndarray:
    """Max-min path similarity for every pair, via a maximum spanning tree.

    Prim in O(n^2) builds the tree; a traversal from every node reads off the
    bottleneck of each unique tree path. Equals brute-force enumeration over
    all simple paths; ties in tree construction cannot change the values.
    """
    sim = np.asarray(sim, dtype=float)
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1]:
        raise ValueError("similarity matrix must be square")
    n = sim.shape[0]
    if n < 2:
        raise ValueError("need at least two nodes")
    if not np.array_equal(sim, sim.T):
        raise ValueError("similarity matrix must be symmetric")

    # dense Prim, maximizing; ties go to the lowest index via argmax
    in_tree = np.zeros(n, dtype=bool)
    best = sim[0].copy()
    parent = np.zeros(n, dtype=int)
    in_tree[0] = True
    adj = [[] for _ in range(n)]
    for _ in range(n - 1):
        cand = np.where(in_tree, -np.inf, best)
        v = int(np.argmax(cand))
        in_tree[v] = True
        w = float(best[v])
        adj[parent[v]].append((v, w))
        adj[v].append((parent[v], w))
        improved = ~in_tree & (sim[v] > best)
        best[improved] = sim[v][improved]
        parent[improved] = v

    out = np.ones((n, n))
    for s in range(n):
        stack = [(s, np.inf)]
        seen = np.zeros(n, dtype=bool)
        seen[s] = True
        while stack:
            u, bottleneck = stack.pop()
            out[s, u] = bottleneck if u != s else 1.0
            for v, w in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append((v, min(bottleneck, w)))
    return out


@dataclass(frozen=True)
class Leaf:
    index: int


@dataclass(frozen=True)
class Merge:
    left: object
    right: object
    level: float


@dataclass(frozen=True)
class Dendrogram:
    """Binary merge tree; levels never increase from leaves toward the root.

    Every traversal keeps an explicit stack, so trees of any depth (a chain
    of n leaves is n - 1 levels deep) can be cut, written and read.
    """

    root: object
    n: int

    @property
    def leaf_order(self):
        """Leaves in display order (left subtree first)."""
        return _leaves(self.root)

    def cut(self, lam: float):
        """Clusters after removing merges below lam; equals clusters_at_level."""
        parts = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, Leaf):
                parts.append([node.index])
            elif node.level >= lam:
                parts.append(sorted(_leaves(node)))
            else:
                stack += [node.right, node.left]
        return sorted(parts)

    def to_json_dict(self):
        def enc(node):
            if isinstance(node, Leaf):
                return node.index
            return {"left": None, "right": None, "level": node.level}

        top = enc(self.root)
        stack = [(self.root, top)]
        while stack:
            node, doc = stack.pop()
            if isinstance(node, Merge):
                doc["left"], doc["right"] = enc(node.left), enc(node.right)
                stack += [(node.left, doc["left"]), (node.right, doc["right"])]
        return top

    def to_json(self) -> str:
        """The bytes of json.dumps(self.to_json_dict(), sort_keys=True), at any depth."""
        parts = []
        stack = [self.root]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
            elif isinstance(item, Leaf):
                parts.append(json.dumps(item.index))
            else:
                parts.append('{"left": ')
                stack += ["}", item.right, f', "level": {json.dumps(item.level)}, "right": ',
                          item.left]
        return "".join(parts)

    @classmethod
    def from_json_dict(cls, doc) -> "Dendrogram":
        merges = []
        n = 0
        stack = [doc]
        while stack:
            node = stack.pop()
            if isinstance(node, int):
                n += 1
                continue
            if not isinstance(node, dict) or set(node) != {"left", "right", "level"}:
                raise ValidationError(f"bad dendrogram node: {reprlib.repr(node)}")
            merges.append(node)
            stack += [node["right"], node["left"]]

        built = {}

        def get(node):
            return Leaf(node) if isinstance(node, int) else built[id(node)]

        for node in reversed(merges):  # children before parents
            built[id(node)] = Merge(get(node["left"]), get(node["right"]), float(node["level"]))
        return cls(root=get(doc), n=n)

    @classmethod
    def from_json(cls, text: str) -> "Dendrogram":
        try:
            doc = _json_loads(text)
        except ValueError as e:
            raise ValidationError(f"invalid dendrogram JSON: {e}") from e
        return cls.from_json_dict(doc)

    def to_newick(self, labels=None, fmt: str = "%.12g") -> str:
        """Newick text; every child edge is annotated with its parent's merge level."""
        parts = []
        stack = [self.root]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
            elif isinstance(item, Leaf):
                parts.append(str(item.index) if labels is None else _newick_safe(labels[item.index]))
            else:
                edge = ":" + (fmt % item.level)
                parts.append("(")
                stack += [edge + ")", item.right, edge + ",", item.left]
        return "".join(parts) + ";"


def _leaves(node):
    """Leaf indices under node, left subtree first."""
    order = []
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            order.append(node.index)
        else:
            stack += [node.right, node.left]
    return order


def _merges_bottom_up(root):
    """The Merge nodes under root, every child before its parent."""
    merges = []
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Merge):
            merges.append(node)
            stack += [node.left, node.right]
    return merges[::-1]


_NUMBER = re.compile(r"(-?(?:0|[1-9]\d*))(\.\d+)?([eE][-+]?\d+)?")
_SPACE = re.compile(r"[ \t\n\r]*")
_CONSTANTS = {"null": None, "true": True, "false": False, "NaN": math.nan,
              "Infinity": math.inf, "-Infinity": -math.inf}


def _json_loads(s: str):
    """json.loads with an explicit stack instead of recursion, so depth is unbounded.

    Accepts what json.loads accepts (NaN and Infinity included) and returns
    equal values; raises ValueError on anything else.
    """
    open_ = []  # [container, key or None] for each unclosed object or array

    def ws(i):
        return _SPACE.match(s, i).end()

    def key(i):
        if s[i:i + 1] != '"':
            raise ValueError(f"expecting property name at char {i}")
        k, i = json.decoder.scanstring(s, i + 1)
        i = ws(i)
        if s[i:i + 1] != ":":
            raise ValueError(f"expecting ':' at char {i}")
        return k, ws(i + 1)

    i = ws(0)
    while True:
        c = s[i:i + 1]
        if c in ("{", "["):
            i = ws(i + 1)
            if s[i:i + 1] == ("}" if c == "{" else "]"):
                value, i = ({} if c == "{" else []), i + 1
            else:
                k = None
                if c == "{":
                    k, i = key(i)
                open_.append([{} if c == "{" else [], k])
                continue
        elif c == '"':
            value, i = json.decoder.scanstring(s, i + 1)
        elif m := _NUMBER.match(s, i):
            whole, frac, exp = m.groups()
            value = float(whole + (frac or "") + (exp or "")) if frac or exp else int(whole)
            i = m.end()
        else:
            word = next((w for w in _CONSTANTS if s.startswith(w, i)), None)
            if word is None:
                raise ValueError(f"expecting value at char {i}")
            value, i = _CONSTANTS[word], i + len(word)
        # a value is complete: store it, then close containers until one continues
        while True:
            i = ws(i)
            if not open_:
                if i != len(s):
                    raise ValueError(f"extra data at char {i}")
                return value
            container, k = open_[-1]
            if k is None:
                container.append(value)
            else:
                container[k] = value
            c = s[i:i + 1]
            if c == ",":
                i = ws(i + 1)
                if k is not None:
                    open_[-1][1], i = key(i)
                break
            if c != ("}" if k is not None else "]"):
                raise ValueError(f"expecting ',' or a closing bracket at char {i}")
            value, i = open_.pop()[0], i + 1


def _newick_safe(label: str) -> str:
    out = str(label)
    for ch in " ,():;'\"[]":
        out = out.replace(ch, "_")
    return out


def build_dendrogram(m: np.ndarray) -> Dendrogram:
    """Agglomerate a merge matrix in descending level order.

    Tie rule: among pairs at the maximal level, the pair whose cluster
    leaders (smallest member indices) are lexicographically first merges
    first, and the lower leader becomes the left child. Cutting the result
    at any level reproduces clusters_at_level.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("merge matrix must be square")
    n = m.shape[0]
    if not np.array_equal(m, m.T):
        raise ValueError("merge matrix must be symmetric")
    if n == 1:
        return Dendrogram(root=Leaf(0), n=1)

    lvl = m.copy()
    np.fill_diagonal(lvl, -np.inf)
    nodes: dict = {i: Leaf(i) for i in range(n)}
    for _ in range(n - 1):
        flat = int(np.argmax(lvl))
        a, b = divmod(flat, n)
        if a > b:
            a, b = b, a
        level = float(lvl[a, b])
        nodes[a] = Merge(left=nodes[a], right=nodes[b], level=level)
        del nodes[b]
        row = np.maximum(lvl[a], lvl[b])
        row[a] = -np.inf
        row[b] = -np.inf
        lvl[a, :] = row
        lvl[:, a] = row
        lvl[b, :] = -np.inf
        lvl[:, b] = -np.inf
    (root,) = nodes.values()
    return Dendrogram(root=root, n=n)


def clusters_at_level(m: np.ndarray, lam: float):
    """Partition into connected components of the graph with edges m >= lam.

    Every node appears exactly once; clusters and the partition itself are
    sorted by smallest member.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    seen = np.zeros(n, dtype=bool)
    parts = []
    for s in range(n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        stack = [s]
        while stack:
            u = stack.pop()
            nxt = np.flatnonzero(~seen & (m[u] >= lam))
            for v in nxt:
                if v != u:
                    seen[v] = True
                    comp.append(int(v))
                    stack.append(int(v))
        parts.append(sorted(comp))
    return sorted(parts)


def dendrogram_merge_matrix(d: Dendrogram) -> np.ndarray:
    """Pairwise merge levels encoded by a dendrogram (lowest common merge)."""
    out = np.ones((d.n, d.n))
    leaves = {}

    def take(node):
        return [node.index] if isinstance(node, Leaf) else leaves.pop(id(node))

    for node in _merges_bottom_up(d.root):
        left, right = take(node.left), take(node.right)
        out[np.ix_(left, right)] = node.level
        out[np.ix_(right, left)] = node.level
        leaves[id(node)] = left + right
    return out
