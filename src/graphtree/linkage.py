"""Single linkage on similarity matrices: merge matrices, dendrograms, level cuts.

The merge matrix entry (i, j) is the best bottleneck over simple paths, i.e.
the level at which i and j fall into a common cluster when edges below the
level are discarded. One pass computes it together with the dendrogram: a
maximum spanning tree (whose unique tree paths realize the max-min values),
then its edges in descending weight order through one union-find. The pass
is O(n^2). Diagonal fixed at 1.
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
    "single_linkage",
    "merge_estimate",
    "build_dendrogram",
    "clusters_at_level",
    "dendrogram_merge_matrix",
]


class UnionFind:
    """Disjoint sets over 0..n-1; the root of every set is its smallest member."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra > rb:
            ra, rb = rb, ra
        self.parent[rb] = ra


def _max_spanning_tree(sim: np.ndarray):
    """Edges (u, v, w) of a maximum spanning tree, in the order dense Prim adds them.

    Prim starts at node 0; ties go to the lowest index via argmax. The
    diagonal is never read.
    """
    sim = np.asarray(sim, dtype=float)
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1] or sim.size == 0:
        raise ValueError("similarity matrix must be square and non-empty")
    if not np.array_equal(sim, sim.T):
        raise ValueError("similarity matrix must be symmetric")
    n = sim.shape[0]
    in_tree = np.zeros(n, dtype=bool)
    best = sim[0].copy()
    parent = np.zeros(n, dtype=int)
    in_tree[0] = True
    us, vs, ws = [], [], []
    for _ in range(n - 1):
        cand = np.where(in_tree, -np.inf, best)
        v = int(np.argmax(cand))
        in_tree[v] = True
        us.append(int(parent[v]))
        vs.append(v)
        ws.append(float(best[v]))
        row = sim[v]
        improved = ~in_tree & (row > best)
        best[improved] = row[improved]
        parent[improved] = v
    return us, vs, ws


def single_linkage(sim: np.ndarray):
    """Merge matrix and dendrogram of a symmetric similarity matrix, in one O(n^2) pass.

    The maximum spanning tree's edges are stable-sorted by descending weight
    and merged with one union-find. Tie rule: the edges of one weight join
    each component they form as a left-deep chain of that component's
    clusters from above the weight, taken in order of their leader (smallest
    member); the lower leader is always the left child. Each join writes its
    merge-matrix block once. Cutting the tree at any level gives
    clusters_at_level, and the tree of a similarity equals the tree of its
    merge matrix.
    """
    us, vs, ws = _max_spanning_tree(sim)
    n = len(ws) + 1
    out = np.ones((n, n))
    uf = UnionFind(n)
    node = [Leaf(i) for i in range(n)]  # indexed by set root
    members = [np.array([i]) for i in range(n)]
    order = sorted(range(n - 1), key=lambda e: -ws[e])  # stable
    start = 0
    while start < n - 1:
        level = ws[order[start]]
        stop = start + 1
        while stop < n - 1 and ws[order[stop]] == level:
            stop += 1
        # roots before this level; then group them by the components it forms
        pairs = [(uf.find(us[e]), uf.find(vs[e])) for e in order[start:stop]]
        for a, b in pairs:
            uf.union(a, b)
        parts = {}
        for a, b in pairs:
            parts.setdefault(uf.find(a), set()).update((a, b))
        for lead, *rest in map(sorted, parts.values()):
            for r in rest:
                out[np.ix_(members[lead], members[r])] = level
                out[np.ix_(members[r], members[lead])] = level
                members[lead] = np.concatenate((members[lead], members[r]))
                node[lead] = Merge(node[lead], node[r], level)
        start = stop
    return out, Dendrogram(root=node[0], n=n)


def merge_estimate(sim: np.ndarray) -> np.ndarray:
    """Max-min path similarity for every pair: the merge matrix of single_linkage.

    Equals brute-force enumeration over all simple paths; ties in tree
    construction cannot change the values.
    """
    m, _ = single_linkage(sim)
    if m.shape[0] < 2:
        raise ValueError("need at least two nodes")
    return m


@dataclass(frozen=True)
class Leaf:
    index: int


@dataclass(frozen=True, eq=False, repr=False)
class Merge:
    left: object
    right: object
    level: float

    # the generated methods would recurse once per level; these do not
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _json_text(self) == _json_text(other)

    def __hash__(self):
        return hash(_json_text(self))

    def __repr__(self):
        return _tree_repr(self)


@dataclass(frozen=True)
class Dendrogram:
    """Binary merge tree; levels never increase from leaves toward the root.

    Every traversal keeps an explicit stack, so trees of any depth (a chain
    of n leaves is n - 1 levels deep) can be cut, written, read, compared and
    hashed. Two subtrees are equal when their JSON texts are; repr shows the
    top levels only.
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
        return _json_loads(self.to_json())

    def to_json(self) -> str:
        """The bytes of json.dumps(self.to_json_dict(), sort_keys=True), at any depth."""
        return _json_text(self.root)

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


def _json_text(root) -> str:
    """Sorted-key JSON text of the subtree under root, written with an explicit stack."""
    parts = []
    stack = [root]
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


def _tree_repr(node, depth=4):
    """The dataclass repr of the top depth levels, with Merge(...) below them."""
    if not isinstance(node, Merge):
        return repr(node)
    if depth == 0:
        return "Merge(...)"
    return (f"Merge(left={_tree_repr(node.left, depth - 1)}, "
            f"right={_tree_repr(node.right, depth - 1)}, level={node.level!r})")


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
    """Dendrogram of a merge matrix: the tree of single_linkage, with its tie rule.

    Given a raw similarity instead, it returns the tree of merge_estimate(sim).
    That tree cuts into clusters_at_level(sim, lam) at every level, but where
    the similarity has ties its shape may differ from agglomerating the raw
    similarity by argmax.
    """
    return single_linkage(m)[1]


def clusters_at_level(m: np.ndarray, lam: float):
    """Partition into connected components of the graph with edges m >= lam.

    Read off the maximum spanning tree: its edges at or above lam have the
    same components. Every node appears exactly once; clusters and the
    partition itself are sorted by smallest member.
    """
    us, vs, ws = _max_spanning_tree(m)
    uf = UnionFind(len(ws) + 1)
    for u, v, w in zip(us, vs, ws):
        if w >= lam:
            uf.union(u, v)
    parts = {}
    for i in range(len(ws) + 1):
        parts.setdefault(uf.find(i), []).append(i)
    return sorted(parts.values())


def dendrogram_merge_matrix(d: Dendrogram) -> np.ndarray:
    """Pairwise merge levels encoded by a dendrogram (lowest common merge)."""
    merges = []  # every child before its parent once reversed
    stack = [d.root]
    while stack:
        node = stack.pop()
        if isinstance(node, Merge):
            merges.append(node)
            stack += [node.left, node.right]
    out = np.ones((d.n, d.n))
    leaves = {}

    def take(node):
        return [node.index] if isinstance(node, Leaf) else leaves.pop(id(node))

    for node in reversed(merges):
        left, right = take(node.left), take(node.right)
        out[np.ix_(left, right)] = node.level
        out[np.ix_(right, left)] = node.level
        leaves[id(node)] = left + right
    return out
