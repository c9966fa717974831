"""Single linkage on similarity matrices: dendrograms and merge matrices.

The merge matrix entry (i, j) is the best bottleneck over simple paths, i.e.
the level at which i and j fall into a common cluster when edges below the
level are discarded. single_linkage builds the dendrogram in O(n^2): a
maximum spanning tree (whose unique tree paths realize the max-min values),
then its edges in descending weight order through one union-find. The tree
is the output; callers that read the merge matrix take it from
dendrogram_merge_matrix, the one writer of merge-matrix blocks: each row of
the table writes the block between its two children once. Diagonal fixed
at 1.

A dendrogram is a merge table in the stepwise form of Muellner (2011) and of
scipy's linkage matrix: leaves are nodes 0..n-1 and row k joins two earlier
nodes into node n + k.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "Dendrogram",
    "single_linkage",
    "dendrogram_merge_matrix",
]

# budget, in float64 values (256 KiB), for the block of merge-matrix rows
# whose columns are put back in leaf order at once
_PERMUTE_ELEMS = 1 << 15


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
    diagonal is never read. Tree nodes are masked with -inf, so when every
    candidate is -inf argmax may land on one; the lowest-index node not yet
    in the tree is taken instead, which is the same tie rule.
    """
    sim = np.asarray(sim, dtype=float)
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1] or sim.size == 0:
        raise ValueError("similarity matrix must be square and non-empty")
    if not np.array_equal(sim, sim.T):
        raise ValueError("similarity matrix holds NaN" if np.isnan(sim).any()
                         else "similarity matrix must be symmetric")
    n = sim.shape[0]
    in_tree = np.zeros(n, dtype=bool)
    best = sim[0].copy()
    parent = np.zeros(n, dtype=int)
    in_tree[0] = True
    us, vs, ws = [], [], []
    for _ in range(n - 1):
        cand = np.where(in_tree, -np.inf, best)
        v = int(np.argmax(cand))
        if in_tree[v]:
            v = int(np.argmin(in_tree))
        in_tree[v] = True
        us.append(int(parent[v]))
        vs.append(v)
        ws.append(float(best[v]))
        row = sim[v]
        improved = ~in_tree & (row > best)
        best[improved] = row[improved]
        parent[improved] = v
    return us, vs, ws


def single_linkage(sim: np.ndarray) -> "Dendrogram":
    """Dendrogram of a symmetric similarity matrix, in O(n^2).

    The maximum spanning tree's edges are stable-sorted by descending weight
    and merged with one union-find into a merge table. Tie rule: the edges of
    one weight join each component they form as a left-deep chain of that
    component's clusters from above the weight, taken in order of their
    leader (smallest member); the lower leader is always the left child. The
    merge matrix (max-min closure) is dendrogram_merge_matrix of the tree; it
    is an n x n array, so it is built only where it is read. Cutting the tree
    at lam gives the connected components of the graph with edges
    sim >= lam, and the tree of a similarity equals the tree of its merge
    matrix.
    """
    us, vs, ws = _max_spanning_tree(sim)
    n = len(ws) + 1
    uf = UnionFind(n)
    node = list(range(n))  # dendrogram node of each set, indexed by set root
    left, right, levels = [], [], []
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
                left.append(node[lead])
                right.append(node[r])
                levels.append(level)
                node[lead] = n + len(levels) - 1
        start = stop
    return Dendrogram(left, right, levels)


# one token of the dendrogram's JSON grammar, after optional whitespace:
# punctuation, a key with its colon, or a number (NaN and +-Infinity included)
_TOKEN = re.compile(r'[ \t\n\r]*(?:([{},])|"(left|level|right)"[ \t\n\r]*:|'
                    r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?|NaN|-?Infinity))")


@dataclass(frozen=True)
class Dendrogram:
    """Binary merge tree as a table: row k joins left[k] and right[k] at level[k].

    Leaves are nodes 0..n-1 and row k makes node n + k; the last row is the
    root. A table is accepted when every node but the root is a child exactly
    once and every child is an earlier node; it is then stored in one
    canonical row order, post-order with the left subtree first, so two
    tables are equal (and hash alike) exactly when their trees are. Levels
    are floats and, from single_linkage, never increase toward the root.
    Every walk is a loop, so trees of any depth work.
    """

    left: tuple
    right: tuple
    level: tuple

    def __post_init__(self):
        rows = len(self.level)
        if not len(self.left) == len(self.right) == rows:
            raise ValidationError("left, right and level must have one entry per row")
        n = rows + 1
        seen = set()
        try:
            left = [operator.index(c) for c in self.left]
            right = [operator.index(c) for c in self.right]
        except TypeError:
            raise ValidationError("children must be integer node ids") from None
        for k, pair in enumerate(zip(left, right)):
            for c in pair:
                if not 0 <= c < n + k or c in seen:
                    raise ValidationError(
                        f"row {k}: child {c} is not an earlier node that no other row joins"
                        f" ({n} leaves)")
                seen.add(c)
        # a right-first pre-order from the root, reversed, is the canonical post-order
        order, stack = [], [2 * n - 2] if rows else []
        while stack:
            k = stack.pop() - n
            order.append(k)
            stack += [c for c in (left[k], right[k]) if c >= n]
        order.reverse()
        new = list(range(n)) + [0] * rows
        for j, k in enumerate(order):
            new[n + k] = n + j
        object.__setattr__(self, "left", tuple(new[left[k]] for k in order))
        object.__setattr__(self, "right", tuple(new[right[k]] for k in order))
        object.__setattr__(self, "level", tuple(float(self.level[k]) for k in order))

    @property
    def n(self) -> int:
        return len(self.level) + 1

    def _walk(self):
        """Depth-first from the root, left subtree first, with an explicit stack.

        Yields (i, None) at leaf i, and (k, 0), (k, 1), (k, 2) before, between
        and after the two subtrees of row k.
        """
        n = self.n
        stack = [(2 * n - 2, None)]
        while stack:
            node, step = stack.pop()
            if node < n:
                yield node, None
            elif step is not None:
                yield node - n, step
            else:
                k = node - n
                yield k, 0
                stack += [(node, 2), (self.right[k], None), (node, 1), (self.left[k], None)]

    @property
    def leaf_order(self):
        """Leaves in display order (left subtree first)."""
        return [i for i, step in self._walk() if step is None]

    def cut(self, lam: float):
        """Clusters after removing merges below lam, each and all sorted by smallest member."""
        members = [[i] for i in range(self.n)]  # cluster headed by each node
        for a, b, level in zip(self.left, self.right, self.level):
            if level >= lam:
                members.append(members[a] + members[b])
                members[a] = members[b] = []
            else:
                members.append([])
        return sorted(sorted(m) for m in members if m)

    def to_json(self) -> str:
        """Nested {"left", "level", "right"} objects with int leaves, keys sorted."""
        levels = json.dumps(self.level)[1:-1].split(", ")
        parts = []
        for k, step in self._walk():
            if step is None:
                parts.append(str(k))
            elif step == 0:
                parts.append('{"left": ')
            elif step == 1:
                parts.append(f', "level": {levels[k]}, "right": ')
            else:
                parts.append("}")
        return "".join(parts)

    @classmethod
    def from_json(cls, text: str) -> "Dendrogram":
        """Read the to_json grammar with an explicit stack.

        Objects have exactly the keys left, level and right, in any order and
        with any JSON whitespace. Leaves are non-negative ints and levels are
        JSON numbers, NaN and +-Infinity included. Anything else, and any
        tree whose leaves are not 0..n-1 once each, raises ValidationError.
        """
        rows = []  # (left, right, level) as objects close; an inner child c is ~row
        frames = []  # [fields read, key being read] per open object
        pos, want, top = 0, "value", None
        while m := _TOKEN.match(text, pos):
            punct, key, number = m.groups()
            where = frames[-1][1] if frames else "left"
            value = None
            if want == "value" and punct == "{" and where != "level":
                frames.append([{}, None])
                want = "key"
            elif want == "value" and number is not None and where == "level":
                value = float(number)
            elif want == "value" and number is not None and number.isdigit():
                value = int(number)
            elif want == "key" and key is not None and key not in frames[-1][0]:
                frames[-1][1] = key
                want = "value"
            elif want == "next" and frames and punct == ",":
                want = "key"
            elif want == "next" and frames and punct == "}" and len(frames[-1][0]) == 3:
                fields = frames.pop()[0]
                rows.append((fields["left"], fields["right"], fields["level"]))
                value = ~(len(rows) - 1)
            else:
                break
            pos = m.end()
            if value is not None:
                if frames:
                    frames[-1][0][frames[-1][1]] = value
                else:
                    top = value
                want = "next"
        if want != "next" or frames or text[pos:].strip(" \t\n\r"):
            raise ValidationError(f"invalid dendrogram JSON at char {pos}")
        if not rows and top != 0:
            raise ValidationError(f"a one-leaf dendrogram is leaf 0, not {top}")
        n = len(rows) + 1
        left, right, level = zip(*rows) if rows else ((), (), ())
        return cls([c if c >= 0 else n + ~c for c in left],
                   [c if c >= 0 else n + ~c for c in right], level)

    def to_newick(self, labels=None) -> str:
        """Newick text; every child edge is annotated with its parent's merge level (%.12g)."""
        parts = []
        for k, step in self._walk():
            if step is None:
                parts.append(str(k) if labels is None else _newick_safe(labels[k]))
            elif step == 0:
                parts.append("(")
            else:
                parts.append(":" + ("%.12g" % self.level[k]) + ("," if step == 1 else ")"))
        return "".join(parts) + ";"


def _newick_safe(label: str) -> str:
    """The label with whitespace and the Newick punctuation ,():;'"[] replaced by _."""
    return "".join("_" if ch.isspace() or ch in ",():;'\"[]" else ch for ch in str(label))


def dendrogram_merge_matrix(d: Dendrogram) -> np.ndarray:
    """Pairwise merge levels encoded by a dendrogram (lowest common merge); diagonal 1.

    Row k writes the two blocks between the leaves under its children, so
    every off-diagonal entry is written exactly once. The leaves under a node
    are one run of leaf_order, so each block is written with the leaves as
    rows and a slice of places in leaf_order as columns; the columns are
    then put back in leaf order in place, one block of rows at a time.
    """
    n = d.n
    order = np.array(d.leaf_order)
    pos = np.empty(n, dtype=np.intp)  # place of each leaf in leaf_order
    pos[order] = np.arange(n)
    lo, hi = pos.tolist(), (pos + 1).tolist()  # run of places under each node
    out = np.ones((n, n))  # out[i, pos[j]] is the level of (i, j) until the end
    for a, b, level in zip(d.left, d.right, d.level):
        out[order[lo[a]:hi[a]], lo[b]:hi[b]] = level
        out[order[lo[b]:hi[b]], lo[a]:hi[a]] = level
        lo.append(lo[a])
        hi.append(hi[b])
    step = max(1, _PERMUTE_ELEMS // n)
    for r in range(0, n, step):
        out[r:r + step] = out[r:r + step, pos]
    return out
