"""Slow, definition-level reference implementations used as oracles.

Everything here favors obviousness over speed: explicit loops, explicit
row/column zeroing, full sorts, exhaustive path enumeration, one edge-list
line at a time. The fast package code is gated against these; apart from the
dense modified pass, nothing here imports the modules it checks (the
edge-list oracle raises graphtree's ValidationError, so that messages
compare). Each rule has one oracle: d_j, for one, is defined on zeroed copies
of A (zeroed_square_counts), and the deletion identity the dense pass uses
instead is checked against it once, in acceptance criterion C3.

The last section holds the oracles behind the paper's claims (C1, C4, C5,
C7): measure preserving maps and pullbacks, partition refinement, exact
tiny-graph probabilities, the rho-density check and the discretization
oracle of the mergeon. No pipeline stage runs them, so they live here; they
build on the package's graphon types and single linkage.
"""

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from graphtree.errors import ValidationError
from graphtree.graphon import BlockPartition, StepGraphon
from graphtree.linkage import dendrogram_merge_matrix, single_linkage
from graphtree.sampling import check_adjacency
from graphtree.smoothing import (
    _chebyshev_buffer,
    _count_dtype,
    _pairwise_chebyshev,
    _within_rank,
    quantile_rank,
)


def maxmin_simple_paths(sim, i, j):
    """Max over all simple i-j paths of the min similarity along the path."""
    n = sim.shape[0]
    others = [v for v in range(n) if v not in (i, j)]
    best = -math.inf
    for size in range(len(others) + 1):
        for mid in itertools.permutations(others, size):
            path = (i,) + mid + (j,)
            bottleneck = min(sim[a, b] for a, b in zip(path, path[1:]))
            best = max(best, bottleneck)
    return best


def maxmin_matrix(sim):
    """All-pairs max-min path values by brute force; diagonal fixed at 1."""
    n = sim.shape[0]
    out = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = maxmin_simple_paths(sim, i, j)
    return out


def maxmin_closure(sim):
    """All-pairs max-min path values by Floyd-Warshall over (max, min); diagonal 1.

    Paths through each node in turn are tried as detours. Every value is a
    copy of an entry of sim, never a computed number, so results compare
    bitwise; polynomial where maxmin_matrix is exponential.
    """
    c = np.array(sim, dtype=float)
    np.fill_diagonal(c, -np.inf)
    for k in range(c.shape[0]):
        c = np.maximum(c, np.minimum(c[:, k:k + 1], c[k:k + 1, :]))
    np.fill_diagonal(c, 1.0)
    return c


def argmax_agglomerate(m):
    """Single-linkage tree of a merge matrix by repeated full-matrix argmax, O(n^3).

    The tie rule by definition: among cluster pairs at the largest level, the
    pair whose leaders (smallest members) come first lexicographically merges,
    and the lower leader's cluster becomes the left child. Leaves are ints and
    merges {"left", "right", "level"} dicts: the dendrogram's JSON document.
    Merged clusters and the diagonal are masked by an explicit set of live
    pairs, not by a level, so a -inf level still joins two clusters.
    """
    n = m.shape[0]
    lvl = np.array(m, dtype=float)
    leader = np.ones(n, dtype=bool)
    nodes = {i: i for i in range(n)}  # cluster leader -> subtree
    for _ in range(n - 1):
        live = leader[:, None] & leader[None, :]
        np.fill_diagonal(live, False)
        top = lvl[live].max()
        a, b = divmod(int(np.flatnonzero(live & (lvl == top))[0]), n)  # a < b: lvl is symmetric
        nodes[a] = {"left": nodes[a], "right": nodes.pop(b), "level": float(top)}
        lvl[a, :] = lvl[:, a] = np.maximum(lvl[a], lvl[b])
        leader[b] = False
    return nodes[0]


def merge_matrix_by_index_blocks(d):
    """Merge matrix of a dendrogram, each child-by-child block written through np.ix_.

    Row k of the merge table sets the levels between the leaves under its two
    children; the leaves under a node are one run of d.leaf_order.
    """
    n = d.n
    order = np.array(d.leaf_order)
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
    lo, hi = pos.tolist(), (pos + 1).tolist()
    out = np.ones((n, n))
    for a, b, level in zip(d.left, d.right, d.level):
        ra, rb = order[lo[a]:hi[a]], order[lo[b]:hi[b]]
        out[np.ix_(ra, rb)] = level
        out[np.ix_(rb, ra)] = level
        lo.append(lo[a])
        hi.append(hi[b])
    return out


def square_counts(A):
    """Raw common-neighbour counts A @ A in int64."""
    Ai = np.asarray(A, dtype=np.int64)
    return Ai @ Ai


def zeroed_square_counts(A, j):
    """Raw counts of (d_j A)^2 computed the obvious way: zero row/column j, square."""
    Az = np.asarray(A, dtype=np.int64).copy()
    Az[j, :] = 0
    Az[:, j] = 0
    return Az @ Az


def pair_gap(A, i, i2, j):
    """Integer gap behind d_j(i, i2): max |c[i, k] - c[i2, k]| over k not in {i, i2, j}."""
    c = zeroed_square_counts(A, j).tolist()
    best = 0
    for k in range(len(c)):
        if k in (i, i2, j):
            continue
        best = max(best, abs(c[i][k] - c[i2][k]))
    return best


def pair_distance(A, i, i2, j):
    """d_j(i, i2) = pair_gap / n; the division happens only on the reported value."""
    return pair_gap(A, i, i2, j) / A.shape[0]


def _quantile_rank(h, m):
    return max(1, math.ceil(h * m))


def _gap_neighborhood(c, i, cands, excluded, r):
    """Candidates whose integer gap to row i is within the r-th smallest, ties included."""
    n = len(c)
    gaps = []
    for i2 in cands:
        best = 0
        for k in range(n):
            if k == i or k == i2 or k in excluded:
                continue
            best = max(best, abs(c[i][k] - c[i2][k]))
        gaps.append(best)
    q = sorted(gaps)[r - 1]
    return [i2 for i2, g in zip(cands, gaps) if g <= q]


def pair_neighborhood(A, i, j, h):
    """N(i, j): candidates i2 not in {i, j} ranked by integer gaps with j deleted."""
    n = A.shape[0]
    c = zeroed_square_counts(A, j).tolist()
    cands = [i2 for i2 in range(n) if i2 not in (i, j)]
    return _gap_neighborhood(c, i, cands, (j,), _quantile_rank(h, n - 2))


def node_neighborhood(A, i, h):
    """N_i: candidates i2 != i ranked by integer gaps between rows of A^2."""
    n = A.shape[0]
    c = (np.asarray(A, dtype=np.int64) @ np.asarray(A, dtype=np.int64)).tolist()
    cands = [i2 for i2 in range(n) if i2 != i]
    return _gap_neighborhood(c, i, cands, (), _quantile_rank(h, n - 1))


def zeroed_gap_table(A, j):
    """Integer gaps d_j(i, i2) * n for all (i, i2) at once, from zeroed_square_counts.

    Entry (i, i2) is max |c[i, k] - c[i2, k]| over k not in {i, i2, j}, with
    every masked term set to 0, as pair_gap starts its maximum at 0.
    """
    c = zeroed_square_counts(A, j)
    n = c.shape[0]
    diff = np.abs(c[:, None, :] - c[None, :, :])
    idx = np.arange(n)
    diff[idx, :, idx] = 0  # k == i
    diff[:, idx, idx] = 0  # k == i2
    diff[:, :, j] = 0
    return diff.max(axis=2)


def modified_estimate(A, h):
    """Per ordered pair neighborhoods with the target's row/column deleted.

    For each ordered (i, j): integer count gaps to every candidate i' not in
    {i, j}, full sort, threshold at the ceil(h*(n-2))th smallest with ties
    included, then average adjacency into j over the neighborhood. The final
    estimate symmetrizes the two directions. The gaps of one j come from one
    zeroed_gap_table.
    """
    A = np.asarray(A, dtype=np.int64)
    n = A.shape[0]
    r = _quantile_rank(h, n - 2)
    F = np.zeros((n, n))
    for j in range(n):
        gaps = zeroed_gap_table(A, j).tolist()
        for i in range(n):
            if i == j:
                continue
            cands = [i2 for i2 in range(n) if i2 not in (i, j)]
            q = sorted(gaps[i][i2] for i2 in cands)[r - 1]
            nbhd = [i2 for i2 in cands if gaps[i][i2] <= q]
            F[i, j] = sum(int(A[i2, j]) for i2 in nbhd) / len(nbhd)
    phat = 0.5 * (F + F.T)
    np.fill_diagonal(phat, 0.0)
    return phat


def original_estimate(A, h):
    """Per node neighborhoods from integer A^2 count gaps, same quantile rule."""
    A = np.asarray(A, dtype=np.int64)
    n = A.shape[0]
    nbhds = [node_neighborhood(A, i, h) for i in range(n)]
    G = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            G[i, j] = sum(int(A[i2, j]) for i2 in nbhds[i]) / len(nbhds[i])
    phat = 0.5 * (G + G.T)
    np.fill_diagonal(phat, 0.0)
    return phat


def column_distances(A):
    """Euclidean distances between adjacency columns, by explicit loops."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = math.sqrt(float(np.sum((A[:, i] - A[:, j]) ** 2)))
    return out


def estimation_errors(phat, p):
    """(max over i != j, (1/n^2) * sum over i != j) of the differences."""
    n = phat.shape[0]
    mx = 0.0
    sq = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = abs(phat[i, j] - p[i, j])
            mx = max(mx, d)
            sq += d * d
    return mx, sq / (n * n)


def components_at_level(sim, lam):
    """Connected components of the graph with edges sim >= lam, as sorted lists."""
    n = sim.shape[0]
    seen = [False] * n
    clusters = []
    for s in range(n):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        comp = []
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in range(n):
                if v != u and not seen[v] and sim[u, v] >= lam:
                    seen[v] = True
                    stack.append(v)
        clusters.append(sorted(comp))
    return sorted(clusters)


def locate_by_bisect(partition, x):
    """Block of x in a BlockPartition: [b_i, b_{i+1}), and x = 1 in the last block."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"point {x!r} outside [0, 1]")
    if x == 1.0:
        return partition.k - 1
    return bisect.bisect_right(partition.breakpoints, x) - 1


def induced_merge_height(clusters, mvals, i, j):
    """Merge height induced on a clustering by true pairwise heights.

    Finds the smallest cluster containing both i and j and returns the
    minimum of mvals over distinct pairs inside it.
    """
    if i == j:
        raise ValueError("need two distinct indices")
    best = None
    for c in clusters:
        if i in c and j in c and (best is None or len(c) < len(best)):
            best = c
    if best is None:
        raise ValueError(f"no cluster contains both {i} and {j}")
    members = sorted(best)
    return min(
        float(mvals[u, v]) for a, u in enumerate(members) for v in members[a + 1 :]
    )


def group_of_thirds(points):
    """Latent group index 0/1/2 when groups are the thirds of [0, 1]."""
    return np.minimum((np.asarray(points) * 3).astype(int), 2)


# The dense modified pass: every d_j for all pairs at once through the
# package's Chebyshev kernel, one j at a time, n^4 / 2 count differences in
# all. The package's pass, which ranks only the candidates its bounds keep and
# derives their gaps from level sets, must match it bit for bit.


def deleted_square_counts(s, a, j):
    """Raw counts of (d_j A)^2 for all (i, k) with i, k != j; column j is forced to 0.

    Entry (i, k) is s[i, k] - a[i, j] * a[j, k]: the one term of the
    common-neighbour sum that passes through j is removed, on exact integers.
    s and a share one dtype. Row j is never meaningful and callers must not
    read it.
    """
    r = s - np.outer(a[:, j], a[j])
    r[:, j] = 0
    return r


def dense_pair_neighborhoods(s, ai, j, rank, buf):
    """Boolean neighborhood rows for every ordered pair (i, j) at fixed j.

    Row i flags the candidates i' with d_j(i, i') within the rank-th smallest.
    Rows i == j are meaningless; the diagonal and column j are never flagged.
    """
    d = _pairwise_chebyshev(deleted_square_counts(s, ai, j), buf)
    d[:, j] = np.iinfo(d.dtype).max
    return _within_rank(d, rank)


def dense_modified_estimate(A, h):
    """(P_hat, sizes) of the modified estimator from the dense per-j pass."""
    n = A.shape[0]
    s = square_counts(A).astype(_count_dtype(n))
    ai = A.astype(s.dtype)
    af = A.astype(np.float64)
    buf = _chebyshev_buffer(n, s.dtype)
    r = quantile_rank(h, n - 2)
    f = np.empty((n, n))
    sizes = np.empty((n, n), dtype=int)
    for j in range(n):
        nbrs = dense_pair_neighborhoods(s, ai, j, r, buf)
        sizes[:, j] = nbrs.sum(axis=1)
        f[:, j] = (nbrs @ af[:, j]) / sizes[:, j]
    phat = 0.5 * (f + f.T)
    np.fill_diagonal(phat, 0.0)
    np.fill_diagonal(sizes, 0)
    return phat, sizes


def edge_list_by_lines(path):
    """Adjacency of an edge-list file read one line at a time with int().

    Same rules and messages as graphtree.load_edge_list on the grammar both
    share: blank and "#" lines skipped, two nonnegative distinct ids per
    line, each error naming its line, n one plus the largest id. A line
    with a byte the file's encoding cannot decode is an error, wherever the
    byte is. Unlike load_edge_list, it reads a "#" after an id as part of the
    line and accepts every id int() does (1_0, non-ASCII digits, beyond int64).
    """
    edges = []
    try:
        with open(path, errors="surrogateescape") as fh:
            for lineno, raw in enumerate(fh, start=1):
                for ch in raw:
                    if "\udc80" <= ch <= "\udcff":  # an undecodable byte
                        raise ValidationError(f"{path}:{lineno}: cannot decode byte "
                                              f"0x{ord(ch) - 0xDC00:02x} as {fh.encoding}")
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ValidationError(f"{path}:{lineno}: expected two node ids, got {line!r}")
                try:
                    u, v = int(parts[0]), int(parts[1])
                except ValueError:
                    raise ValidationError(f"{path}:{lineno}: node ids must be integers") from None
                if u < 0 or v < 0:
                    raise ValidationError(f"{path}:{lineno}: node ids must be nonnegative")
                if u == v:
                    raise ValidationError(f"{path}:{lineno}: self loops are not allowed")
                edges.append((u, v))
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from e
    if not edges:
        raise ValidationError(f"{path}: no edges found")
    n = max(max(u, v) for u, v in edges) + 1
    a = np.zeros((n, n), dtype=np.int8)
    for u, v in edges:
        a[u, v] = 1
        a[v, u] = 1
    return a


# Paper-claim oracles: relabelings of [0, 1], refinement, exact tiny-graph
# probabilities, the rho-density check and the discretization oracle.


@dataclass(frozen=True)
class MeasurePreservingMap:
    """A measure preserving transformation of [0,1].

    Supported kinds: "identity" and "stretch_mod" (x -> (m*x) mod 1). The tag
    is extensible; every kind must preserve interval measure exactly.
    """

    kind: str
    multiplier: int = 1

    def __post_init__(self):
        if self.kind not in ("identity", "stretch_mod"):
            raise ValidationError(f"unknown map kind {self.kind!r}")
        if not isinstance(self.multiplier, int) or self.multiplier < 1:
            raise ValidationError("multiplier must be a positive integer")
        if self.kind == "identity" and self.multiplier != 1:
            raise ValidationError("identity map has no multiplier")

    @classmethod
    def identity(cls) -> "MeasurePreservingMap":
        return cls("identity")

    @classmethod
    def stretch_mod(cls, m: int) -> "MeasurePreservingMap":
        return cls("stretch_mod", m)

    def apply(self, x: float) -> float:
        # x = 1 maps to 1, not 0: the point 1 belongs to the last block
        # everywhere in the package, and the wrap would break the pointwise
        # pullback identity there (a null set, but cheap to get right)
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"point {x!r} outside [0, 1]")
        if self.kind == "identity" or x == 1.0:
            return x
        return (self.multiplier * x) % 1.0

    def apply_many(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if self.kind == "identity":
            return xs
        return np.where(xs == 1.0, 1.0, np.mod(self.multiplier * xs, 1.0))

    def preimage_intervals(self, a, b):
        """Preimage of [a, b) as a list of disjoint (lo, hi) Fractions.

        Exact rational arithmetic; the total preimage length equals b - a,
        which is the measure preservation property tests rely on.
        """
        a, b = Fraction(a), Fraction(b)
        if not 0 <= a < b <= 1:
            raise ValueError("need 0 <= a < b <= 1")
        if self.kind == "identity":
            return [(a, b)]
        m = self.multiplier
        return [((a + t) / m, (b + t) / m) for t in range(m)]


def pullback(w: StepGraphon, phi: MeasurePreservingMap) -> StepGraphon:
    """The relabeled graphon W^phi with W^phi(x, y) = W(phi(x), phi(y)).

    For stretch_mod(m) the new partition is the common refinement of the
    phi-preimages of the original breakpoints; each new block takes the
    value of the original block its image falls in. The identity map
    returns w unchanged.
    """
    if phi.kind == "identity":
        return w
    m = phi.multiplier
    pre = {(b + t) / m for b in w.partition.breakpoints[:-1] for t in range(m)}
    pre.add(1.0)
    part = BlockPartition(tuple(sorted(pre)))
    bp = np.asarray(part.breakpoints)
    orig = w.partition.locate_many(phi.apply_many(0.5 * (bp[:-1] + bp[1:])))
    return StepGraphon(part, w.values[np.ix_(orig, orig)])


def refine(partition: BlockPartition, delta: float) -> BlockPartition:
    """Split every block into equal pieces of length between delta and 2*delta.

    Each block of length L is cut into m = max(1, ceil(L / (2*delta)))
    equal pieces; every piece then lies inside exactly one original block.
    Infeasible when some block is already shorter than delta.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    new = [0.0]
    for a, b in zip(partition.breakpoints, partition.breakpoints[1:]):
        length = b - a
        if length < delta:
            raise ValueError(
                f"block [{a}, {b}) has length {length} < delta={delta}; refinement infeasible"
            )
        m = max(1, math.ceil(length / (2.0 * delta)))
        for t in range(1, m):
            new.append(a + t * length / m)
        new.append(b)
    return BlockPartition(tuple(new))


MAX_EXACT_NODES = 8


def exact_graph_probability(w: StepGraphon, a: np.ndarray) -> float:
    """Probability of the labeled graph under the step graphon model.

    The defining integral factorizes over block assignments: sum over all k^n
    assignments of (product of block measures) * (product over unordered
    pairs of V or 1-V according to edge presence). Exact for step graphons;
    guarded to n <= MAX_EXACT_NODES since the sum has k^n terms.
    """
    check_adjacency(a)
    n = a.shape[0]
    if n > MAX_EXACT_NODES:
        raise ValueError(f"exact probability limited to n <= {MAX_EXACT_NODES}, got {n}")
    k = w.k
    lengths = np.diff(w.partition.breakpoints)
    v = w.values
    one_minus = 1.0 - v
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    total = 0.0
    span = k**n
    chunk = 1 << 16
    for lo in range(0, span, chunk):
        flat = np.arange(lo, min(lo + chunk, span))
        assign = np.unravel_index(flat, (k,) * n)
        weight = lengths[assign[0]].copy()
        for d in range(1, n):
            weight *= lengths[assign[d]]
        like = np.ones_like(weight)
        for i, j in pairs:
            m = v if a[i, j] else one_minus
            like *= m[assign[i], assign[j]]
        total += float(np.sum(weight * like))
    return total


def rho_dense_check(points, partition: BlockPartition, rho: float) -> bool:
    """True iff every block B holds strictly more than (1 - rho) * |B| of the sample points."""
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    counts = np.bincount(partition.locate_many(points), minlength=partition.k)
    return bool(np.all(counts / len(points) > (1.0 - rho) * np.diff(partition.breakpoints)))


def discretization_oracle(w: StepGraphon, m: int) -> StepGraphon:
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
    bp = np.asarray(BlockPartition(tuple(atom_bps)).breakpoints)
    idx = part.locate_many(0.5 * (bp[:-1] + bp[1:]))
    weights = w.values[np.ix_(idx, idx)]

    heights = dendrogram_merge_matrix(single_linkage(weights))

    levels = np.empty((k, k))
    for a in range(k):
        levels[a, a] = heights[a * m, a * m + 1]
        for b in range(a + 1, k):
            levels[a, b] = levels[b, a] = heights[a * m, b * m]
    return StepGraphon(part, levels)
