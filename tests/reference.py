"""Slow, definition-level reference implementations used as oracles.

Everything here favors obviousness over speed: explicit loops, explicit
row/column zeroing, full sorts, exhaustive path enumeration. The fast package
code is gated against these; apart from the dense modified pass and the
per-entry views at the end of the file, nothing here imports the modules it
checks.
"""

import itertools
import math

import numpy as np

from graphtree.smoothing import (
    _chebyshev_buffer,
    _counts,
    _pairwise_chebyshev,
    _square_counts,
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
    """
    n = m.shape[0]
    lvl = np.array(m, dtype=float)
    np.fill_diagonal(lvl, -np.inf)
    nodes = {i: i for i in range(n)}  # cluster leader -> subtree
    for _ in range(n - 1):
        a, b = divmod(int(np.argmax(lvl)), n)
        a, b = min(a, b), max(a, b)
        nodes[a] = {"left": nodes[a], "right": nodes.pop(b), "level": float(lvl[a, b])}
        row = np.maximum(lvl[a], lvl[b])
        row[[a, b]] = -np.inf
        lvl[a, :] = row
        lvl[:, a] = row
        lvl[b, :] = -np.inf
        lvl[:, b] = -np.inf
    return nodes[0]


def zeroed_square_counts(A, j):
    """Raw counts of (d_j A)^2 computed the obvious way: zero row/column j, square."""
    Az = np.asarray(A, dtype=np.int64).copy()
    Az[j, :] = 0
    Az[:, j] = 0
    return Az @ Az


def zeroed_square_over_n(A, j):
    """(d_j A)^2 / n: the zeroed counts with one division by n."""
    return zeroed_square_counts(A, j) / A.shape[0]


def deleted_square_entry(sq, a, j, i, k):
    """Entry (i, k) of (d_j A)^2 / n from precomputed raw counts sq = A @ A.

    Requires i != j and k != j. The correction A[i,j] * A[j,k] removes the
    only term of the common-neighbor sum that passes through j; subtraction
    happens on exact integers, then one division by n.
    """
    n = a.shape[0]
    if i == j or k == j:
        raise ValueError("deleted index j must differ from i and k")
    if not (0 <= i < n and 0 <= k < n and 0 <= j < n):
        raise ValueError("index out of range")
    return (float(sq[i, k]) - float(a[i, j]) * float(a[j, k])) / n


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
# all. The package's bound-then-verify pass must match it bit for bit.


def deleted_square_counts(s, a, j):
    """Raw counts of (d_j A)^2 for all (i, k) with i, k != j; column j is forced to 0.

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
    s = _counts(A)
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


# Per-entry views of the count kernels (_square_counts and
# deleted_square_counts), one pair at a time: tests check them against
# pair_distance and pair_neighborhood above.


def _pair_gaps(a, i, j, sq):
    """Integer gaps d_j(i, i2) * n for every i2, one at a time; entries i and j are 0."""
    n = a.shape[0]
    s = (_square_counts(a) if sq is None else sq).astype(np.int64)
    r = deleted_square_counts(s, a.astype(np.int64), j)
    gaps = np.zeros(n, dtype=np.int64)
    for i2 in range(n):
        if i2 not in (i, j):
            diff = np.abs(r[i] - r[i2])
            diff[[i, i2, j]] = 0
            gaps[i2] = diff.max()
    return gaps


def pair_distance_dj(a, i, i2, j, sq=None):
    """d_j(i, i2) = max over k not in {i, i2, j} of the (d_j A)^2 / n row difference.

    The maximum is taken over integer counts and divided by n once.
    """
    n = a.shape[0]
    if n < 4:
        raise ValueError("need n >= 4 so that a candidate k remains")
    if len({i, i2, j}) != 3:
        raise ValueError("i, i2, j must be pairwise distinct")
    return int(_pair_gaps(a, i, j, sq)[i2]) / n


def neighborhood_of_pair(a, i, j, h, sq=None):
    """Candidates i' (never i or j) whose d_j(i, i') is within the h-quantile.

    The threshold is the ceil(h*(n-2))th smallest integer count gap, ties
    included, so the result is never empty.
    """
    n = a.shape[0]
    if n < 4:
        raise ValueError("need n >= 4")
    if i == j:
        raise ValueError("need i != j")
    if not 0.0 < h < 1.0:
        raise ValueError("h must lie in (0, 1)")
    cands = np.array([v for v in range(n) if v not in (i, j)])
    gaps = _pair_gaps(a, i, j, sq)[cands]
    q = np.sort(gaps)[quantile_rank(h, n - 2) - 1]
    return cands[gaps <= q]
