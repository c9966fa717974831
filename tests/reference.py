"""Slow, definition-level reference implementations used as oracles.

Everything here favors obviousness over speed: explicit loops, explicit
row/column zeroing, full sorts, exhaustive path enumeration. The fast package
code is gated against these; nothing here imports the modules it checks.
"""

import itertools
import math

import numpy as np


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


def zeroed_square_counts(A, j):
    """Raw counts of (d_j A)^2 computed the obvious way: zero row/column j, square."""
    Az = np.asarray(A, dtype=np.int64).copy()
    Az[j, :] = 0
    Az[:, j] = 0
    return Az @ Az


def zeroed_square_over_n(A, j):
    """(d_j A)^2 / n: the zeroed counts with one division by n."""
    return zeroed_square_counts(A, j) / A.shape[0]


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


def modified_estimate(A, h):
    """Per ordered pair neighborhoods with the target's row/column deleted.

    For each ordered (i, j): integer count gaps to every candidate i' not in
    {i, j}, full sort, threshold at the ceil(h*(n-2))th smallest with ties
    included, then average adjacency into j over the neighborhood. The final
    estimate symmetrizes the two directions.
    """
    A = np.asarray(A, dtype=np.int64)
    n = A.shape[0]
    r = _quantile_rank(h, n - 2)
    F = np.zeros((n, n))
    for j in range(n):
        c = zeroed_square_counts(A, j).tolist()
        for i in range(n):
            if i == j:
                continue
            cands = [i2 for i2 in range(n) if i2 not in (i, j)]
            nbhd = _gap_neighborhood(c, i, cands, (j,), r)
            F[i, j] = sum(int(A[i2, j]) for i2 in nbhd) / len(nbhd)
    phat = 0.5 * (F + F.T)
    np.fill_diagonal(phat, 0.0)
    return phat


def original_estimate(A, h):
    """Per node neighborhoods from integer A^2 count gaps, same quantile rule."""
    A = np.asarray(A, dtype=np.int64)
    n = A.shape[0]
    c = (A @ A).tolist()
    r = _quantile_rank(h, n - 1)
    nbhds = [_gap_neighborhood(c, i, [i2 for i2 in range(n) if i2 != i], (), r)
             for i in range(n)]
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
