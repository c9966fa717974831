"""Neighborhood smoothing estimators for the edge probability matrix.

Two variants. The per-node variant smooths over one neighborhood per node.
The modified variant builds one neighborhood per ordered pair (i, j), with
row and column j of A deleted before squaring, so the entries averaged for
P_hat[i][j] are independent of everything involving node j.

Both variants rank candidates on exact integer Chebyshev gaps. With S = A @ A
held as raw common-neighbour counts, the distance between rows i and i' is
the largest |S[i,k] - S[i',k]| over k not in {i, i'}. Deleting row/column j
never materializes a zeroed copy: entry (i, k) of (d_j A)^2 is
S[i,k] - A[i,j] * A[j,k], and column j drops out of the maximum. The tie
rule is "ties on integer count gaps": ranking and the "ties included"
threshold use these exact integers, at every n. The 1/n of the paper's A^2/n
scale is a positive constant factor, so it changes no rank and no tie and is
never applied.
Neighborhoods are thus the exact distance quantiles of Zhang, Levina & Zhu
(Biometrika 2017).

The modified variant does not compute every d_j(i, i'). One pass over the
pairs (i, i') finds the top gap D1 of S[i] - S[i'], its argmax g and the
second gap D2. Deleting j moves each term by at most one, so d_j(i, i') is
exactly M (D2 when g is the unique argmax and j == g, else D1) wherever
A[i,j] == A[i',j], and lies in [M - 1, M + 1] elsewhere. Per (i, j), the
rank-th smallest upper bound caps the threshold; candidates whose lower
bound stays above it for every j are dropped up front, and an exact gap is
computed only where A[i,j] != A[i',j] and the lower bound is at or below the
cap. The unique argmax settles such an entry in O(1) when j != g and the
term at g decides the maximum; a scan over k settles the rest. This is the
bound-then-verify nearest-neighbour search of Fukunaga & Narendra (1975).
The result, tie rule included, is bit for bit that of the dense pass over
all (i, j, i'). On the three-group graphon 3.8% of the entries need an
exact gap at n=128 and 1.0% at n=1024, and the O(1) rule settles a third to
a half of those; a graph whose bounds all straddle the cap still costs
O(n^4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .sampling import check_adjacency

__all__ = [
    "SmoothingConfig",
    "EstimationErrors",
    "quantile_rank",
    "estimate_modified",
    "estimate_original",
    "estimate_edge_probabilities",
    "column_distance_matrix",
    "estimation_errors",
]

# chunk budget for the pairwise gap kernels, in count elements; a block of
# 1 << 18 int16 values (512 KiB) stays in cache across its passes
_CHUNK_ELEMS = 1 << 18

# budget for the modified estimator's (i, j, i') blocks and row scans
_BLOCK_ELEMS = 1 << 16


# fewest nodes each variant can rank: n - 2 candidates per pair, n - 1 per node
MINIMUM_N = {"modified": 4, "original": 3}


@dataclass(frozen=True)
class SmoothingConfig:
    """Neighborhood size constant and estimator variant.

    Every check on user input lives here and raises ValidationError: the
    variant and C on construction, the variant's minimum n and the range of h
    in bandwidth(n), which both estimators call first.
    """

    C: float = 0.1
    variant: str = "modified"

    def __post_init__(self):
        if not self.C > 0:
            raise ValidationError(f"C must be positive, got {self.C}")
        if self.variant not in MINIMUM_N:
            raise ValidationError(f"unknown variant {self.variant!r}")

    def bandwidth(self, n: int) -> float:
        """h = C * sqrt(ln n / n); natural log. Must land in (0, 1) for the given n."""
        minimum = MINIMUM_N[self.variant]
        if n < minimum:
            raise ValidationError(f"{self.variant} estimator needs >= {minimum} nodes, got {n}")
        h = self.C * math.sqrt(math.log(n) / n)
        if not 0.0 < h < 1.0:
            raise ValidationError(f"bandwidth h={h} outside (0, 1) for C={self.C}, n={n}")
        return h


@dataclass(frozen=True)
class EstimationErrors:
    max_norm: float
    mse: float


def quantile_rank(h: float, m: int) -> int:
    """Order statistic index for the h-quantile of m values: max(1, ceil(h*m)).

    Every value tied with the threshold is included by the callers; this is a
    documented convention, chosen so neighborhoods are never empty. Ties are
    on integer count gaps, so they are exact for every n.
    """
    if not 0.0 < h < 1.0:
        raise ValueError("h must lie in (0, 1)")
    if m < 1:
        raise ValueError("need at least one candidate")
    return max(1, math.ceil(h * m))


def _square_counts(a: np.ndarray) -> np.ndarray:
    # raw common-neighbor counts A @ A; the float64 BLAS product is exact
    af = a.astype(np.float64)
    return af @ af


def _count_dtype(n: int) -> np.dtype:
    """Smallest signed dtype, int16 at least, that holds +-n.

    Counts lie in [0, n - 1], so every count gap fits too.
    """
    for dt in (np.int16, np.int32):
        if n <= np.iinfo(dt).max:
            return np.dtype(dt)
    return np.dtype(np.int64)


def _counts(a: np.ndarray) -> np.ndarray:
    """A @ A as raw counts in the kernel's integer dtype."""
    return _square_counts(a).astype(_count_dtype(a.shape[0]))


def _chebyshev_buffer(n: int, dtype) -> np.ndarray:
    """Work space for the pairwise gap kernels: whole rows, at most n of them."""
    rows = min(n, max(1, _CHUNK_ELEMS // (n * n)))
    return np.empty(rows * n * n, dtype=dtype)


def _gap_blocks(x: np.ndarray, buf: np.ndarray):
    """Yield (lo, hi, t): t[b, m, k] = |x[lo + b, k] - x[lo + m, k]|, 0 at k in {lo + b, lo + m}.

    The excluded columns are neutralized by zeroing their differences, which
    is safe because every candidate difference is nonnegative. Blocks of rows
    i are compared only with rows i2 from the block start on, so callers
    mirror the rest and compute about half the pairs. x is an integer matrix;
    t lives in buf, which comes from _chebyshev_buffer and is reused.
    """
    n = x.shape[0]
    idx = np.arange(n)
    rows = buf.size // (n * n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        b, m = hi - lo, n - lo
        t = buf[: b * m * n].reshape(b, m, n)
        np.subtract(x[lo:hi, None, :], x[None, lo:, :], out=t)
        np.abs(t, out=t)
        t[idx[:b], :, idx[lo:hi]] = 0  # k == i
        t[:, idx[:m], idx[lo:]] = 0  # k == i2
        yield lo, hi, t


def _pairwise_chebyshev(x: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """out[i, i2] = max over k not in {i, i2} of |x[i, k] - x[i2, k]|; zero diagonal."""
    n = x.shape[0]
    out = np.empty((n, n), dtype=x.dtype)
    for lo, hi, t in _gap_blocks(x, buf):
        t.max(axis=2, out=out[lo:hi, lo:])
        out[hi:, lo:hi] = out[lo:hi, hi:].T
    return out


def _pairwise_top2(x: np.ndarray, buf: np.ndarray):
    """(d1, g, d2) of the gaps |x[i, k] - x[i2, k]| over k not in {i, i2}.

    d1[i, i2] is the largest gap and g[i, i2] its first argmax; d2[i, i2] is
    the largest gap with k = g left out, so d2 < d1 exactly when the argmax is
    unique. All three are symmetric and share x's dtype, which holds +-n.
    """
    n = x.shape[0]
    d1, g, d2 = (np.empty((n, n), dtype=x.dtype) for _ in range(3))
    for lo, hi, t in _gap_blocks(x, buf):
        bi, mi = np.ogrid[: t.shape[0], : t.shape[1]]
        top = t.argmax(axis=2)
        g[lo:hi, lo:] = top
        d1[lo:hi, lo:] = t[bi, mi, top]
        t[bi, mi, top] = 0
        t.max(axis=2, out=d2[lo:hi, lo:])
        for out in (d1, g, d2):
            out[hi:, lo:hi] = out[lo:hi, hi:].T
    return d1, g, d2


def _within_rank(d: np.ndarray, rank: int) -> np.ndarray:
    """Flags d[i, i2] within the rank-th smallest of row i, ties included.

    The diagonal is never a candidate; d is overwritten there.
    """
    np.fill_diagonal(d, np.iinfo(d.dtype).max)
    return d <= _kth_smallest(d, rank)[:, None]


def _kth_smallest(x: np.ndarray, rank: int) -> np.ndarray:
    """The rank-th smallest value along the last axis."""
    return np.partition(x, rank - 1, axis=-1)[..., rank - 1]


def estimate_modified(a: np.ndarray, config: SmoothingConfig, *, return_sizes: bool = False):
    """Edge probability estimate with one neighborhood per ordered pair.

    P_hat[i][j] averages A[i', j] over i' in the neighborhood of (i, j) and
    A[i, j'] over j' in the neighborhood of (j, i), then halves the sum.
    Symmetric with zero diagonal by construction; deterministic. With
    return_sizes, also returns |N(i, j)| for every ordered pair (diagonal 0),
    counted during the same pass.
    """
    check_adjacency(a)
    if config.variant != "modified":
        raise ValueError(f"config variant is {config.variant!r}, not 'modified'")
    n = a.shape[0]
    h = config.bandwidth(n)
    sizes, hits = _pair_neighborhoods(_counts(a), a, quantile_rank(h, n - 2))
    f = hits / sizes
    phat = 0.5 * (f + f.T)
    np.fill_diagonal(phat, 0.0)
    np.fill_diagonal(sizes, 0)
    return (phat, sizes) if return_sizes else phat


def _pair_neighborhoods(s: np.ndarray, a: np.ndarray, rank: int):
    """(sizes, hits) of N(i, j) for every ordered pair, in one exact pass.

    sizes[i, j] = |N(i, j)| and hits[i, j] counts its members i' with
    A[i', j] = 1; entries i == j are meaningless. s = A @ A in the count dtype.

    For the pair (i, i2), B = S[i] - S[i2] has top gap D1 at the unique or
    first argmax g and second gap D2 (_pairwise_top2). Deleting j changes
    term k of B by (A[i, j] - A[i2, j]) * A[j, k] and drops term j, so with
    M = D2 if D2 < D1 and j == g, else D1, d_j(i, i2) is M exactly when
    A[i, j] == A[i2, j] and lies in [M - 1, M + 1] otherwise. Per (i, j), the
    rank-th smallest upper bound caps the threshold; only entries whose A
    values differ and whose lower bound is at or below that cap need their
    exact gap (_exact_gaps). Every other entry keeps M, which is either exact
    or above the cap, so the threshold and membership stay as they are. One
    partition then ranks the block, ties included.
    """
    n = s.shape[0]
    ai = a.astype(s.dtype)
    ab = a.astype(bool)
    big = np.iinfo(s.dtype).max
    top = _pairwise_top2(s, _chebyshev_buffer(n, s.dtype))
    sizes = np.empty((n, n), dtype=int)
    hits = np.empty((n, n), dtype=int)
    for lo, hi, cand in _candidate_blocks(top, rank):
        # entries are laid out [i - lo, j, c] for the candidate i' = cand[i - lo, c]
        b, w = cand.shape
        rows, cols = np.ogrid[:b, :w]
        into_j = ab[:, cand].transpose(1, 0, 2)  # A[i', j] = A[j, i']
        delta = ai[lo:hi, :, None] - into_j
        m = _bound_centers(top, lo + rows, cand)
        pb, pc = np.nonzero(cand == lo + rows)
        for x, v in ((m, big), (delta, 0)):
            x[pb, :, pc] = v  # padding: i' == i
            x[rows, cand, cols] = v  # i' == j
            x[rows, lo + rows] = v  # j == i, never read
        off = delta != 0
        cap = _kth_smallest(m + off, rank)
        need = np.flatnonzero(off & (m - off <= cap[..., None]))
        if need.size:
            bi, jk = np.divmod(need, n * w)
            j, c = np.divmod(jk, w)
            m.reshape(-1)[need] = _exact_gaps(s, ai, top, lo + bi, cand[bi, c], j)
        nbrs = m <= _kth_smallest(m, rank)[..., None]
        sizes[lo:hi] = nbrs.view(np.int8).sum(axis=2, dtype=s.dtype)
        nbrs &= into_j
        hits[lo:hi] = nbrs.view(np.int8).sum(axis=2, dtype=s.dtype)
    return sizes, hits


def _candidate_blocks(top, rank: int):
    """Yield (lo, hi, cand): rows i in [lo, hi) and the candidates i' each must rank.

    For every j, d_j(i, i') >= D2 - 1, and the rank-th smallest upper bound
    of row i is at most t + 1, with t the (rank+1)-th smallest D1 of the row
    (dropping i' == j removes at most one value). So i' with D2 > t + 2 never
    ranks for any j and is left out. Rows are padded to a common width with i
    itself; a block holds at most _BLOCK_ELEMS (i, j, i') entries unless one
    row alone is larger.
    """
    d1, _, d2 = top
    n = d1.shape[0]
    e = d1.copy()
    np.fill_diagonal(e, np.iinfo(e.dtype).max)
    keep = d2 <= (_kth_smallest(e, rank + 1) + 2)[:, None]
    np.fill_diagonal(keep, False)
    width = keep.sum(axis=1)
    lo = 0
    while lo < n:
        hi, w = lo + 1, width[lo]
        while hi < n and (hi + 1 - lo) * n * max(w, width[hi]) <= _BLOCK_ELEMS:
            w = max(w, width[hi])
            hi += 1
        r, c = np.nonzero(keep[lo:hi])
        cand = np.repeat(np.arange(lo, hi)[:, None], w, axis=1)
        cand[r, np.arange(r.size) - (np.cumsum(width[lo:hi]) - width[lo:hi])[r]] = c
        yield lo, hi, cand
        lo = hi


def _bound_centers(top, i: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """M for every (i, j, i' = cand): D2 where j is the unique argmax, D1 elsewhere."""
    d1, g, d2 = (x[i, cand] for x in top)
    m = np.repeat(d1[:, None, :], top[0].shape[0], axis=1)
    ub, uc = np.nonzero(d2 < d1)
    m[ub, g[ub, uc], uc] = d2[ub, uc]
    return m


def _exact_gaps(s: np.ndarray, ai: np.ndarray, top, i, i2, j) -> np.ndarray:
    """n * d_j(i, i2) for arrays of pairwise distinct (i, i2, j).

    A unique argmax g != j settles the gap in O(1): the term at g becomes v,
    one of D1 + 1, D1 and D1 - 1, and every other term is at most D2 + 1 <= D1.
    So the gap is v when v >= D1, or when D2 <= D1 - 2. Every other entry,
    including D2 == D1 - 1 with v == D1 - 1, is settled by a row scan.
    """
    d1, g, d2 = (x[i, i2] for x in top)
    delta = ai[i, j] - ai[i2, j]
    v = np.abs(s[i, g] - s[i2, g] - delta * ai[j, g])
    scan = np.flatnonzero((d2 == d1) | (g == j) | ((v < d1) & (d2 > d1 - 2)))
    v[scan] = _scan_gaps(s, ai, i[scan], i2[scan], j[scan], delta[scan])
    return v


def _scan_gaps(s: np.ndarray, ai: np.ndarray, i, i2, j, delta) -> np.ndarray:
    """max over k not in {i, i2, j} of |S[i, k] - S[i2, k] - delta * A[j, k]|, in chunks."""
    out = np.empty(i.size, dtype=s.dtype)
    step = max(1, _BLOCK_ELEMS // s.shape[0])
    for lo in range(0, i.size, step):
        sl = slice(lo, lo + step)
        t = s[i[sl]] - s[i2[sl]]
        t -= delta[sl, None] * ai[j[sl]]
        np.abs(t, out=t)
        rows = np.arange(t.shape[0])
        for k in (i, i2, j):
            t[rows, k[sl]] = 0
        t.max(axis=1, out=out[sl])
    return out


def estimate_original(a: np.ndarray, config: SmoothingConfig, *, return_sizes: bool = False):
    """Edge probability estimate with one neighborhood per node.

    Distances compare rows of A^2 with the largest absolute count gap over k
    not in {i, i'}; the quantile rule matches the modified variant
    (ceil(h*(n-1))th smallest, ties included) and the output is symmetrized
    the same way. With return_sizes, also returns |N_i| per node.
    """
    check_adjacency(a)
    if config.variant != "original":
        raise ValueError(f"config variant is {config.variant!r}, not 'original'")
    nbrs = _node_neighborhoods(a, config.bandwidth(a.shape[0]))
    sizes = nbrs.sum(axis=1)
    g = (nbrs @ a.astype(np.float64)) / sizes[:, None]
    phat = 0.5 * (g + g.T)
    np.fill_diagonal(phat, 0.0)
    return (phat, sizes) if return_sizes else phat


def _node_neighborhoods(a: np.ndarray, h: float) -> np.ndarray:
    n = a.shape[0]
    s = _counts(a)
    d = _pairwise_chebyshev(s, _chebyshev_buffer(n, s.dtype))
    return _within_rank(d, quantile_rank(h, n - 1))


def estimate_edge_probabilities(a: np.ndarray, config: SmoothingConfig, *,
                                return_sizes: bool = False):
    """Dispatch on config.variant; return_sizes is passed through."""
    if config.variant == "modified":
        return estimate_modified(a, config, return_sizes=return_sizes)
    return estimate_original(a, config, return_sizes=return_sizes)


def column_distance_matrix(a: np.ndarray) -> np.ndarray:
    """Euclidean distances between adjacency columns (the naive dissimilarity)."""
    af = np.asarray(a, dtype=np.float64)
    gram = af.T @ af
    sq = np.diagonal(gram)[:, None] - 2.0 * gram + np.diagonal(gram)[None, :]
    np.maximum(sq, 0.0, out=sq)
    d = np.sqrt(sq)
    np.fill_diagonal(d, 0.0)
    return d


def estimation_errors(phat: np.ndarray, p: np.ndarray) -> EstimationErrors:
    """Off-diagonal max-norm error and (1/n^2)-scaled squared error."""
    phat = np.asarray(phat, dtype=float)
    p = np.asarray(p, dtype=float)
    if phat.shape != p.shape or phat.ndim != 2 or phat.shape[0] != phat.shape[1]:
        raise ValueError(f"dimension mismatch: {phat.shape} vs {p.shape}")
    n = phat.shape[0]
    diff = np.abs(phat - p)
    np.fill_diagonal(diff, 0.0)
    max_norm = float(diff.max()) if n > 1 else 0.0
    mse = float(np.sum(diff * diff)) / (n * n)
    return EstimationErrors(max_norm=max_norm, mse=mse)
