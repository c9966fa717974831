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
ordered pairs (i, i') keeps the top two levels of B = S[i] - S[i']: P1, its
first argmax and P2. Those of -B, N1, its argmax and N2, are the levels of
the pair (i', i). Deleting j drops term j and moves every other term by at
most one, in the direction that the sign of A[i,j] - A[i',j] sets, so
d_j(i, i') is exact wherever A[i,j] == A[i',j] and lies in an interval of
width one elsewhere. Per (i, j), the rank-th smallest upper end caps the threshold;
candidates whose lower end stays above it for every j are dropped up front,
and an entry is settled exactly only where A[i,j] != A[i',j] and its lower
end is at or below the cap. The gap is then the upper end exactly when a
side that reaches it has a column of its top level set that moves outward,
which one AND of packed bitsets per side decides: O(n / 64) per entry, plus
O(n) to pack the level sets of each pair that holds such an entry. No row is
scanned. This is the bound-then-verify nearest-neighbour search of Fukunaga
& Narendra (1975). The result, tie rule included, is bit for bit that of the
dense pass over all (i, j, i'). On the three-group graphon 2.8% of the
entries need settling at n=128 and 1.0% at n=512.
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

# budget for the modified estimator's (i, j, i') blocks
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


def _count_dtype(n: int) -> np.dtype:
    """Smallest signed dtype, int16 at least, that holds +-n.

    Counts lie in [0, n - 1], so every count gap fits too.
    """
    for dt in (np.int16, np.int32):
        if n <= np.iinfo(dt).max:
            return np.dtype(dt)
    return np.dtype(np.int64)


def _tile_step(n: int) -> int:
    """Side of the row and column blocks that keep an (n, step) operand within _CHUNK_ELEMS."""
    return max(1, _CHUNK_ELEMS // n)


def _tiled_product(left: np.ndarray, right: np.ndarray, out: np.ndarray, *,
                   symmetric: bool = False) -> np.ndarray:
    """out = left @ right for 0/1 matrices, in float32 tiles written straight into out.

    Each tile multiplies a float32 copy of a block of rows of left by one of
    a block of columns of right, so no operand or product larger than
    _CHUNK_ELEMS float32 values exists besides out. Every entry is a sum of
    at most n 0/1 products, exact in float32 while n <= 2**24, the float32
    significand, so it lands in out exactly whatever out's dtype. With
    symmetric (left == right, a symmetric matrix), only the tiles on and
    above the diagonal are multiplied and each is mirrored.
    """
    step = _tile_step(right.shape[0])
    for c in range(0, right.shape[1], step):
        cols = right[:, c:c + step].astype(np.float32)
        for r in range(0, c + 1 if symmetric else left.shape[0], step):
            t = left[r:r + step].astype(np.float32) @ cols
            out[r:r + step, c:c + step] = t
            if symmetric:
                out[c:c + step, r:r + step] = t.T
    return out


def _counts(a: np.ndarray) -> np.ndarray:
    """A @ A as raw counts in the kernel's integer dtype.

    The product runs in float32 BLAS tiles (_tiled_product), faster than
    float64 and exact while n <= 2**24; the int8 adjacency alone would need
    2**48 bytes there. A is symmetric, so only half the tiles are multiplied.
    """
    n = a.shape[0]
    return _tiled_product(a, a, np.empty((n, n), dtype=_count_dtype(n)), symmetric=True)


def _chebyshev_buffer(n: int, dtype) -> np.ndarray:
    """Work space for the pairwise gap kernels: at most max(n, _CHUNK_ELEMS) values.

    Room for _tile_step(n) pairs (i, i2) of n values each, and no more than
    the n * n pairs there are: whole (n, n) row slabs while one fits the
    budget, one row against a run of the rows i2 above that.
    """
    return np.empty(min(n * n, _tile_step(n)) * n, dtype=dtype)


def _gap_blocks(x: np.ndarray, buf: np.ndarray, *, signed: bool = False):
    """Yield (lo, hi, c0, c1, t): t[b, m, k] = |x[lo + b, k] - x[c0 + m, k]|.

    t is 0 at k in {lo + b, c0 + m}: the excluded columns are neutralized by
    zeroing their differences, which is safe because every candidate
    difference is nonnegative. The gap is symmetric, so blocks of rows i are
    compared only with rows i2 from the block start on, in runs [c0, c1) that
    fit buf; callers mirror the rest once c1 == n and compute about half the
    pairs. With signed, t holds x[lo + b, k] - x[c0 + m, k] itself, over
    every ordered pair, and the excluded columns hold the dtype's minimum,
    which no difference reaches. x is an integer matrix; t lives in buf,
    which comes from _chebyshev_buffer and is reused.
    """
    n = x.shape[0]
    idx = np.arange(n)
    fill = np.iinfo(x.dtype).min if signed else 0
    pairs = buf.size // n  # (i, i2) pairs that fit buf
    rows, cols = max(1, pairs // n), min(n, pairs)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        b = hi - lo
        for c0 in range(0 if signed else lo, n, cols):
            c1 = min(c0 + cols, n)
            m = c1 - c0
            t = buf[: b * m * n].reshape(b, m, n)
            np.subtract(x[lo:hi, None, :], x[None, c0:c1, :], out=t)
            if not signed:
                np.abs(t, out=t)
            t[idx[:b], :, idx[lo:hi]] = fill  # k == i
            t[:, idx[:m], idx[c0:c1]] = fill  # k == i2
            yield lo, hi, c0, c1, t


def _pairwise_chebyshev(x: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """out[i, i2] = max over k not in {i, i2} of |x[i, k] - x[i2, k]|; zero diagonal."""
    n = x.shape[0]
    out = np.empty((n, n), dtype=x.dtype)
    for lo, hi, c0, c1, t in _gap_blocks(x, buf):
        t.max(axis=2, out=out[lo:hi, c0:c1])
        if c1 == n:
            out[hi:, lo:hi] = out[lo:hi, hi:].T
    return out


def _pairwise_sides(x: np.ndarray, buf: np.ndarray):
    """(p1, gp, p2, n1, gn, n2): the top levels of B = x[i] - x[i2] and of -B.

    Over k not in {i, i2}, p1[i, i2] is the largest B_k, gp[i, i2] its first
    argmax and p2[i, i2] the largest B_k with k = gp left out, so p2 < p1
    exactly when the argmax is unique; n1, gn and n2 are the same for -B.
    The pair (i2, i) has -B, so the -B side is the transpose of the B side:
    n1, gn and n2 are views of p1, gp and p2. All share x's dtype, which
    holds +-n.
    """
    n = x.shape[0]
    lowest = np.iinfo(x.dtype).min
    idx = np.arange(n)
    p1, gp, p2 = (np.empty((n, n), dtype=x.dtype) for _ in range(3))
    for lo, hi, c0, c1, t in _gap_blocks(x, buf, signed=True):
        v = t.max(axis=2)
        g = (t == v[..., None]).argmax(axis=2)  # faster than t.argmax
        gp[lo:hi, c0:c1] = g
        p1[lo:hi, c0:c1] = v
        t[idx[: hi - lo, None], idx[: c1 - c0], g] = lowest
        t.max(axis=2, out=p2[lo:hi, c0:c1])
    return p1, gp, p2, p1.T, gp.T, p2.T


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
    phat = _average_halves(hits / sizes)
    if not return_sizes:
        return phat
    sizes = sizes.astype(int)
    np.fill_diagonal(sizes, 0)
    return phat, sizes


def _pair_neighborhoods(s: np.ndarray, a: np.ndarray, rank: int):
    """(sizes, hits) of N(i, j) for every ordered pair, in one exact pass.

    sizes[i, j] = |N(i, j)| and hits[i, j] counts its members i' with
    A[i', j] = 1, both in s's dtype; entries i == j are meaningless. s = A @ A
    in the count dtype.

    For the pair (i, i2), B = S[i] - S[i2] over k not in {i, i2} has top
    levels P1 >= P2 on its positive side and N1, N2 on its negative side
    (_pairwise_sides). Deleting j drops term j and moves term k of B by
    -delta * A[j, k], delta = A[i, j] - A[i2, j]. With P' and N' the side
    levels once column j is gone (P2 where j is the first argmax of B, else
    P1; N' likewise), d_j(i, i2) is max(P', N') when delta == 0 and lies in
    [U - 1, U] otherwise, U = max(P' + [delta < 0], N' + [delta > 0]). Per
    (i, j), the rank-th smallest U caps the threshold; only entries with
    delta != 0 and U - 1 at or below that cap need their exact gap. It is U
    exactly when a side that reaches U has a column k not in {i, i2, j} in
    its top level set {k : B_k == P'} (or -B_k == N') that moves outward:
    A[j, k] == 1 on the side that delta raises, A[j, k] == 0 on the other.
    _reaches_upper tests that on bitsets of the level sets and of the rows
    of A, in O(n / 64) per entry. Every other entry keeps U, which is either
    exact or above the cap, so the threshold and membership stay as they
    are. One partition then ranks the block, ties included.
    """
    n = s.shape[0]
    ab = a.astype(bool)
    big = np.iinfo(s.dtype).max
    top = _pairwise_sides(s, _chebyshev_buffer(n, s.dtype))
    p1, gp, p2, n1, gn, n2 = top
    rows_a = _row_bitsets(ab)
    sizes = np.empty((n, n), dtype=s.dtype)
    hits = np.empty((n, n), dtype=s.dtype)
    flags = levels = np.empty((0, 0))
    for rows, cand in _candidate_blocks(top, rank):
        # entries are laid out [b, j, c] for i = rows[b] and the candidate i' = cand[b, c]
        b, w = cand.shape
        size = b * n * w
        if size > levels.shape[1]:  # work space, reused by every block that fits
            flags = np.empty((3, size), dtype=bool)
            levels = np.empty((2, size), dtype=s.dtype)
        rise_p, rise_n, nbrs = (x[:size].reshape(b, n, w) for x in flags)
        u, v = (x[:size].reshape(b, n, w) for x in levels)
        bs, cols = np.ogrid[:b, :w]
        i = rows[:, None]
        into_j = ab[:, cand].transpose(1, 0, 2)  # A[i', j] = A[j, i']
        from_i = ab[rows, :, None]
        np.greater(into_j, from_i, out=rise_p)  # delta < 0: term k of B rises by A[j, k]
        np.greater(from_i, into_j, out=rise_n)  # delta > 0: term k of -B rises
        np.add(p1[i, cand][:, None, :], rise_p, out=u)
        u[bs, gp[i, cand], cols] += p2[i, cand] - p1[i, cand]
        np.add(n1[i, cand][:, None, :], rise_n, out=v)
        v[bs, gn[i, cand], cols] += n2[i, cand] - n1[i, cand]
        np.maximum(u, v, out=u)
        off = np.logical_or(rise_p, rise_n, out=rise_n)
        pb, pc = np.nonzero(cand == i)
        for x, fill in ((u, big), (off, False)):
            x[pb, :, pc] = fill  # padding: i' == i
            x[bs, cand, cols] = fill  # i' == j
            x[bs, i] = fill  # j == i, never read
        cap = _kth_smallest(u, rank)
        np.minimum(cap, big - 1, out=cap)  # rows j == i hold big
        cap += 1
        np.less_equal(u, cap[..., None], out=nbrs)  # U - 1 <= cap
        nbrs &= off
        need = np.flatnonzero(nbrs)
        if need.size:
            bi, jk = np.divmod(need, n * w)
            j, c = np.divmod(jk, w)
            flat = u.reshape(-1)
            flat[need] -= ~_reaches_upper(s, top, rows_a, rows, cand, bi, c, j,
                                           rise_p.reshape(-1)[need], flat[need])
        np.less_equal(u, _kth_smallest(u, rank)[..., None], out=nbrs)
        sizes[rows] = nbrs.view(np.int8).sum(axis=2, dtype=s.dtype)
        nbrs &= into_j
        hits[rows] = nbrs.view(np.int8).sum(axis=2, dtype=s.dtype)
    return sizes, hits


def _candidate_blocks(top, rank: int):
    """Yield (rows, cand): a block of rows i and the candidates i' each must rank.

    The top gap of the pair is D1 = max(P1, N1) and the largest with its
    column left out is D2 = max(min(P1, N1), P2, N2). For every j,
    d_j(i, i') >= D2 - 1, and the rank-th smallest upper bound of row i is
    at most t + 1, with t the (rank+1)-th smallest D1 of the row (dropping
    i' == j removes at most one value). So i' with D2 > t + 2 never ranks
    for any j and is left out. Rows are taken widest first (a stable sort on
    the number of candidates), so the rows of a block have about the same
    width and the first block is the largest; each row is padded with i
    itself to the width of its block's first row. A block holds at most
    _BLOCK_ELEMS (i, j, i') entries unless one row alone is larger.
    """
    p1, _, p2, n1, _, n2 = top
    n = p1.shape[0]
    d = np.maximum(p1, n1)
    np.fill_diagonal(d, np.iinfo(d.dtype).max)
    cut = _kth_smallest(d, rank + 1) + 2
    np.minimum(p1, n1, out=d)
    np.maximum(d, p2, out=d)
    np.maximum(d, n2, out=d)
    keep = d <= cut[:, None]
    del d
    np.fill_diagonal(keep, False)
    width = keep.sum(axis=1)
    order = np.argsort(-width, kind="stable")
    lo = 0
    while lo < n:
        hi = lo + 1
        while hi < n and (hi + 1 - lo) * n * width[order[lo]] <= _BLOCK_ELEMS:
            hi += 1
        rows = order[lo:hi]
        w = width[rows]
        r, c = np.nonzero(keep[rows])
        cand = np.repeat(rows[:, None], w[0], axis=1)
        cand[r, np.arange(r.size) - (np.cumsum(w) - w)[r]] = c
        yield rows, cand
        lo = hi


def _words(flags: np.ndarray) -> np.ndarray:
    """Bitsets of bool rows whose width is a multiple of 64, as a (words, rows) uint64 view.

    Word w of row r holds flags[r, 64 w : 64 w + 64]. One row per column, so
    that gathering many rows reads each word as one 1-D take.
    """
    return np.packbits(flags, axis=1, bitorder="little").view(np.uint64).T


def _row_bitsets(ab: np.ndarray) -> np.ndarray:
    """(words, 2n) bitsets: column j holds the ones of A[j], column n + j its zeros off k == j."""
    n = ab.shape[0]
    width = -(-n // 64) * 64
    bits = np.zeros((2, n, width), dtype=bool)
    bits[0, :, :n] = ab
    np.logical_not(ab, out=bits[1, :, :n])
    bits[1, np.arange(n), np.arange(n)] = False
    return np.ascontiguousarray(_words(bits.reshape(2 * n, width)))


def _reaches_upper(s: np.ndarray, top, rows_a: np.ndarray, rows: np.ndarray,
                   cand: np.ndarray, bi, c, j, rise_p, upper):
    """Whether d_j(i, i2) == upper for the block entries (i = rows[bi], j, i2 = cand[bi, c]).

    Every entry has delta != 0 and upper = U. The side of B that delta
    raises (P where rise_p, else N) reaches its level + 1 where its top
    level set meets the ones of A[j]; the other side keeps its level where
    its set meets the zeros of A[j] off k == j (rows_a, from _row_bitsets).
    A side that cannot reach U reads an empty set.
    The level sets {k : B_k == P1}, {k : B_k == P2}, {k : -B_k == N1} and
    {k : -B_k == N2} leave out k in {i, i2}, which hold the sentinel of
    _gap_blocks, and are packed once per pair: O(n) per pair and O(n / 64)
    per entry.
    """
    n = s.shape[0]
    lowest = np.iinfo(s.dtype).min
    seen = np.zeros(cand.size, dtype=bool)
    pair = bi * cand.shape[1] + c
    seen[pair] = True
    uniq = np.flatnonzero(seen)
    at = np.empty(cand.size, dtype=np.intp)
    at[uniq] = np.arange(uniq.size)
    pos = at[pair]
    ub, uc = np.divmod(uniq, cand.shape[1])
    iu, i2u = rows[ub], cand[ub, uc]
    p1, gp, p2, n1, gn, n2 = (x[iu, i2u] for x in top)
    diff = np.full((uniq.size, 1, rows_a.shape[0] * 64), lowest, dtype=s.dtype)
    np.subtract(s[iu], s[i2u], out=diff[:, 0, :n])
    r = np.arange(uniq.size)
    diff[r, 0, iu] = lowest
    diff[r, 0, i2u] = lowest
    levels = np.stack([p1, p2, -n1, -n2], axis=1)[..., None]
    sets = np.zeros((rows_a.shape[0], 4 * uniq.size + 1), dtype=np.uint64)  # last: empty
    sets[:, :-1] = _words((diff == levels).reshape(4 * uniq.size, -1))
    on_p, on_n = j == gp[pos], j == gn[pos]
    lp = np.where(on_p, p2[pos], p1[pos])
    ln = np.where(on_n, n2[pos], n1[pos])
    fall_p = ~rise_p
    empty = sets.shape[1] - 1
    set_p = np.where(lp + rise_p == upper, 4 * pos + on_p, empty)
    set_n = np.where(ln + fall_p == upper, 4 * pos + 2 + on_n, empty)
    row_p = j + n * fall_p
    row_n = j + n * rise_p
    hit = np.zeros(j.size, dtype=np.uint64)
    for word, bits in zip(sets, rows_a):
        hit |= word[set_p] & bits[row_p]
        hit |= word[set_n] & bits[row_n]
    return hit != 0


def estimate_original(a: np.ndarray, config: SmoothingConfig, *, return_sizes: bool = False):
    """Edge probability estimate with one neighborhood per node.

    Distances compare rows of A^2 with the largest absolute count gap over k
    not in {i, i'}; the quantile rule matches the modified variant
    (ceil(h*(n-1))th smallest, ties included) and the output is symmetrized
    the same way. With return_sizes, also returns |N_i| per node.

    P_hat is the one n x n float64 array this allocates; every other stage
    works in blocks of at most _CHUNK_ELEMS values besides the int16 and bool
    (n, n) arrays of the distance pass. The hit counts nbrs @ A are filled
    into P_hat tile by tile in float32 BLAS, exact while n <= 2**24 as in
    _counts, then divided and averaged in place.
    """
    check_adjacency(a)
    if config.variant != "original":
        raise ValueError(f"config variant is {config.variant!r}, not 'original'")
    n = a.shape[0]
    nbrs = _node_neighborhoods(a, config.bandwidth(n))
    sizes = nbrs.sum(axis=1)
    phat = _tiled_product(nbrs, a, np.empty((n, n)))
    phat /= sizes[:, None]
    _average_halves(phat)
    return (phat, sizes) if return_sizes else phat


def _average_halves(g: np.ndarray) -> np.ndarray:
    """g <- 0.5 * (g + g.T) with a zero diagonal, in place by tiles, bit for bit."""
    n = g.shape[0]
    step = _tile_step(n)
    for r in range(0, n, step):
        for c in range(r, n, step):
            t = 0.5 * (g[r:r + step, c:c + step] + g[c:c + step, r:r + step].T)
            g[r:r + step, c:c + step] = t
            g[c:c + step, r:r + step] = t.T
    np.fill_diagonal(g, 0.0)
    return g


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
