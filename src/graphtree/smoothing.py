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

The modified variant keeps, from one pass over the ordered pairs (i, i'),
the top two levels of B = S[i] - S[i']: P1, its first argmax and P2; those
of -B are the levels of (i', i). Deleting j moves each term of B by at most
one, so these levels bound every d_j(i, i'), and _candidate_blocks drops the
candidates they keep out of every neighborhood of row i: the
bound-then-verify search of Fukunaga & Narendra (1975). For each block of
rows, _block_gaps then computes every d_j of the kept candidates exactly,
from ORs of the packed rows of A over the few columns of each side's top
level set, and one partition ranks them. Where tied counts make a set
large, it is tested instead at the columns where its pair's rows differ
(_wide_sets). The result, tie rule included, is bit for bit that of the
dense pass over all (i, j, i').
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

    Counts lie in [0, n - 1], so every count gap fits; int32 holds any n that fits in memory.
    """
    return np.dtype(np.int16 if n <= np.iinfo(np.int16).max else np.int32)


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


def _gap_blocks(x: np.ndarray, *, signed: bool = False):
    """Iterator of (lo, hi, c0, c1, t): t[b, m, k] = |x[lo + b, k] - x[c0 + m, k]|.

    t is 0 at k in {lo + b, c0 + m}: the excluded columns are neutralized by
    zeroing their differences, which is safe because every candidate
    difference is nonnegative. The gap is symmetric, so blocks of rows i are
    compared only with rows i2 from the block start on, in runs [c0, c1);
    callers mirror the rest once c1 == n and compute about half the pairs.
    With signed, t holds x[lo + b, k] - x[c0 + m, k] itself, over every
    ordered pair, and the excluded columns hold the dtype's minimum, which no
    difference reaches. x is an integer matrix. Every t is a view of one work
    buffer of at most max(n, _CHUNK_ELEMS) values: whole (n, n) row slabs
    while one fits, else one row against a run of rows i2. The call allocates
    it and the first block the rest; callers call before allocating results.
    Other orders cost estimate_original at n = 1000 up to 9.5 MiB of peak RSS
    or 5% of its time (glibc heap layout).
    """
    n = x.shape[0]
    fill = np.iinfo(x.dtype).min if signed else 0
    pairs = min(n * n, _tile_step(n))  # (i, i2) pairs that fit the buffer
    buf = np.empty(pairs * n, dtype=x.dtype)
    rows, cols = max(1, pairs // n), min(n, pairs)

    def blocks():
        idx = np.arange(n)
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

    return blocks()


def _pairwise_chebyshev(x: np.ndarray) -> np.ndarray:
    """out[i, i2] = max over k not in {i, i2} of |x[i, k] - x[i2, k]|; zero diagonal."""
    n = x.shape[0]
    blocks = _gap_blocks(x)
    out = np.empty((n, n), dtype=x.dtype)
    for lo, hi, c0, c1, t in blocks:
        t.max(axis=2, out=out[lo:hi, c0:c1])
        if c1 == n:
            out[hi:, lo:hi] = out[lo:hi, hi:].T
    return out


def _pairwise_sides(x: np.ndarray):
    """(p1, gp, p2, n1, gn, n2): the top levels of B = x[i] - x[i2] and of -B.

    Over k not in {i, i2}, p1[i, i2] is the largest B_k, gp[i, i2] its first
    argmax and p2[i, i2] the largest B_k with k = gp left out, so p2 < p1
    exactly when the argmax is unique; n1, gn and n2 are the same for -B.
    The pair (i2, i) has -B, so the -B side is the transpose of the B side:
    n1, gn and n2 are views of p1, gp and p2. All share x's dtype, which
    holds +-n.
    """
    n = x.shape[0]
    blocks = _gap_blocks(x, signed=True)
    lowest = np.iinfo(x.dtype).min
    idx = np.arange(n)
    p1, gp, p2 = (np.empty((n, n), dtype=x.dtype) for _ in range(3))
    for lo, hi, c0, c1, t in blocks:
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
    A[i', j] = 1, in the dtype of s = A @ A; entries i == j are meaningless.
    Per block of rows, one partition ranks the gaps of _block_gaps, ties included.
    """
    n = s.shape[0]
    ab = a.astype(bool)
    top = _pairwise_sides(s)
    rows_a = _packed_rows(ab)
    sizes, hits = np.empty((2, n, n), dtype=s.dtype)
    for rows, cand in _candidate_blocks(top, rank):
        # entries are laid out [b, c, j] for i = rows[b] and the candidate i' = cand[b, c]
        d = _block_gaps(s, top, ab, rows_a, rows, cand)
        by_j = d.transpose(0, 2, 1).copy()  # partitions faster than a strided axis
        by_j.partition(rank - 1, axis=2)
        nbrs = d <= by_j[:, None, :, rank - 1]
        sizes[rows] = nbrs.view(np.int8).sum(axis=1, dtype=s.dtype)
        nbrs &= ab[cand]
        hits[rows] = nbrs.view(np.int8).sum(axis=1, dtype=s.dtype)
        # freed here, or they would still be alive while the next block's are made
        del d, by_j, nbrs
    return sizes, hits


def _packed_rows(ab: np.ndarray) -> np.ndarray:
    """(n + 1, 2, words) uint64 bitsets: row k of A, and the zeros of row k of A + I.

    Column j is bit j % 64 of word j // 64. Row n is empty, to end any OR.
    """
    n = ab.shape[0]
    bits = np.zeros((n + 1, 2, -(-n // 64) * 64), dtype=bool)
    bits[:n, 0, :n] = ab
    np.logical_not(ab, out=bits[:n, 1, :n])
    bits[np.arange(n), 1, np.arange(n)] = False
    return np.packbits(bits, axis=2, bitorder="little").view(np.uint64)


def _block_gaps(s: np.ndarray, top, ab: np.ndarray, rows_a: np.ndarray, rows: np.ndarray,
                cand: np.ndarray) -> np.ndarray:
    """The (b, w, n) array of d_j(i, i2) * n for i = rows[b], i2 = cand[b, c], exactly.

    Entries j == i2 and padding pairs i2 == i hold the dtype's maximum; j == i
    is meaningless. For the pair (i, i2), B = S[i] - S[i2] over k not in
    {i, i2} has top levels P1 >= P2, N1 >= N2 (_pairwise_sides) and level
    sets L_P = {k : B_k == P1}, L_N = {k : -B_k == N1}. Deleting j moves B_k
    by -delta * A[j, k], delta = A[i, j] - A[i2, j], so with anyP(j) the OR
    over L_P of the rows of A, allP(j) the AND of the rows of A + I (k == j
    is neutral), and anyN, allN over L_N,

        d_j = max(P1 + [delta < 0 and anyP(j)] - [delta > 0 and allP(j)],
                  N1 + [delta > 0 and anyN(j)] - [delta < 0 and allN(j)])

    except where j is the unique argmax of a side (P2 < P1). That side's
    value there is at most P2 + 1, so the other side's value stands unless P2
    reaches it; only then is d_j read from the pair's row of counts, as the
    largest |B_k - delta * A[j, k]| over k not in {i, i2, j}. One OR of the
    packed rows of a set (the AND is the complement of the OR of the zeros)
    gives its flags; twins, rows of A equal off {i, i2}, need no sets, and
    _wide_sets takes large ones.
    """
    n, m = s.shape[0], cand.size
    info = np.iinfo(s.dtype)
    p1, gp, p2, n1, gn, n2 = (x[rows[:, None], cand].reshape(-1) for x in top)
    i = np.repeat(rows, cand.shape[1])
    c = cand.reshape(-1)
    pad = i == c
    pairs = np.arange(m)
    out = s[rows, None, :] - s[cand]
    diff = out.reshape(m, n)
    diff[pairs, i] = diff[pairs, c] = info.min  # k in {i, i2} is in no level set
    ri, rc = rows_a[i, 0], rows_a[c, 0]
    rise = np.stack([rc & ~ri, ri & ~rc], axis=1)  # delta < 0 raises B, delta > 0 raises -B
    # the columns j off {i, i2} where delta != 0: none for twins and padding
    deg = s.diagonal().astype(np.intp)
    moving = deg[i] + deg[c] - 2 * (s[i, c] + ab[i, c].astype(np.intp))
    levels = np.stack([p1, -n1], axis=1)
    levels[moving == 0] = info.max
    members = (diff[:, None, :] == levels[:, :, None]).reshape(2 * m, n)
    words = rows_a.shape[2]
    wide = np.empty(0, dtype=np.intp)
    if 2 * np.count_nonzero(members) * words > m * n:  # member rows would outnumber the entries
        # sides whose rows outweigh n bits and a packed row per moving column test those columns
        count = np.count_nonzero(members, axis=1)
        wide = np.flatnonzero(count * words > n + np.repeat(moving, 2) * words)
        wide_members = members[wide]
        members[wide] = False
    seg, k = np.divmod(np.flatnonzero(members), n)
    count = np.bincount(seg, minlength=2 * m)
    start = np.cumsum(count) - count
    k = np.append(k, n)
    ors = np.empty((2 * m, 2, words), dtype=np.uint64)
    step = max(1, m * n // (2 * k.size))  # words per row gathered: about m * n words at once
    for w in range(0, words, step):
        np.bitwise_or.reduceat(rows_a[k, :, w:w + step], start, axis=0, out=ors[..., w:w + step])
    if wide.size:
        ors[wide] = _wide_sets(rows_a, wide_members, rise[wide // 2])
    ors = ors.reshape(m, 2, 2, -1)  # [pair, side (B, -B), (ones of A, zeros of A + I), word]
    # each side's value at every j: its top level, raised by its rise bit, lowered by its fall bit
    up, down = ors[:, :, 0] & rise, rise[:, ::-1] & ~ors[:, :, 1]
    first, second = np.stack([p1, n1], axis=1), np.stack([p2, n2], axis=1)
    value = np.repeat(first[..., None], n, axis=2)
    value += np.unpackbits(up.view(np.uint8), axis=2, count=n, bitorder="little")
    value -= np.unpackbits(down.view(np.uint8), axis=2, count=n, bitorder="little")
    # the exceptions q: a side's unique argmax j, where the other side's value
    # stands unless P2 reaches it, and d_j is then read from the pair's row
    q, side = np.divmod(np.flatnonzero(second < first), 2)
    j = np.stack([gp, gn], axis=1)[q, side]
    d = value[q, 1 - side, j]
    e = np.flatnonzero(second[q, side] >= d)
    qe, je, r = q[e], j[e], np.arange(e.size)
    delta = ab[i[qe], je].astype(s.dtype) - ab[c[qe], je]
    row = np.abs(s[i[qe]] - s[c[qe]] - delta[:, None] * ab[je])
    row[r, i[qe]] = row[r, c[qe]] = row[r, je] = 0
    d[e] = row.max(axis=1)
    np.maximum(value[:, 0], value[:, 1], out=diff)
    diff[q, j] = d
    diff[pad] = diff[pairs, c] = info.max
    return out


def _wide_sets(rows_a: np.ndarray, sets: np.ndarray, rise: np.ndarray) -> np.ndarray:
    """The ORs of _block_gaps, (h, 2, words), for the large level sets of h sides.

    sets[t] marks the members of side t and rise[t] the two rise planes of
    its pair. A set counts only at the columns where the pair's rows of A
    differ, so there it tests each such column against the packed set: O(n)
    and O(n / 64) per column, where ORing the member rows would cost
    O(n / 64) per member. Other columns hold no meaningful bits. The loop
    over words keeps one word per column in memory at a time.

    _block_gaps sends a side here only when its block's members outnumber
    the entries, which happens on graphs of many tied counts, whose top level
    sets hold a large share of the nodes: sparse graphs, complete bipartite
    graphs or two cliques with a few flipped edges. There the member lists
    dominate time and memory. On a sparse n = 512 graph of mean degree 3 one
    pass takes 1.6 s and peaks at 3.7 times P_hat this way, against 3.4 s
    and 6.2 times when every member row is ORed; on K_{256,256} with four
    flipped edges, about 0.7 s either way and 2.7 times against 4.1 times.
    Graphs of untied counts, such as those of the three-group graphon, never
    come here.
    """
    n, words = rows_a.shape[0] - 1, rows_a.shape[2]
    packed = np.zeros((sets.shape[0], words * 64), dtype=bool)
    packed[:, :n] = sets
    packed = np.packbits(packed, axis=1, bitorder="little").view(np.uint64)
    t, j = np.divmod(np.flatnonzero(np.unpackbits((rise[:, 0] | rise[:, 1]).view(np.uint8),
                                                  axis=1, bitorder="little")), words * 64)
    hit = np.zeros((t.size, 2), dtype=bool)
    for w in range(words):
        hit |= (packed[t, w, None] & rows_a[j, :, w]) != 0
    bits = np.zeros((sets.shape[0], 2, words * 64), dtype=bool)
    bits[t, :, j] = hit
    return np.packbits(bits, axis=2, bitorder="little").view(np.uint64)


def _candidate_blocks(top, rank: int):
    """Yield (rows, cand): a block of rows i and the candidates i' each must rank.

    The top gap of the pair is D1 = max(P1, N1) and the largest with its
    column left out is D2 = max(min(P1, N1), P2, N2). For every j,
    d_j(i, i') >= D2 - 1, and the rank-th smallest upper bound of row i is
    at most t + 1, with t the (rank+1)-th smallest D1 of the row (dropping
    i' == j removes at most one value). So i' with D2 > t + 2 never ranks
    for any j and is left out, while the rank + 1 candidates of smallest D1
    always stay, so no row is empty. Rows are taken widest first (a stable sort on
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
        hi = min(n, lo + max(1, _BLOCK_ELEMS // (n * width[order[lo]])))
        rows = order[lo:hi]
        w = width[rows]
        r, c = np.nonzero(keep[rows])
        cand = np.repeat(rows[:, None], w[0], axis=1)
        cand[r, np.arange(r.size) - (np.cumsum(w) - w)[r]] = c
        yield rows, cand
        lo = hi


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
    d = _pairwise_chebyshev(s)
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
