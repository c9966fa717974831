"""Neighborhood smoothing estimators for the edge probability matrix.

Two variants. The per-node variant smooths over one neighborhood per node.
The modified variant builds one neighborhood per ordered pair (i, j), with
row and column j of A deleted before squaring, so the entries averaged for
P_hat[i][j] are independent of everything involving node j.

Both variants rank candidates with one exact integer Chebyshev kernel. With
S = A @ A held as raw common-neighbour counts, the distance between rows i
and i' is the largest |S[i,k] - S[i',k]| over k not in {i, i'}. Deleting
row/column j never materializes a zeroed copy: entry (i, k) of (d_j A)^2 is
S[i,k] - A[i,j] * A[j,k], and column j drops out of the maximum. The tie
rule is "ties on integer count gaps": ranking and the "ties included"
threshold use these exact integers, at every n. The 1/n of the paper's A^2/n
scale is applied only where a value is reported (deleted_square_entry).
Neighborhoods are thus the exact distance quantiles of Zhang, Levina & Zhu
(Biometrika 2017).
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
    "bandwidth",
    "quantile_rank",
    "deleted_square_entry",
    "estimate_modified",
    "estimate_original",
    "estimate_edge_probabilities",
    "column_distance_matrix",
    "estimation_errors",
]

# chunk budget for the pairwise distance kernel, in count elements; a block
# of 1 << 18 int16 values (512 KiB) stays in cache across its three passes
_CHUNK_ELEMS = 1 << 18


# fewest nodes each variant can rank: n - 2 candidates per pair, n - 1 per node
MINIMUM_N = {"modified": 4, "original": 3}


def bandwidth(c: float, n: int) -> float:
    """h = C * sqrt(ln n / n); natural log. Must land in (0, 1) for the given n."""
    if not c > 0:
        raise ValidationError(f"C must be positive, got {c}")
    if n < 2:
        raise ValidationError("need n >= 2")
    h = c * math.sqrt(math.log(n) / n)
    if not 0.0 < h < 1.0:
        raise ValidationError(f"bandwidth h={h} outside (0, 1) for C={c}, n={n}")
    return h


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
        minimum = MINIMUM_N[self.variant]
        if n < minimum:
            raise ValidationError(f"{self.variant} estimator needs >= {minimum} nodes, got {n}")
        return bandwidth(self.C, n)


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


def deleted_square_entry(sq: np.ndarray, a: np.ndarray, j: int, i: int, k: int) -> float:
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


def _deleted_square_counts(s: np.ndarray, a: np.ndarray, j: int) -> np.ndarray:
    """Raw counts of (d_j A)^2 for all (i, k) with i, k != j; column j is forced to 0.

    s and a share one dtype. Row j is never meaningful and callers must not
    read it.
    """
    r = s - np.outer(a[:, j], a[j])
    r[:, j] = 0
    return r


def _chebyshev_buffer(n: int, dtype) -> np.ndarray:
    """Work space for _pairwise_chebyshev: whole rows, at most n of them."""
    rows = min(n, max(1, _CHUNK_ELEMS // (n * n)))
    return np.empty(rows * n * n, dtype=dtype)


def _pairwise_chebyshev(x: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """out[i, i2] = max over k not in {i, i2} of |x[i, k] - x[i2, k]|; zero diagonal.

    The excluded columns are neutralized by zeroing their differences, which
    is safe because every candidate difference is nonnegative. Blocks of rows
    i are compared only with rows i2 from the block start on, and the rest of
    the result is mirrored, so about half the pairs are computed. x is an
    integer matrix; buf comes from _chebyshev_buffer and is reused across calls.
    """
    n = x.shape[0]
    out = np.empty((n, n), dtype=x.dtype)
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
        t.max(axis=2, out=out[lo:hi, lo:])
        out[hi:, lo:hi] = out[lo:hi, hi:].T
    return out


def _within_rank(d: np.ndarray, rank: int, col: int | None = None) -> np.ndarray:
    """Flags d[i, i2] within the rank-th smallest of row i, ties included.

    The diagonal, and column col when given, are never candidates. d is
    overwritten there.
    """
    big = np.iinfo(d.dtype).max
    np.fill_diagonal(d, big)
    if col is not None:
        d[:, col] = big
    q = np.partition(d, rank - 1, axis=1)[:, rank - 1]
    return d <= q[:, None]


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
    af = a.astype(np.float64)
    s = _counts(a)
    ai = a.astype(s.dtype)
    buf = _chebyshev_buffer(n, s.dtype)
    r = quantile_rank(h, n - 2)
    f = np.empty((n, n))
    sizes = np.empty((n, n), dtype=int)
    for j in range(n):
        nbrs = _pair_neighborhoods(s, ai, j, r, buf)
        sizes[:, j] = nbrs.sum(axis=1)
        f[:, j] = (nbrs @ af[:, j]) / sizes[:, j]
    phat = 0.5 * (f + f.T)
    np.fill_diagonal(phat, 0.0)
    np.fill_diagonal(sizes, 0)
    return (phat, sizes) if return_sizes else phat


def _pair_neighborhoods(s: np.ndarray, ai: np.ndarray, j: int, rank: int, buf: np.ndarray):
    """Boolean neighborhood rows for every ordered pair (i, j) at fixed j.

    Row i flags the candidates i' with d_j(i, i') within the rank-th smallest.
    Rows i == j are meaningless; the diagonal and column j are never flagged.
    """
    d = _pairwise_chebyshev(_deleted_square_counts(s, ai, j), buf)
    return _within_rank(d, rank, col=j)


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
