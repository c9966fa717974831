"""Readers and writers for graphs and matrices.

Formats kept deliberately small: whitespace edge lists, 0/1 adjacency CSV,
float matrix CSV, and the subset of GML that network datasets in the wild
actually use (node/edge records with id, label, source, target).
"""

from __future__ import annotations

import contextlib
import itertools
import os
import re
import warnings

import numpy as np

from .errors import ValidationError
from .sampling import check_adjacency

__all__ = [
    "load_edge_list",
    "save_edge_list",
    "load_adjacency_csv",
    "save_adjacency_csv",
    "load_matrix_csv",
    "save_matrix_csv",
    "load_gml_subset",
]


def load_edge_list(path) -> np.ndarray:
    """Parse "u v" lines into a dense adjacency matrix.

    Node ids are 0-based; n is one plus the largest id seen, so an isolated
    trailing node cannot be represented in this format. A "#" starts a
    comment anywhere on a line, and blank lines are skipped. Ids are what
    numpy's int64 parser accepts: ASCII digits with an optional sign.

    One np.loadtxt pass parses every id. A file that breaks a rule (a line
    without two integer ids, a negative id, a self loop, a byte the file's
    encoding cannot decode, no edges) is then scanned with the same parser,
    and the error names its first bad line. A largest id whose n x n matrix
    cannot be allocated is an error too.
    """
    try:
        with open(path) as fh:  # not the path: np.loadtxt would fetch URLs and unzip .gz
            edges = _read_ids(fh)
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from e
    except ValueError:  # UnicodeDecodeError included
        edges = None
    if edges is None or not _are_edges(edges):
        _raise_first_bad_line(path)
    u, v = edges.T
    n = int(edges.max()) + 1
    try:
        a = np.zeros((n, n), dtype=np.int8)
    except (ValueError, MemoryError):  # "array is too big" / "Unable to allocate"
        raise ValidationError(
            f"{path}: largest node id {n - 1} needs a {n} x {n} adjacency matrix, "
            "too large to allocate") from None
    a[u, v] = 1
    a[v, u] = 1
    return a


def _loadtxt(source, **kwargs) -> np.ndarray:
    """np.loadtxt as a 2-d array, without its warnings on lines or input that hold no data."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        warnings.filterwarnings("ignore", "Input line .* contained no data", UserWarning)
        return np.loadtxt(source, ndmin=2, **kwargs)


def _read_ids(source) -> np.ndarray:
    """One row of int64 ids per data line of an open text file or a list of lines."""
    return _loadtxt(source, dtype=np.int64, comments="#")


def _are_edges(rows: np.ndarray) -> bool:
    """At least one row, and every row two distinct nonnegative ids."""
    return (rows.shape[1] == 2 and rows.size > 0 and rows.min() >= 0
            and not np.any(rows[:, 0] == rows[:, 1]))


_UNDECODED = re.compile("[\udc80-\udcff]")


def _raise_first_bad_line(path):
    """Raise the ValidationError naming the first line load_edge_list rejects.

    A block of 4096 lines that decodes and reads as edges in one _read_ids
    call is passed over whole; the first other block is read line by line.
    Bytes the file's encoding cannot decode are read as the surrogates
    U+DC80..U+DCFF, and the first line that holds one is the bad line.
    """
    lineno = 0
    with open(path, errors="surrogateescape") as fh:
        for block in iter(lambda: list(itertools.islice(fh, 4096)), []):
            try:
                if _are_edges(_read_ids(block)) and not _UNDECODED.search("".join(block)):
                    lineno += len(block)
                    continue
            except ValueError:
                pass
            for lineno, raw in enumerate(block, start=lineno + 1):
                bad = _UNDECODED.search(raw)
                if bad:
                    raise ValidationError(f"{path}:{lineno}: cannot decode byte "
                                          f"0x{ord(bad[0]) - 0xDC00:02x} as {fh.encoding}")
                try:
                    row = _read_ids([raw])
                except ValueError:
                    row = None
                if row is not None and not row.size:
                    continue  # blank or comment
                # a line that does not parse: its id count picks the message
                if row is None and len(raw.split("#", 1)[0].split()) == 2:
                    raise ValidationError(f"{path}:{lineno}: node ids must be integers")
                if row is None or row.shape[1] != 2:
                    raise ValidationError(
                        f"{path}:{lineno}: expected two node ids, got {raw.strip()!r}")
                if row.min() < 0:
                    raise ValidationError(f"{path}:{lineno}: node ids must be nonnegative")
                if row[0, 0] == row[0, 1]:
                    raise ValidationError(f"{path}:{lineno}: self loops are not allowed")
    raise ValidationError(f"{path}: no edges found")


def save_edge_list(dest, a: np.ndarray) -> None:
    """Write one "u v" line per edge, u < v, to a path or an open text file.

    A reader takes n as one more than the largest id, so an isolated last node is refused.
    """
    check_adjacency(a)
    if len(a) and not a[-1].any():
        raise ValidationError(f"node {len(a) - 1} has no edge, so an edge list would drop it;"
                              " write the graph as an adjacency CSV instead")
    with _opened(dest) as fh:
        np.savetxt(fh, np.argwhere(np.triu(a, k=1)), fmt="%d", delimiter=" ")


def _opened(dest):
    """A context of an open text file: dest itself, or the path dest opened to write plain text."""
    if isinstance(dest, (str, os.PathLike)):
        return open(dest, "w")
    return contextlib.nullcontext(dest)


def load_adjacency_csv(path) -> np.ndarray:
    a = load_matrix_csv(path)
    try:
        check_adjacency(a)
    except ValueError as e:
        raise ValidationError(f"{path}: {e}") from e
    return a.astype(np.int8)


def save_adjacency_csv(dest, a: np.ndarray) -> None:
    """Write 0/1 rows to a path or an open text file."""
    check_adjacency(a)
    _write_rows(dest, np.asarray(a, dtype=np.int64), "%d")


def load_matrix_csv(path) -> np.ndarray:
    """Read a square float matrix, one comma-separated row per line.

    The n x n result is allocated once, with n the length of the first row,
    and filled from the open file in blocks of about _READ_VALUES values;
    np.loadtxt on the whole file grows its buffer as it reads and peaks at
    about 1.2 times the result. Input that does not fill the square exactly
    is parsed whole once more, so every error reads as np.loadtxt reports it.
    """
    try:
        # the open file, not the path: np.loadtxt would read name.gz where no
        # file has that name, unzip a .gz or fetch a URL
        with open(path) as fh:
            m = _fill_square(fh)
            if m is None:
                fh.seek(0)
                m = _loadtxt(fh, delimiter=",")
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from e
    except ValueError as e:
        raise ValidationError(f"{path}: not a numeric CSV matrix: {e}") from e
    if not m.size:
        raise ValidationError(f"{path}: no rows")
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"{path}: matrix must be square, got {m.shape}")
    return m


# values per np.loadtxt call of load_matrix_csv; each call holds about twice
# its block beside the result, 4% of the result at n = 1000-1200
_READ_VALUES = 1 << 14


def _fill_square(fh):
    """The n x n matrix of fh's rows, n the first row's length; None for any other input."""
    try:
        first = _loadtxt(fh, delimiter=",", max_rows=1)
        if not first.size:
            return None
        n = first.shape[1]
        m = np.empty((n, n))
        m[0] = first[0]
        step = max(1, _READ_VALUES // n)
        for lo in range(1, n, step):
            block = _loadtxt(fh, delimiter=",", max_rows=step)
            if block.shape != m[lo:lo + step].shape:
                return None
            m[lo:lo + step] = block
        if _loadtxt(fh, delimiter=",", max_rows=1).size:  # more rows than columns
            return None
    except (ValueError, MemoryError):  # UnicodeDecodeError included; a first row too long
        return None
    return m


def save_matrix_csv(dest, m: np.ndarray) -> None:
    """Write %.6g rows to a path or an open text file."""
    _write_rows(dest, np.asarray(m, dtype=float), "%.6g")


_BLOCK_VALUES = 1 << 16


def _write_rows(dest, x: np.ndarray, fmt: str) -> None:
    """Write a float64 or int64 array as np.savetxt(fh, x, fmt, delimiter=",") does.

    dest is a path or an open text file fh, and a 1-D x is one value per
    line. Rows go out in blocks of about 2**16 values. A block's
    distinct 64-bit patterns, so -0.0 and each NaN keep their own text, are
    formatted by one % call, and each row is joined from that table. A P-hat
    holds few distinct values and is written 2-3x faster than by np.savetxt;
    a matrix of all-distinct values takes up to about 2x as long.
    """
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError(f"Expected 1D or 2D array, got {x.ndim}D array instead")
    step = max(1, _BLOCK_VALUES // max(x.shape[1], 1))
    with _opened(dest) as fh:
        for start in range(0, x.shape[0], step):
            block = x[start:start + step]
            bits, inverse = np.unique(block.view(np.uint64), return_inverse=True)
            values = bits.view(x.dtype).tolist()
            table = np.array(((fmt + "\0") * len(values) % tuple(values)).split("\0"),
                             dtype=object)
            rows = table[inverse.reshape(block.shape)].tolist()
            fh.write("\n".join(map(",".join, rows)) + "\n")


_GML_TOKEN = re.compile(r'\[|\]|"[^"]*"|\S+')


def load_gml_subset(path):
    """Read an undirected graph from GML node/edge records; returns (adjacency, labels).

    Rows follow ascending node id, and labels[i] is the label of row i (its
    id as text when the node has none).

    Supports the common flat structure: a graph block containing node blocks
    with id (and optional label) and edge blocks with source/target. Other
    attributes, nested blocks such as graphics [...] included, are skipped.
    Duplicate edges, including the reversed copies a directed file carries,
    collapse to one undirected edge with a warning. A block left open at the
    end of the file, or a ] that closes no block, raises ValidationError.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from e
    tokens = iter(_GML_TOKEN.findall(text))

    ids = []
    labels = {}
    raw_edges = []
    stack = []  # (key, fields) of each open block, e.g. ("graph", {}), ("node", {"id": 0})
    for key in tokens:
        if key == "]":
            if not stack:
                raise ValidationError(f"{path}: ']' closes no open block")
            closed, cur = stack.pop()
            if closed == "node":
                if "id" not in cur:
                    raise ValidationError(f"{path}: node record without id")
                nid = cur["id"]
                if nid in labels:
                    raise ValidationError(f"{path}: duplicate node id {nid}")
                ids.append(nid)
                labels[nid] = cur.get("label", str(nid))
            elif closed == "edge":
                if "source" not in cur or "target" not in cur:
                    raise ValidationError(f"{path}: edge record without source/target")
                raw_edges.append((cur["source"], cur["target"]))
            continue
        val = next(tokens, None)
        if val is None:
            raise ValidationError(f"{path}: dangling key {key!r}")
        if val == "[":
            stack.append((key, {}))
            continue
        if stack and stack[-1][0] in ("node", "edge"):
            cur = stack[-1][1]
            if key in ("id", "source", "target"):
                try:
                    cur[key] = int(val)
                except ValueError:
                    raise ValidationError(f"{path}: {key} must be an integer, got {val!r}") from None
            elif key == "label":
                cur[key] = val[1:-1] if val.startswith('"') else val
    if stack:
        raise ValidationError(f"{path}: {stack[-1][0]} block still open at end of file")

    if not ids:
        raise ValidationError(f"{path}: no node records found")
    order = sorted(ids)
    row_of = {nid: row for row, nid in enumerate(order)}
    n = len(order)
    a = np.zeros((n, n), dtype=np.int8)
    dupes = 0
    for s, t in raw_edges:
        if s not in row_of or t not in row_of:
            raise ValidationError(f"{path}: edge references unknown node id {s if s not in row_of else t}")
        if s == t:
            raise ValidationError(f"{path}: self loop on node id {s}")
        u, v = row_of[s], row_of[t]
        if a[u, v]:
            dupes += 1
        a[u, v] = 1
        a[v, u] = 1
    if dupes:
        warnings.warn(f"{path}: collapsed {dupes} duplicate/reversed edge records", stacklevel=2)
    return a, [labels[nid] for nid in order]
