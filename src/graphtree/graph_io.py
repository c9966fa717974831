"""Readers and writers for graphs and matrices.

Formats kept deliberately small: whitespace edge lists, 0/1 adjacency CSV,
float matrix CSV, and the subset of GML that network datasets in the wild
actually use (node/edge records with id, label, source, target).
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

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
    "GmlGraph",
    "load_gml_subset",
]


# One line the fast path of load_edge_list cannot read: anything but a blank
# line, a "#" comment or two ASCII digit runs split by spaces or tabs. Runs of
# at most 18 digits stay below 2**63, so int64 cannot wrap. Searched over
# "\n" + text, so the literal "\n" starts every line, the first included.
_ODD_EDGE_LINE = re.compile(
    r"\n(?![ \t]*(?:#|[0-9]{1,18}[ \t]+[0-9]{1,18}[ \t]*(?:\n|\Z)|\n|\Z))")
_COMMENT = re.compile(r"#[^\n]*")


def load_edge_list(path) -> np.ndarray:
    """Parse "u v" lines into a dense adjacency matrix.

    Node ids are 0-based; n is one plus the largest id seen, so an isolated
    trailing node cannot be represented in this format. Blank lines and
    lines starting with "#" are skipped.

    Two paths, one result. When every line is blank, a comment or two ASCII
    digit runs of at most 18 digits, the file is read in one pass: one regex
    search checks the lines, one numpy call parses every id and the edges
    are scattered into the matrix at once. Any other file, and any file that
    breaks a rule (a self loop, no edges), is read line by line, which
    accepts every spelling int() does and names the first bad line.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError:
        return _read_edge_lines(path)
    if _ODD_EDGE_LINE.search("\n" + text):
        return _read_edge_lines(path)
    body = _COMMENT.sub("", text) if "#" in text else text
    if not body.strip():  # np.fromstring would not return an empty array
        return _read_edge_lines(path)
    u, v = np.fromstring(body, dtype=np.int64, sep=" ").reshape(-1, 2).T
    if np.any(u == v):
        return _read_edge_lines(path)
    n = int(max(u.max(), v.max())) + 1
    a = np.zeros((n, n), dtype=np.int8)
    a[u, v] = 1
    a[v, u] = 1
    return a


def _read_edge_lines(path) -> np.ndarray:
    """load_edge_list one line at a time; every error names its line."""
    edges = []
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
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


def save_edge_list(dest, a: np.ndarray) -> None:
    """Write one "u v" line per edge, u < v, to a path or an open text file."""
    check_adjacency(a)
    np.savetxt(dest, np.argwhere(np.triu(a, k=1)), fmt="%d", delimiter=" ")


def load_adjacency_csv(path) -> np.ndarray:
    try:
        a = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from e
    except ValueError as e:
        raise ValidationError(f"{path}: not a numeric CSV matrix: {e}") from e
    try:
        check_adjacency(a)
    except ValueError as e:
        raise ValidationError(f"{path}: {e}") from e
    return a.astype(np.int8)


def save_adjacency_csv(dest, a: np.ndarray) -> None:
    """Write 0/1 rows to a path or an open text file."""
    check_adjacency(a)
    np.savetxt(dest, np.asarray(a, dtype=int), fmt="%d", delimiter=",")


def load_matrix_csv(path) -> np.ndarray:
    try:
        m = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from e
    except ValueError as e:
        raise ValidationError(f"{path}: not a numeric CSV matrix: {e}") from e
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"{path}: matrix must be square, got {m.shape}")
    return m


def save_matrix_csv(dest, m: np.ndarray) -> None:
    """Write %.6g rows to a path or an open text file."""
    np.savetxt(dest, np.asarray(m, dtype=float), fmt="%.6g", delimiter=",")


@dataclass(frozen=True)
class GmlGraph:
    """Dense adjacency plus the original node labels and ids."""

    adjacency: np.ndarray
    labels: tuple
    id_map: dict  # original GML id -> row index


_GML_TOKEN = re.compile(r'\[|\]|"[^"]*"|\S+')


def load_gml_subset(path) -> GmlGraph:
    """Read an undirected graph from GML node/edge records.

    Supports the common flat structure: a graph block containing node blocks
    with id (and optional label) and edge blocks with source/target. Other
    attributes are skipped. Duplicate edges, including the reversed copies a
    directed file carries, collapse to one undirected edge with a warning.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from e
    tokens = _GML_TOKEN.findall(text)

    ids = []
    labels = {}
    raw_edges = []
    stack = []  # nesting path of keys, e.g. ["graph", "node"]
    cur = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok == "]":
            closed = stack.pop() if stack else None
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
            cur = {}
            i += 1
            continue
        key = tok
        i += 1
        if i >= len(tokens):
            raise ValidationError(f"{path}: dangling key {key!r}")
        val = tokens[i]
        if val == "[":
            stack.append(key)
            cur = {}
            i += 1
            continue
        i += 1
        if stack and stack[-1] in ("node", "edge"):
            if key in ("id", "source", "target"):
                try:
                    cur[key] = int(val)
                except ValueError:
                    raise ValidationError(f"{path}: {key} must be an integer, got {val!r}") from None
            elif key == "label":
                cur[key] = val[1:-1] if val.startswith('"') else val

    if not ids:
        raise ValidationError(f"{path}: no node records found")
    order = sorted(ids)
    id_map = {nid: row for row, nid in enumerate(order)}
    n = len(order)
    a = np.zeros((n, n), dtype=np.int8)
    dupes = 0
    for s, t in raw_edges:
        if s not in id_map or t not in id_map:
            raise ValidationError(f"{path}: edge references unknown node id {s if s not in id_map else t}")
        if s == t:
            raise ValidationError(f"{path}: self loop on node id {s}")
        u, v = id_map[s], id_map[t]
        if a[u, v]:
            dupes += 1
        a[u, v] = 1
        a[v, u] = 1
    if dupes:
        warnings.warn(f"{path}: collapsed {dupes} duplicate/reversed edge records", stacklevel=2)
    return GmlGraph(adjacency=a, labels=tuple(labels[nid] for nid in order), id_map=id_map)
