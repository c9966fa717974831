"""Step graphons on [0,1]: block partitions and JSON (de)serialization.

A step graphon is constant on the products of finitely many interval blocks.
Blocks follow a single convention: block i is [b_i, b_{i+1}), except the last
block which is closed at 1. Breakpoints are plain 64-bit floats and all
comparisons are exact, so callers should supply exactly representable
breakpoints where boundary behavior matters; points falling on a block
boundary are a null set and never affect measure-level quantities.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

__all__ = [
    "BlockPartition",
    "StepGraphon",
    "step_graphon_from_dict",
    "step_graphon_to_dict",
    "load_step_graphon",
]


@dataclass(frozen=True)
class BlockPartition:
    """Interval partition of [0,1] given by breakpoints 0 = b_0 < b_1 < ... < b_k = 1."""

    breakpoints: tuple

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        if len(bps) < 2:
            raise ValidationError("partition needs at least two breakpoints")
        if bps[0] != 0.0 or bps[-1] != 1.0:
            raise ValidationError(f"breakpoints must start at 0 and end at 1, got {bps[0]} .. {bps[-1]}")
        for a, b in zip(bps, bps[1:]):
            if not a < b:
                raise ValidationError(f"breakpoints not strictly increasing at {a} >= {b}")

    @property
    def k(self) -> int:
        return len(self.breakpoints) - 1

    def locate_many(self, xs) -> np.ndarray:
        """Index of the block holding each point.

        Blocks are half open [b_i, b_{i+1}); x = 1 belongs to the last block.
        Points outside [0, 1], NaN included, raise ValueError.
        """
        xs = np.asarray(xs, dtype=float)
        if not ((xs >= 0.0) & (xs <= 1.0)).all():
            raise ValueError("points outside [0, 1]")
        idx = np.searchsorted(self.breakpoints, xs, side="right") - 1
        return np.where(xs == 1.0, self.k - 1, idx).astype(int)


@dataclass(frozen=True, eq=False)
class StepGraphon:
    """Piecewise constant symmetric function [0,1]^2 -> [0,1] on a block partition."""

    partition: BlockPartition
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        k = self.partition.k
        if vals.shape != (k, k):
            raise ValidationError(f"values must be {k}x{k}, got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("values must be finite")
        if vals.min() < 0.0 or vals.max() > 1.0:
            raise ValidationError("values must lie in [0, 1]")
        if not np.array_equal(vals, vals.T):
            raise ValidationError("values must be symmetric")
        vals.setflags(write=False)


def step_graphon_to_dict(w: StepGraphon) -> dict:
    return {
        "breakpoints": list(w.partition.breakpoints),
        "values": [[float(v) for v in row] for row in w.values],
    }


def _is_number(v) -> bool:
    """A real number that a float holds; true and false are not numbers."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    try:
        float(v)
    except OverflowError:  # an integer past the float range
        return False
    return True


def step_graphon_from_dict(d) -> StepGraphon:
    """Build a step graphon from {"breakpoints": [...], "values": [[...]]}; strict validation."""
    if not isinstance(d, dict):
        raise ValidationError("graphon document must be a JSON object")
    extra = set(d) - {"breakpoints", "values"}
    if extra:
        raise ValidationError(f"unknown keys in graphon document: {sorted(extra)}")
    if "breakpoints" not in d or "values" not in d:
        raise ValidationError('graphon document needs "breakpoints" and "values"')
    bps = d["breakpoints"]
    vals = d["values"]
    if not isinstance(bps, list) or not all(map(_is_number, bps)):
        raise ValidationError("breakpoints must be a list of numbers")
    if not isinstance(vals, list) or not all(isinstance(row, list) for row in vals):
        raise ValidationError("values must be a list of rows")
    k = len(bps) - 1
    if any(len(row) != k for row in vals) or len(vals) != k:
        raise ValidationError(f"values must be a {k}x{k} matrix")
    for row in vals:
        if not all(map(_is_number, row)):
            raise ValidationError("values must be numbers")
    return StepGraphon(BlockPartition(tuple(bps)), np.asarray(vals, dtype=float))


def _read_json(path):
    """The JSON document at path; an unreadable file or invalid JSON raises ValidationError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: invalid JSON: {e}") from e


def load_step_graphon(path) -> StepGraphon:
    return step_graphon_from_dict(_read_json(path))
