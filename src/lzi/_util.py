"""Internal helpers shared by model modules and the CLI."""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateSpectralError

_GAP_FRACTION = 1e-9  # of max|values|: the smallest gap require_distinct accepts


def frozen_float_array(values, name: str) -> np.ndarray:
    """1-D float array, validated finite, marked read-only."""
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


def require_distinct(values, name: str) -> None:
    """Reject coincident entries; the gap threshold scales with max|values|."""
    v = np.asarray(values)
    if v.size < 2:
        return
    diff = np.abs(v[:, None] - v[None, :])
    off = diff[~np.eye(v.size, dtype=bool)]
    threshold = _GAP_FRACTION * float(np.abs(v).max())
    if float(off.min()) <= threshold:
        raise DegenerateSpectralError(
            f"{name} entries too close: min gap {off.min():.3e} <= {threshold:.3e}"
        )


def require_squarable(values, name: str) -> None:
    """Reject entries whose sum of squares overflows; each square and each
    product of two entries is then finite too."""
    if not math.isfinite(sum(x * x for x in np.asarray(values, dtype=float).tolist())):
        raise ValueError(f"{name} is too large: the sum of its squares overflows")


def fmt17(x: float) -> str:
    """Format a double with 17 significant digits (round-trip exact)."""
    return f"{float(x):.17g}"
