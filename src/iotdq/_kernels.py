"""Numeric kernels of the IAT metrics, vectorised with NumPy."""

from __future__ import annotations

import numpy as np

__all__ = ["m1_sums", "mod_z", "mode_of_sorted"]


def m1_sums(
    xq: np.ndarray, mode: float, crossover: float
) -> tuple[float, float, int, int]:
    """(numerator, poor denominator, good count, poor count) of M1 terms."""
    rae = np.abs(xq - mode) / mode
    good_mask = rae <= crossover
    good = int(np.count_nonzero(good_mask))
    num = float(np.sum(1.0 - rae[good_mask] / crossover))
    poor_den = float(np.sum(rae[~good_mask] / crossover))
    return num, poor_den, good, int(xq.shape[0] - good)


def mod_z(
    x: np.ndarray, center: float, denom: float, constant: float
) -> np.ndarray:
    return constant * (np.asarray(x, dtype=np.float64) - center) / denom


def mode_of_sorted(xs: np.ndarray) -> tuple[float, int]:
    """Most frequent value and its count; ties break to the smallest value."""
    vals, counts = np.unique(xs, return_counts=True)
    i = int(np.argmax(counts))
    return float(vals[i]), int(counts[i])
