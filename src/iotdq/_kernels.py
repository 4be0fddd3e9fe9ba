"""Numeric kernels of the IAT metrics, vectorised with NumPy."""

from __future__ import annotations

import numpy as np

__all__ = ["m1_sums"]


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
