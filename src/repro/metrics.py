"""Evaluation metrics from Section 5.1.2, as numpy kernels.

- RMSE between repair and ground truth (per-cell root mean square, all
  dimensions pooled);
- repair distance  delta(x', x) = sum_i d(x'_i, x_i) / n;
- repair number    Delta(x', x) = #{i : x'_i != x_i} (and its fraction),
  counted by :func:`repro.core.speed.moved`, the rule behind every
  cleaner's ``changed`` mask.
"""
from __future__ import annotations

import numpy as np

from repro.core.speed import moved


def rmse(repaired: np.ndarray, truth: np.ndarray) -> float:
    """Root mean squared error over all cells."""
    a = np.atleast_2d(np.asarray(repaired, float))
    b = np.atleast_2d(np.asarray(truth, float))
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def repair_distance(repaired: np.ndarray, original: np.ndarray) -> float:
    """Mean Euclidean distance moved per point: sum_i d(x'_i, x_i)/n."""
    a = np.atleast_2d(np.asarray(repaired, float))
    b = np.atleast_2d(np.asarray(original, float))
    return float(np.mean(np.sqrt(np.sum((a - b) ** 2, axis=1))))


def repair_number(repaired: np.ndarray, original: np.ndarray) -> int:
    """Number of points with any modified dimension."""
    a = np.atleast_2d(np.asarray(repaired, float))
    b = np.atleast_2d(np.asarray(original, float))
    return int(np.sum(moved(a, b)))


def evaluate(
    repaired: np.ndarray, original: np.ndarray, truth: np.ndarray
) -> dict[str, float]:
    """All three metrics at once (plus the repair fraction)."""
    n = len(np.atleast_2d(original))
    k = repair_number(repaired, original)
    return {
        "rmse": rmse(repaired, truth),
        "repair_distance": repair_distance(repaired, original),
        "repair_number": float(k),
        "repair_fraction": k / n if n else 0.0,
    }

