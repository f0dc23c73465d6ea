"""EWMA (exponentially weighted moving average) smoothing baseline.

``x'_k = lambda * x_k + (1 - lambda) * x'_{k-1}`` — assigns
exponentially decreasing weights to history.  As the MTCSC paper notes,
smoothing modifies essentially every point (over-repair), which is the
behaviour this baseline contributes to the comparison.
"""
from __future__ import annotations

import numpy as np

from repro.core.speed import as_cleaner


@as_cleaner
def ewma(t: np.ndarray, X: np.ndarray, *, lam: float = 0.25) -> np.ndarray:
    """Smooth each dimension; ``lam`` is the weight of the new observation.

    Returns ``(X_repaired, changed_mask)`` (see :func:`as_cleaner`).
    Timestamps are accepted for interface uniformity; classic EWMA
    ignores spacing.
    """
    if not 0 < lam <= 1:
        raise ValueError(f"lam must be in (0, 1], got {lam}")
    Xr = np.empty_like(X)
    Xr[0] = X[0]
    for k in range(1, len(X)):
        Xr[k] = lam * X[k] + (1.0 - lam) * Xr[k - 1]
    return Xr
