"""EWMA (exponentially weighted moving average) smoothing baseline.

``x'_k = LAM * x_k + (1 - LAM) * x'_{k-1}`` — assigns
exponentially decreasing weights to history.  As the MTCSC paper notes,
smoothing modifies essentially every point (over-repair), which is the
behaviour this baseline contributes to the comparison.
"""
from __future__ import annotations

import numpy as np

from repro.core.speed import as_cleaner

#: Weight of the new observation.
LAM = 0.25


@as_cleaner
def ewma(t: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Smooth each dimension with weight :data:`LAM` on the new observation.

    Returns ``(X_repaired, changed_mask)`` (see :func:`as_cleaner`).
    Timestamps are accepted for interface uniformity; classic EWMA
    ignores spacing.
    """
    Xr = np.empty_like(X)
    Xr[0] = X[0]
    for k in range(1, len(X)):
        Xr[k] = LAM * X[k] + (1.0 - LAM) * Xr[k - 1]
    return Xr
