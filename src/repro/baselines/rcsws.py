"""RCSWS (GPSClean, Fang et al. 2022) proxy — GPS cleaning via range
constraints and sliding-window statistics.  Two-dimensional data only.

Mechanism kept from the original: a sliding window of neighbouring
positions provides a robust center (component-wise median); a *range
constraint* — the radius within which a genuine position must lie,
estimated from a quantile of window displacements — flags points outside
the range, which are repaired by projecting onto the range boundary
towards the window median (the paper notes RCSWS "suffers from
oversimplified considerations regarding the data", i.e. modest accuracy
with small repair distance, which this projection reproduces).
"""
from __future__ import annotations

import numpy as np

from repro.core.speed import as_cleaner

#: The sliding window holds the ``HALF_WINDOW`` points on either side.
HALF_WINDOW = 10
#: The range-constraint radius is this quantile of the distances to the
#: window medians.
QUANTILE = 0.95


@as_cleaner
def rcsws(t: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Range-constraint + sliding-window-statistics repair for 2-D series.

    Returns ``(X_repaired, changed_mask)`` (see :func:`as_cleaner`).
    Raises for D != 2, as the original method is defined on GPS
    (lat, lon) data only.
    """
    n, D = X.shape
    if D != 2:
        raise ValueError(f"RCSWS is defined for 2-D GPS data, got D={D}")
    # Range-constraint radius: quantile of point-to-window-median distances.
    med = np.empty_like(X)
    for i in range(n):
        lo, hi = max(0, i - HALF_WINDOW), min(n, i + HALF_WINDOW + 1)
        med[i] = np.median(X[lo:hi], axis=0)
    dist = np.sqrt(np.sum((X - med) ** 2, axis=1))
    radius = float(np.quantile(dist, QUANTILE))
    Xr = X.copy()
    out = dist > radius
    for i in np.nonzero(out)[0]:
        # Project onto the range boundary towards the window median.
        direction = med[i] - X[i]
        norm = np.sqrt(np.sum(direction**2))
        if norm > 0:
            Xr[i] = X[i] + direction * (1.0 - radius / norm)
    return Xr
