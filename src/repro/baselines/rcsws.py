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

from repro.core.speed import as_series


def rcsws(
    t: np.ndarray,
    X: np.ndarray,
    *,
    half_window: int = 10,
    quantile: float = 0.95,
) -> tuple[np.ndarray, np.ndarray]:
    """Range-constraint + sliding-window-statistics repair for 2-D series.

    Returns ``(X_repaired, changed_mask)``.  Raises for D != 2, as the
    original method is defined on GPS (lat, lon) data only.
    """
    t, X = as_series(t, X)
    n, D = X.shape
    if D != 2:
        raise ValueError(f"RCSWS is defined for 2-D GPS data, got D={D}")
    # Range-constraint radius: quantile of point-to-window-median distances.
    med = np.empty_like(X)
    for i in range(n):
        lo, hi = max(0, i - half_window), min(n, i + half_window + 1)
        med[i] = np.median(X[lo:hi], axis=0)
    dist = np.sqrt(np.sum((X - med) ** 2, axis=1))
    radius = float(np.quantile(dist, quantile))
    Xr = X.copy()
    out = dist > radius
    for i in np.nonzero(out)[0]:
        # Project onto the range boundary towards the window median.
        direction = med[i] - X[i]
        norm = np.sqrt(np.sum(direction**2))
        if norm > 0:
            Xr[i] = X[i] + direction * (1.0 - radius / norm)
    changed = np.any(~np.isclose(Xr, X, rtol=0, atol=1e-12), axis=1)
    return Xr, changed
