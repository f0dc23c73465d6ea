"""LsGreedy (Zhang et al., SIGMOD 2016) — statistical cleaning via a
probability model of *speed changes* between adjacent points.

The method fits a Gaussian over the second difference of the series
(speed change u_k), flags points whose |u_k - mu| exceeds ``K_SIGMA``
standard deviations, and greedily repairs the worst-offending point
first by setting its value so that its speed change becomes the model
mean.  Repairing a point updates its neighbours' speed changes, so a
max-heap over |z| is refreshed until no point exceeds the threshold.

Reproduces the documented failure mode: at high error rates the fitted
sigma inflates, dirty points stop looking anomalous, and too few points
are repaired (Figure 6 discussion in the MTCSC paper).
"""
from __future__ import annotations

import heapq

import numpy as np

from repro.core.speed import as_cleaner

#: A point is flagged when its speed change lies more than ``K_SIGMA``
#: robust standard deviations from the model median.
K_SIGMA = 3.0
#: The greedy loop makes at most this many repairs per point of the series.
MAX_ITER_PER_POINT = 5


def _speed_changes(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """u_k = v(k, k+1) - v(k-1, k); defined for 1 <= k <= n-2."""
    v = np.diff(x) / np.diff(t)
    return v[1:] - v[:-1]


def _lsgreedy_1d(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    n = len(t)
    if n < 3:
        return x.copy()
    xr = x.copy()
    u = _speed_changes(t, xr)  # u[i] belongs to point i+1
    med = float(np.median(u))
    # Robust sigma from MAD so a few large errors do not mask the rest;
    # the *inflation* failure mode at high error rates still occurs
    # because at 20%+ errors the MAD itself inflates.
    mad = float(np.median(np.abs(u - med)))
    sigma = 1.4826 * mad if mad > 0 else float(np.std(u))
    if sigma == 0:
        return xr
    thresh = K_SIGMA * sigma

    def z(i: int) -> float:  # |deviation| of point i (1..n-2)
        dt0 = t[i] - t[i - 1]
        dt1 = t[i + 1] - t[i]
        ui = (xr[i + 1] - xr[i]) / dt1 - (xr[i] - xr[i - 1]) / dt0
        return abs(ui - med)

    heap = [(-z(i), i) for i in range(1, n - 1)]
    heapq.heapify(heap)
    it = 0
    while heap and it < MAX_ITER_PER_POINT * n:
        nz, i = heapq.heappop(heap)
        cur = z(i)
        if abs(-nz - cur) > 1e-12:  # stale entry; reinsert with fresh key
            heapq.heappush(heap, (-cur, i))
            continue
        if cur <= thresh:
            break
        # Repair x_i so that its speed change equals the model median:
        # (x[i+1]-xi)/dt1 - (xi-x[i-1])/dt0 = med  =>  solve for xi.
        dt0 = t[i] - t[i - 1]
        dt1 = t[i + 1] - t[i]
        xi = (xr[i + 1] / dt1 + xr[i - 1] / dt0 - med) / (1.0 / dt0 + 1.0 / dt1)
        xr[i] = xi
        it += 1
        for j in (i - 1, i, i + 1):
            if 1 <= j <= n - 2:
                heapq.heappush(heap, (-z(j), j))
    return xr


@as_cleaner
def lsgreedy(t: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Run LsGreedy per dimension (it is a univariate method).

    Returns ``(X_repaired, changed_mask)`` (see :func:`as_cleaner`).
    """
    return np.column_stack([_lsgreedy_1d(t, x) for x in X.T])
