"""SCREEN (Song et al., SIGMOD 2015) — univariate online speed-constraint
cleaning under the minimum-change principle.

For each arriving point the local optimum is the *median* of the
candidate set formed by the point itself and the bounds implied by every
window successor, clamped to the feasible interval implied by the
previous repaired point.  Clamping to the interval border is exactly the
"border repair" behaviour the MTCSC paper contrasts against.

The univariate constraint is a pair ``(smin, smax)`` per dimension; the
MTCSC experiments give univariate methods the symmetric constraint
``(-s, s)``.  Multivariate inputs are handled dimension-by-dimension, as
in the paper's comparison.
"""
from __future__ import annotations

import numpy as np

from repro.core.speed import SpeedConstraint, as_series


def _screen_1d(
    t: np.ndarray, x: np.ndarray, smax: float, w: float, amax: float = np.inf
) -> np.ndarray:
    """SCREEN under the symmetric speed bound ``(-smax, smax)``.

    A finite ``amax`` adds SpeedAcc's symmetric acceleration bound
    ``(-amax, amax)`` from the previous two repaired points; when the
    speed and acceleration intervals do not meet, the speed bounds win.
    """
    n = len(t)
    xr = x.copy()
    for k in range(1, n):
        # Feasible interval from the previous repaired point.
        dt_prev = t[k] - t[k - 1]
        lo = xr[k - 1] - smax * dt_prev
        hi = xr[k - 1] + smax * dt_prev
        if dt_prev > w:  # previous point out of window: unconstrained
            lo, hi = -np.inf, np.inf
        elif k >= 2 and amax < np.inf:
            v_prev = (xr[k - 1] - xr[k - 2]) / (t[k - 1] - t[k - 2])
            alo = xr[k - 1] + (v_prev - amax * dt_prev) * dt_prev
            ahi = xr[k - 1] + (v_prev + amax * dt_prev) * dt_prev
            nlo, nhi = max(lo, alo), min(hi, ahi)
            if nlo <= nhi:
                lo, hi = nlo, nhi
        # Candidate set from window successors (the SCREEN median trick).
        cands = [x[k]]
        i = k + 1
        while i < n and t[i] <= t[k] + w:
            dt = t[i] - t[k]
            cands.append(x[i] - smax * dt)
            cands.append(x[i] + smax * dt)
            i += 1
        mid = float(np.median(cands))
        xr[k] = min(max(mid, lo), hi)
    return xr


def screen(
    t: np.ndarray, X: np.ndarray, s: SpeedConstraint
) -> tuple[np.ndarray, np.ndarray]:
    """Run SCREEN per dimension with the symmetric constraint (-s, s).

    Returns ``(X_repaired, changed_mask)``.
    """
    t, X = as_series(t, X)
    Xr = np.empty_like(X)
    for d in range(X.shape[1]):
        Xr[:, d] = _screen_1d(t, X[:, d], s.smax, s.window)
    changed = np.any(~np.isclose(Xr, X, rtol=0, atol=1e-12), axis=1)
    return Xr, changed
