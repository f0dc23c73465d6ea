"""SpeedAcc (Song et al., TODS 2021) — univariate online cleaning under
joint speed *and* acceleration constraints, minimum-change principle.

SCREEN plus symmetric acceleration bounds, run by SCREEN's own loop
(:func:`repro.baselines.screen._screen_1d`): the feasible interval for
the repair combines the speed bounds from the previous repaired point
with the acceleration bounds from the previous two repaired points
(``v_k in [v_{k-1} - amax*dt, v_{k-1} + amax*dt]``).  The candidate
median from the window is clamped into the intersection; when the
intersection is empty the speed bounds win (speed is the primary
constraint in the paper's experiments).
"""
from __future__ import annotations

import numpy as np

from repro.core.speed import SpeedConstraint, as_series

from .screen import _screen_1d


def speed_acc(
    t: np.ndarray,
    X: np.ndarray,
    s: SpeedConstraint,
    *,
    amax: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run SpeedAcc per dimension; ``amax`` defaults to ``2*s/median(dt)``
    (a loose acceleration bound when none is given).

    Returns ``(X_repaired, changed_mask)``.
    """
    t, X = as_series(t, X)
    if amax is None:
        dt_med = float(np.median(np.diff(t))) if len(t) > 1 else 1.0
        amax = 2.0 * s.smax / dt_med
    Xr = np.empty_like(X)
    for d in range(X.shape[1]):
        Xr[:, d] = _screen_1d(t, X[:, d], s.smax, s.window, amax)
    changed = np.any(~np.isclose(Xr, X, rtol=0, atol=1e-12), axis=1)
    return Xr, changed
