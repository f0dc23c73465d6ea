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

from repro.core.speed import SpeedConstraint, as_cleaner

from .screen import _screen_1d


@as_cleaner
def speed_acc(t: np.ndarray, X: np.ndarray, s: SpeedConstraint) -> np.ndarray:
    """Run SpeedAcc per dimension under the loose acceleration bound
    ``amax = 2*s/median(dt)``.

    Returns ``(X_repaired, changed_mask)`` (see :func:`as_cleaner`).
    """
    dt_med = float(np.median(np.diff(t))) if len(t) > 1 else 1.0
    amax = 2.0 * s.smax / dt_med
    return np.column_stack([_screen_1d(t, x, s.smax, s.window, amax) for x in X.T])
