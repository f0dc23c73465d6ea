"""MTCSC-L — online local streaming repair, Algorithm 2.

Processes points in arrival order.  The first point is trusted.  Each
subsequent key point ``x_k`` is kept if it is compatible with the
previous *repaired* point; otherwise the algorithm scans forward inside
the window ``(t_k, t_k + w]`` for the first point compatible with the
previous repair and places ``x'_k`` on the line between them
(formula 6, Prop. 3.2 guarantees soundness).  If no such point exists,
``x'_k`` falls back to the previous repaired value.

Complexity O(wDn); constant space beyond the window.
"""
from __future__ import annotations

import numpy as np

from .online import OnlineCleaner, run
from .speed import (
    SpeedConstraint,
    as_cleaner,
    interpolate,
    pair_checks,
    satisfy,
    within_bound,
)


class LocalCleaner(OnlineCleaner):
    """Incremental MTCSC-L: the key point's repair anchors on its first
    compatible successor."""

    def decide(self, ts, xs, hi):
        tp, xp, tk, xk = self._prev_t, self._prev_x, ts[0], xs[0]
        if satisfy(tp, xp, tk, xk, self.s):
            return xk
        ok = within_bound(*pair_checks(tp, xp, ts[1:hi], xs[1:hi]), self.s.smax)
        if ok.any():
            i = 1 + int(ok.argmax())
            return interpolate(tp, xp, ts[i], xs[i], tk)
        return xp


@as_cleaner
def mtcsc_l(t: np.ndarray, X: np.ndarray, s: SpeedConstraint) -> np.ndarray:
    """Batch MTCSC-L.

    Returns ``(X_repaired, changed_mask)`` (see :func:`as_cleaner`).
    """
    return run(LocalCleaner(s), t, X)
