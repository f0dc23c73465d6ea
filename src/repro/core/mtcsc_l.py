"""MTCSC-L — online local streaming repair, Algorithm 2.

Processes points in arrival order.  The first point is trusted.  Each
subsequent key point ``x_k`` is kept if it is compatible with the
previous *repaired* point; otherwise the algorithm scans forward inside
the window ``(t_k, t_k + w]`` for the first point compatible with the
previous repair and places ``x'_k`` on the line between them
(formula 6, Prop. 3.2 guarantees soundness).  If no such point exists,
``x'_k`` falls back to the previous repaired value.

While the previous repair is the raw ``x_{k-1}``, the check of ``x_k``
reads raw data only, so :meth:`LocalCleaner.speculate` makes the checks
of every consecutive pair of a run in one vectorised pass, and the online
loop keeps a run of passing pairs with no per-point work.  The per-point
rule runs from a failing pair until a point is kept raw again.

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
    within_bound,
)


class LocalCleaner(OnlineCleaner):
    """Incremental MTCSC-L: the key point's repair anchors on its first
    compatible successor."""

    def speculate(self, ts, xs, ends, a, lo, hi):
        # Key k is compatible with its raw predecessor: the check that
        # keeps it when that predecessor was kept.
        d, dt = pair_checks(ts[lo - 1 : hi - 1], xs[lo - 1 : hi - 1], ts[lo:hi], xs[lo:hi])
        kept = (dt > self.s.window) | within_bound(d, dt, self.s.smax)
        return kept, lambda k, raw: self._repair(ts, xs, k, ends[k])

    def _repair(self, ts, xs, k: int, hi: int) -> np.ndarray | None:
        """Algorithm 2 for key ``k``, whose successors end before ``hi``:
        ``None`` when it is compatible with the previous repair (kept),
        else its repair on the line to its first compatible successor,
        else the previous repair."""
        s, tp, xp = self.s, self._prev_t, self._prev_x
        # The key and its successors against the previous repair at once.
        d, dt = pair_checks(tp, xp, ts[k:hi], xs[k:hi])
        ok = within_bound(d, dt, s.smax)
        if dt[0] > s.window or ok[0]:  # satisfy(x_p, x_k)
            return None
        i = int(ok.argmax())
        return interpolate(tp, xp, ts[k + i], xs[k + i], ts[k]) if ok[i] else xp


@as_cleaner
def mtcsc_l(t: np.ndarray, X: np.ndarray, s: SpeedConstraint) -> np.ndarray:
    """Batch MTCSC-L.

    Returns ``(X_repaired, changed_mask)`` (see :func:`as_cleaner`).
    """
    return run(LocalCleaner(s), t, X)
