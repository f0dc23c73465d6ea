"""MTCSC-C — online cleaning via window clustering, Algorithms 3 and 4.

MTCSC-L anchors the repair on the *first* compatible successor, which a
lucky outlier can hijack.  MTCSC-C instead clusters the points of the
current window (BuildCluster, Algorithm 3) and anchors on the first
point of the **largest** cluster — the window's majority trend.  This
also repairs *small* errors: the key point is modified unless it is
compatible with both the previous repair and the majority representative
(Algorithm 4 line 10), even when it satisfies the speed constraint.

Complexity O(w^2 D n); constant space beyond the window.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .online import OnlineCleaner, run
from .speed import SpeedConstraint, interpolate, satisfy, within_speed


def build_cluster(
    tp: float,
    xp: np.ndarray,
    tw: Sequence[float],
    Xw: Sequence[np.ndarray],
    s: SpeedConstraint,
) -> list[list[int]]:
    """Algorithm 3: cluster the window points (successors of the key point).

    ``(tp, xp)`` is the last repaired point; ``tw``/``Xw`` hold the window
    points *after* the key point, in time order.  Returns clusters as
    lists of indices into ``tw`` (order of creation).

    ``head[i]`` is the index of the cluster head point ``i`` belongs to
    (``i`` itself for a head), or ``None`` for an omitted (dirty) point.
    """
    m = len(tw)
    clusters: dict[int, list[int]] = {}
    head: list[int | None] = [None] * m
    # Find the first point compatible with the previous repaired point.
    ell = next((i for i in range(m) if within_speed(tp, xp, tw[i], Xw[i], s)), None)
    if ell is None:
        return []
    head[ell] = ell
    clusters[ell] = [ell]
    for i in range(ell + 1, m):
        for j in range(i - 1, ell - 1, -1):
            if within_speed(tw[j], Xw[j], tw[i], Xw[i], s):
                # Join j's cluster; a point compatible with an omitted
                # point is itself omitted.
                if head[j] is not None:
                    head[i] = head[j]
                    clusters[head[j]].append(i)
                break
            if j == ell or head[j] not in (None, j):
                # Action 2: start a new cluster iff compatible with the
                # previous repaired point; otherwise omit (Action 4).
                if within_speed(tp, xp, tw[i], Xw[i], s):
                    head[i] = i
                    clusters[i] = [i]
                break
            # Action 3 (j is an unsatisfied head or omitted): keep
            # scanning towards older points.
    return list(clusters.values())


def largest_cluster_head(clusters: list[list[int]]) -> int | None:
    """Index (into the window) of the first point of the largest cluster.

    Ties break towards the earliest-created (oldest-head) cluster, which
    matches a stable argmax over creation order.
    """
    if not clusters:
        return None
    best = max(clusters, key=len)
    return best[0]


class ClusterCleaner(OnlineCleaner):
    """Incremental MTCSC-C (Algorithm 4): the key point's repair anchors on
    the head of the window's largest cluster."""

    #: Stale-anchor reset: if no window point has been compatible with the
    #: carried anchor for more than one window, trust the current
    #: observation again instead of carrying the stale repair forward.  The
    #: paper's algorithms never re-anchor, which is sound under a correct
    #: constraint, so MTCSC-C keeps it off.  But a badly mis-set constraint
    #: (the MTCSC-A adaptation scenario) then diverges permanently once the
    #: true trajectory outruns ``s * w``: a transport-mode change can strand
    #: the anchor before the KL monitor has updated ``s``.  MTCSC-A exists
    #: precisely because the constraint can be mis-set, so it turns the
    #: reset on, trading the strict soundness guarantee for bounded
    #: staleness.
    RESETS_STALE_ANCHOR = False

    def __init__(self, s: SpeedConstraint):
        super().__init__(s)
        self._last_accept_t: float | None = None

    def decide(self, ts, xs, hi):
        s = self.s
        tp, xp, tk, xk = self._prev_t, self._prev_x, ts[0], xs[0]
        if self._last_accept_t is None:
            self._last_accept_t = tp  # the trusted first point
        # The list slices copy references only, not the window's points.
        head = largest_cluster_head(build_cluster(tp, xp, ts[1:hi], xs[1:hi], s))
        if head is not None:
            # Kept observations and cluster-anchored repairs are both
            # evidence-backed; only carry-forward emits leave the anchor
            # stale.
            self._last_accept_t = tk
            ti, xi = ts[1 + head], xs[1 + head]
            if satisfy(tp, xp, tk, xk, s) and within_speed(tk, xk, ti, xi, s):
                return xk, False
            return interpolate(tp, xp, ti, xi, tk), True
        # No compatible trend in the window: behave like MTCSC-L's fallback
        # — keep the point if compatible, else carry the previous repair
        # forward (or re-anchor on a stale carried repair, see above).
        if satisfy(tp, xp, tk, xk, s) or (
            self.RESETS_STALE_ANCHOR and tk - self._last_accept_t > s.window
        ):
            self._last_accept_t = tk
            return xk, False
        return xp.copy(), True


def mtcsc_c(
    t: np.ndarray, X: np.ndarray, s: SpeedConstraint
) -> tuple[np.ndarray, np.ndarray]:
    """Batch MTCSC-C.  Returns ``(X_repaired, changed_mask)``."""
    return run(ClusterCleaner(s), t, X)
