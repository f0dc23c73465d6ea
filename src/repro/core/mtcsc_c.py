"""MTCSC-C — online cleaning via window clustering, Algorithms 3 and 4.

MTCSC-L anchors the repair on the *first* compatible successor, which a
lucky outlier can hijack.  MTCSC-C instead clusters the points of the
current window (BuildCluster, Algorithm 3) and anchors on the first
point of the **largest** cluster — the window's majority trend.  This
also repairs *small* errors: the key point is modified unless it is
compatible with both the previous repair and the majority representative
(Algorithm 4 line 10), even when it satisfies the speed constraint.

Each pair check between window points involves raw observations only,
so it is made once, when the later point arrives: its *band row*, one
vectorised distance to every buffered point.  A key point then adds one
vectorised check of its window against the previous repair and a scan of
the stored booleans.  Distances cost O(wDn), the cluster scans O(w^2 n)
(the paper's O(w^2 D n) bound, Section 3.3, with D moved out of the
inner loop); the band is O(w^2) state, constant in n.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .online import OnlineCleaner, run
from .speed import SpeedConstraint, as_cleaner, interpolate, pair_checks, within_bound


def cluster_scan(prev_ok: list[bool], band: Sequence[list[bool]]) -> list[list[int]]:
    """Algorithm 3's clustering over precomputed pair checks.

    ``prev_ok[i]`` tells whether window point ``i`` is compatible with the
    previous repaired point; ``band[i][l]`` whether it is compatible with
    window point ``i - 1 - l`` (its band row, newest earlier point first).
    Returns clusters as lists of window indices, in order of creation.

    ``head[i]`` is the index of the cluster head point ``i`` belongs to
    (``i`` itself for a head), or ``None`` for an omitted (dirty) point.
    """
    if True not in prev_ok:
        return []
    # Start from the first point compatible with the previous repaired point.
    ell = prev_ok.index(True)
    head: list[int | None] = [None] * len(prev_ok)
    head[ell] = ell
    clusters = {ell: [ell]}
    for i in range(ell + 1, len(prev_ok)):
        row = band[i]
        j = i - 1
        while True:
            if row[i - 1 - j]:
                # Join j's cluster; a point compatible with an omitted
                # point is itself omitted.
                if head[j] is not None:
                    head[i] = head[j]
                    clusters[head[j]].append(i)
                break
            if j == ell or head[j] not in (None, j):
                # Action 2: start a new cluster iff compatible with the
                # previous repaired point; otherwise omit (Action 4).
                if prev_ok[i]:
                    head[i] = i
                    clusters[i] = [i]
                break
            # Action 3 (j is an unsatisfied head or omitted): keep
            # scanning towards older points.
            j -= 1
    return list(clusters.values())


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
    lists of indices into ``tw`` (order of creation), from the pair checks
    of :func:`pair_checks` and the scan of :func:`cluster_scan`.
    """
    tw = np.asarray(tw, float)
    Xw = np.asarray(Xw, float)
    prev_ok = within_bound(*pair_checks(tp, np.asarray(xp, float), tw, Xw), s.smax)
    band = [
        within_bound(*pair_checks(tw[i], Xw[i], tw[:i][::-1], Xw[:i][::-1]), s.smax)
        for i in range(len(tw))
    ]
    return cluster_scan(prev_ok.tolist(), [row.tolist() for row in band])


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
        # One band row per window point, oldest first: its pair checks
        # against the window points before it, newest first, as
        # ``[ok, d, dt]`` with ``ok`` thresholded at ``_band_smax``.
        self._band: list[list] = []
        self._band_smax = s.smax

    def admit(self, ts, xs):
        d, dt = pair_checks(ts[-1], xs[-1], ts[:-1][::-1], xs[:-1][::-1])
        self._band.append([within_bound(d, dt, self.s.smax).tolist(), d, dt])

    def decide(self, ts, xs, hi):
        s, band = self.s, self._band
        del band[: len(band) - len(ts)]  # rows of points already emitted
        if s.smax != self._band_smax:  # MTCSC-A moved the constraint
            for row in band:
                row[0] = within_bound(row[1], row[2], s.smax).tolist()
            self._band_smax = s.smax
        tp, xp, tk, xk = self._prev_t, self._prev_x, ts[0], xs[0]
        if self._last_accept_t is None:
            self._last_accept_t = tp  # the trusted first point
        # The key point and its window against the previous repair at once.
        prev_ok = within_bound(*pair_checks(tp, xp, ts[:hi], xs[:hi]), s.smax).tolist()
        satisfied = tk - tp > s.window or prev_ok[0]  # satisfy(x_p, x_k)
        head = largest_cluster_head(
            cluster_scan(prev_ok[1:], [row[0] for row in band[1:hi]])
        )
        if head is not None:
            # Kept observations and cluster-anchored repairs are both
            # evidence-backed; only carry-forward emits leave the anchor
            # stale.
            self._last_accept_t = tk
            i = 1 + head
            if satisfied and band[i][0][i - 1]:  # and within_speed(x_k, x_i)
                return xk
            return interpolate(tp, xp, ts[i], xs[i], tk)
        # No compatible trend in the window: behave like MTCSC-L's fallback
        # — keep the point if compatible, else carry the previous repair
        # forward (or re-anchor on a stale carried repair, see above).
        if satisfied or (
            self.RESETS_STALE_ANCHOR and tk - self._last_accept_t > s.window
        ):
            self._last_accept_t = tk
            return xk
        return xp


@as_cleaner
def mtcsc_c(t: np.ndarray, X: np.ndarray, s: SpeedConstraint) -> np.ndarray:
    """Batch MTCSC-C.

    Returns ``(X_repaired, changed_mask)`` (see :func:`as_cleaner`).
    """
    return run(ClusterCleaner(s), t, X)
