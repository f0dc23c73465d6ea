"""MTCSC-C — online cleaning via window clustering, Algorithms 3 and 4.

MTCSC-L anchors the repair on the *first* compatible successor, which a
lucky outlier can hijack.  MTCSC-C instead clusters the points of the
current window (BuildCluster, Algorithm 3) and anchors on the first
point of the **largest** cluster — the window's majority trend.  This
also repairs *small* errors: the key point is modified unless it is
compatible with both the previous repair and the majority representative
(Algorithm 4 line 10), even when it satisfies the speed constraint.

The pair checks between window points compare raw observations only, so
:meth:`ClusterCleaner.speculate` makes those of a run of keys once, in a
*lag band* (:func:`lag_band`): the check of each point against each of
its predecessors inside a window.  While a key's previous repair is its
raw predecessor ``x_{k-1}`` (that key was kept), its checks against the
previous repair are band entries too, so Algorithm 3 runs for all the
keys of the run at once, in lockstep (:func:`cluster_runs`): a successor
compatible with its raw predecessor joins that predecessor's cluster
with no scan, and only the first point compatible with the previous
repair and the successors incompatible with their predecessor scan back,
one per key per round.  The online loop skips the keys kept under this
speculation with no per-key Python.  The first key not kept takes its
speculated repair; from its successor the per-point rule
(:func:`cluster_scan`, against the actual previous repair) runs until a
key is kept again.  Distances cost O(wDn) and the scans O(w^2 n), the
paper's O(w^2 D n) bound (Section 3.3) with D moved out of the scans.
"""
from __future__ import annotations

import numpy as np

from .cluster import cluster_runs, cluster_scan, lag_band, largest_head, lines
from .online import OnlineCleaner, run
from .speed import SpeedConstraint, as_cleaner, interpolate, pair_checks, within_bound

#: Fewest keys decided under the speculation: on fewer, the per-point rule
#: costs less than a lockstep pass.  Fed a few rows at a time, the pass
#: breaks even at about 5 keys a call on GPS(Walk) (3% of keys repaired)
#: and at about 20 on GPS(Mixed) (65%; ``BENCH_17.json``,
#: ``speculate_crossover``).
SPECULATE = 8


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

    #: While the previous repair is carried forward, the time of the last
    #: key before the carry-forwards, from which the stale-anchor reset
    #: counts; else None.
    _carried_from: float | None = None

    def speculate(self, ts, xs, ends, a, lo, hi):
        width = max(int((ends[a:hi] - np.arange(a, hi)).max()), 2)
        band = ts, xs, ends, a, lag_band(ts, xs, a, ends[hi - 1], width, self.s.smax)
        kept = np.zeros(hi - lo, bool)  # on too few keys, all go per point
        spec = hi - lo >= SPECULATE
        if spec:
            satisfied, head, near, kept = self._speculate(band, lo, hi)

        def decide(k, raw):
            if raw and spec:  # the speculation holds for key k
                j = k - lo
                return self._repair(ts, xs, k, satisfied[j], head[j], near[j])
            return self._repair(ts, xs, k, *self._per_point(band, k))

        return kept, decide

    def _speculate(self, band, lo, hi):
        """Algorithm 4 for keys ``lo .. hi-1`` in lockstep, each as if its raw
        predecessor were its previous repair: per key ``satisfy(x_p, x_k)``,
        the offset of its largest cluster's head among its successors (-1
        if none), whether key and head are compatible, and whether the key
        is kept."""
        ts, xs, ends, k0, ok = band
        keys = np.arange(lo, hi, dtype=np.int32)
        cnt = ends[keys] - keys - 1
        kr = keys - k0  # the band row of each key
        W = ok.shape[1]
        # Successor i against x_{k-1}: entry (k + 1 + i, i + 1), a diagonal.
        P = lines(ok, (kr + 1) * W + 1, W + 1, max(int(cnt.max(initial=0)), 1))
        P &= np.arange(P.shape[1]) < cnt[:, None]
        satisfied = (ts[keys] - ts[keys - 1] > self.s.window) | ok[kr, 0]
        head = largest_head(cluster_runs(P, cnt, ok, kr + 1), cnt)
        h = np.maximum(head, 0)
        near = ok[np.minimum(kr + 1 + h, len(ok) - 1), h]
        return satisfied, head, near, satisfied & ((head < 0) | near)

    def _per_point(self, band, k):
        """The inputs of :meth:`_repair` for key ``k`` against the actual
        previous repair, as :meth:`_speculate` gives them."""
        ts, xs, ends, k0, ok = band
        end, row = ends[k], k - k0 + 1  # the band row of its first successor
        # The key and its successors against the previous repair at once.
        d, dt = pair_checks(self._prev_t, self._prev_x, ts[k:end], xs[k:end])
        prev_ok = within_bound(d, dt, self.s.smax)
        satisfied = dt[0] > self.s.window or prev_ok[0]  # satisfy(x_p, x_k)
        if not prev_ok[1:].any():
            return satisfied, -1, False
        head = cluster_scan(prev_ok[1:].tolist(), ok[row : row + end - k - 1].tolist())
        return satisfied, head, ok[row + head, head]

    def _repair(self, ts, xs, k, satisfied, head, near):
        """Algorithm 4 for key ``k``: ``None`` when it is kept, else its
        repair.  ``head`` is the offset of its largest cluster's head among
        its successors (-1 if none), ``near`` whether key and head are
        compatible."""
        tp, xp, tk = self._prev_t, self._prev_x, ts[k]
        if head >= 0:
            # Kept observations and cluster-anchored repairs are both
            # evidence-backed; only carry-forward emits leave the anchor
            # stale.
            self._carried_from = None
            if satisfied and near:
                return None
            i = k + 1 + head
            return interpolate(tp, xp, ts[i], xs[i], tk)
        # No compatible trend in the window: behave like MTCSC-L's fallback
        # — keep the point if compatible, else carry the previous repair
        # forward (or re-anchor on a stale carried repair, see above).
        since = tp if self._carried_from is None else self._carried_from
        if satisfied or (self.RESETS_STALE_ANCHOR and tk - since > self.s.window):
            self._carried_from = None
            return None
        self._carried_from = since
        return xp


@as_cleaner
def mtcsc_c(t: np.ndarray, X: np.ndarray, s: SpeedConstraint) -> np.ndarray:
    """Batch MTCSC-C.

    Returns ``(X_repaired, changed_mask)`` (see :func:`as_cleaner`).
    """
    return run(ClusterCleaner(s), t, X)
