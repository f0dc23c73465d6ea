"""MTCSC-C — online cleaning via window clustering, Algorithms 3 and 4.

MTCSC-L anchors the repair on the *first* compatible successor, which a
lucky outlier can hijack.  MTCSC-C instead clusters the points of the
current window (BuildCluster, Algorithm 3) and anchors on the first
point of the **largest** cluster — the window's majority trend.  This
also repairs *small* errors: the key point is modified unless it is
compatible with both the previous repair and the majority representative
(Algorithm 4 line 10), even when it satisfies the speed constraint.

The pair checks between window points compare raw observations only, so
a feed makes them once, in a *lag band* (:func:`lag_band`): the check of
each point against each of its predecessors inside a window.  While a
key's previous repair is its raw predecessor ``x_{k-1}`` (that key was
kept), its checks against the previous repair are band entries too, so
Algorithm 3 runs for all the keys of a block at once, in lockstep
(:func:`cluster_runs`): a successor compatible with its raw predecessor
joins that predecessor's cluster with no scan, and only the first point
compatible with the previous repair and the successors incompatible with
their predecessor scan back, one per key per round.  A run of keys kept
under this speculation costs no per-key Python.  The first key not kept
takes its speculated repair; from its successor the per-point rule
(:func:`cluster_scan`, against the actual previous repair) runs until a
key is kept again.  Keys go in blocks of :data:`BLOCK`, so the scratch
arrays are constant in the feed length.  Distances cost O(wDn) and the
scans O(w^2 n), the paper's O(w^2 D n) bound (Section 3.3) with D moved
out of the scans.
"""
from __future__ import annotations

import numpy as np

from .cluster import cluster_runs, cluster_scan, lag_band, largest_head, lines
from .online import OnlineCleaner, run
from .speed import SpeedConstraint, as_cleaner, interpolate, pair_checks, within_bound

#: Keys decided per block: the scratch arrays of a block take
#: O(BLOCK * w) space, whatever the feed length.
BLOCK = 512
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

    def __init__(self, s: SpeedConstraint):
        super().__init__(s)
        self._last_accept_t: float | None = None

    def moves(self, ts: np.ndarray, xs: np.ndarray, m: int) -> dict[int, float]:
        """The keys among the first ``m`` at which the constraint moves,
        each with its new ``smax``: none for MTCSC-C."""
        return {}

    def emit(self, ts, xs, m):
        Xr = xs[:m].copy()  # every kept point is its raw value
        if not m:
            return Xr
        w = self.s.window
        moves = self.moves(ts, xs, m)
        at = np.array(sorted(moves), int)
        ends = ts.searchsorted(ts[:m] + w, side="right")
        # raw: the last key decided was kept, so its raw value is the next
        # key's previous repair.  The stream's first point is kept.
        raw = self._prev_x is None
        if raw:
            self._prev_t, self._prev_x = float(ts[0]), xs[0]
            self._last_accept_t = self._prev_t
        k = int(raw)  # the next key to decide
        for k0 in range(0, m, BLOCK):
            k1 = min(k0 + BLOCK, m)
            # Keys under one constraint (MTCSC-A moves it) share a lag band.
            cuts = [k0, *at[(at > k0) & (at < k1)].tolist(), k1]
            for a, b in zip(cuts, cuts[1:]):
                if a in moves:
                    self.s = SpeedConstraint(moves[a], w)
                width = max(int((ends[a:b] - np.arange(a, b)).max()), 2)
                ok = lag_band(ts, xs, a, ends[b - 1], width, self.s.smax)
                k, raw = self._walk((ts, xs, ends, a, ok), Xr, max(k, a), b, raw)
        return Xr

    def _walk(self, band, Xr, lo, hi, raw):
        """Decide keys ``lo .. hi-1`` into ``Xr``, given whether key ``lo - 1``
        was kept (``raw``); return ``hi`` and whether key ``hi - 1`` was kept,
        and leave the previous repair at key ``hi - 1``'s.

        ``band`` is ``(ts, xs, ends, k0, ok)``: the window, the end of each
        key's successors and the lag band of points ``k0`` on
        (:func:`lag_band`).
        """
        ts, xs = band[:2]
        first = lo + (not raw)  # key lo's previous repair is not raw
        spec = hi - first >= SPECULATE
        if spec:
            satisfied, head, near, kept = self._speculate(band, first, hi)
            fails = first + np.flatnonzero(~kept)  # keys the speculation repairs
        k = lo
        while k < hi:
            if raw and spec:
                # Keys up to the next failure are kept; that one takes its
                # speculated repair, whose previous repair is x_{k-1}.
                i = int(fails.searchsorted(k))
                k = int(fails[i]) if i < len(fails) else hi
                self._prev_t, self._prev_x = float(ts[k - 1]), xs[k - 1]
                self._last_accept_t = self._prev_t
                if k == hi:
                    break
                j = k - first
                xr = self._repair(ts, xs, k, satisfied[j], head[j], near[j])
            else:  # the per-point rule, until a key is kept
                xr = self._repair(ts, xs, k, *self._per_point(band, k))
            raw = xr is None
            if not raw:
                Xr[k] = xr
            self._prev_t, self._prev_x = float(ts[k]), xs[k] if raw else xr
            k += 1
        return hi, raw

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
            self._last_accept_t = tk
            if satisfied and near:
                return None
            i = k + 1 + head
            return interpolate(tp, xp, ts[i], xs[i], tk)
        # No compatible trend in the window: behave like MTCSC-L's fallback
        # — keep the point if compatible, else carry the previous repair
        # forward (or re-anchor on a stale carried repair, see above).
        if satisfied or (
            self.RESETS_STALE_ANCHOR and tk - self._last_accept_t > self.s.window
        ):
            self._last_accept_t = tk
            return None
        return xp


@as_cleaner
def mtcsc_c(t: np.ndarray, X: np.ndarray, s: SpeedConstraint) -> np.ndarray:
    """Batch MTCSC-C.

    Returns ``(X_repaired, changed_mask)`` (see :func:`as_cleaner`).
    """
    return run(ClusterCleaner(s), t, X)
