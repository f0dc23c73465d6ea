"""MTCSC-A — adaptive speed constraint capture, Algorithm 5 + Section 4.

MTCSC-C with the speed constraint re-estimated online: observed speeds
between consecutive arrivals fill two adjacent sliding windows ``W1``
and ``W2`` (``m`` speeds each).  Speeds are bucketed into ``b`` equal
intervals over ``[0, s]`` plus an overflow bucket ``(s, inf)``; once the
KL divergence ``KL(W1 || W2)`` exceeds the threshold ``tau``, the series'
character has changed and the constraint becomes
``s' = quantile95(W2) / beta`` (Example 4.1).

The hyper-parameters are the module constants :data:`B`, :data:`TAU`,
:data:`M` and :data:`BETA`, at the paper's settings (Section 5.4.3).
"""
from __future__ import annotations

from collections import deque

import numpy as np

from .mtcsc_c import ClusterCleaner
from .online import run
from .speed import SpeedConstraint, as_cleaner, distances

#: Buckets of the speed histogram: b-1 equal bins on [0, s] plus overflow.
B = 6
#: KL divergence KL(W1 || W2) above which the constraint is re-estimated.
TAU = 0.75
#: Speeds in each of the two monitor windows W1 and W2.
M = 150
#: The new constraint is quantile95(W2) / BETA.
BETA = 0.75


def bucket_edges(b: int, s: float) -> np.ndarray:
    """Upper edges of the b-1 equal bins on [0, s]; above the last is overflow.

    ``np.searchsorted(edges, speed)`` is the bucket of ``speed``.
    """
    if b < 2:
        raise ValueError("need at least 2 buckets")
    return np.linspace(0.0, s, b)[1:]


def bucketize(speeds: np.ndarray, b: int, s: float) -> np.ndarray:
    """Histogram counts over b buckets: b-1 equal bins on [0, s] + (s, inf).

    Matches Example 4.1: s=2.2, b=6 gives bin edges 0, .44, .88, 1.32,
    1.76, 2.2, inf (5 equal bins of width s/(b-1) plus the overflow).
    """
    counts = np.bincount(np.searchsorted(bucket_edges(b, s), speeds), minlength=b)
    return counts.astype(float)


def kl_divergence(p_counts: np.ndarray, q_counts: np.ndarray) -> float:
    """KL(P || Q) with natural log; terms with p=0 contribute 0.

    Buckets where p>0 but q=0 are smoothed with a tiny epsilon so the
    divergence is large-but-finite (the comparison against tau is all
    that matters).
    """
    p = np.asarray(p_counts, float)
    q = np.asarray(q_counts, float)
    p = p / p.sum() if p.sum() else p
    q = q / q.sum() if q.sum() else q
    mask = p > 0
    q_safe = np.where(q > 0, q, 1e-12)
    return float(np.sum(p[mask] * np.log(p[mask] / q_safe[mask])))


class AdaptiveSpeed:
    """Stateful Algorithm 5: feed consecutive speeds, get the current s.

    The bucket counts of W1 and W2 are kept up to date as the window
    slides; all 2m speeds are bucketed afresh only when ``s`` changes.
    Counts are integers, so they equal :func:`bucketize` of each half.
    """

    def __init__(self, s0: float):
        self.s = float(s0)
        # Read once: the deques below are sized by M.
        self.b, self.tau, self.m, self.beta = B, TAU, M, BETA
        # W1 is the older half of the window, W2 the newer half.
        self.window: deque[float] = deque(maxlen=2 * M)
        self._edges = bucket_edges(B, self.s)
        self._buckets: deque[int] = deque(maxlen=2 * M)  # of each speed at s
        self._counts = [[0] * B, [0] * B]  # W1's and W2's
        self._kl: float | None = None  # KL(W1 || W2) of the counts, if known
        self.n_updates = 0  # number of constraint changes (for tests/metrics)

    def observe(self, speed: float) -> float:
        """Push one observed speed, return the (possibly updated) constraint."""
        m, n = self.m, len(self.window)
        if n == 2 * m:
            if self._kl is None:
                self._kl = kl_divergence(*self._counts)
            if self._kl > self.tau:
                w = np.array(self.window)
                s = float(np.quantile(w[m:], 0.95)) / self.beta
                if s > 0:  # the speeds of a series at rest bound nothing
                    self.s = s
                    self.n_updates += 1
                    self._edges = bucket_edges(self.b, self.s)
                    idx = np.searchsorted(self._edges, w)
                    self._buckets.extend(idx.tolist())
                    self._counts = [np.bincount(h, minlength=self.b).tolist()
                                    for h in (idx[:m], idx[m:])]
                    self._kl = None
        k = int(np.searchsorted(self._edges, speed))
        c1, c2 = self._counts
        if n < 2 * m:
            (c1 if n < m else c2)[k] += 1
            self._kl = None
        elif not self._buckets[0] == self._buckets[m] == k:
            # Appending slides both halves: W1's oldest speed leaves and
            # W2's oldest moves into W1.
            c1[self._buckets[0]] -= 1
            c2[self._buckets[m]] -= 1
            c1[self._buckets[m]] += 1
            c2[k] += 1
            self._kl = None
        self.window.append(float(speed))
        self._buckets.append(k)
        return self.s


class AdaptiveCleaner(ClusterCleaner):
    """MTCSC-C with Algorithm 5 run before each key-point decision."""

    # MTCSC-A resets a carried anchor after one window of staleness; see
    # ClusterCleaner.RESETS_STALE_ANCHOR.
    RESETS_STALE_ANCHOR = True

    def __init__(self, s: SpeedConstraint):
        super().__init__(s)
        self._adaptive = AdaptiveSpeed(s.smax)
        self._last_raw_t: float | None = None
        self._last_raw_x: np.ndarray | None = None

    def moves(self, ts, xs, m):
        # "AdaptiveSpeed(x_{k-1}, x_k, ...)": the monitored speed is the
        # one between consecutive *observations*.  Using the previous
        # repaired point instead would poison the distribution whenever a
        # too-small constraint makes repairs lag the data (carry-forward
        # during a transport-mode change), inflating s far past the new
        # mode's real bound.  So the constraint of every key follows from
        # the raw data alone.  The stream's first point is not decided,
        # and the first decided key has no speed yet.
        moves, smax = {}, self.s.smax
        lo = int(self._prev_x is None)
        if m > lo:
            tr, xr = ts[lo:m], xs[lo:m]
            if self._last_raw_t is not None:
                tr = np.concatenate(([self._last_raw_t], tr))
                xr = np.concatenate((self._last_raw_x[None], xr))
            v = distances(xr[1:], xr[:-1]) / (tr[1:] - tr[:-1])
            for k, speed in enumerate(v.tolist(), m - len(v)):
                if self._adaptive.observe(speed) != smax:
                    moves[k] = smax = self._adaptive.s
            self._last_raw_t, self._last_raw_x = ts[m - 1], xs[m - 1]
        return moves

    @property
    def n_speed_updates(self) -> int:
        return self._adaptive.n_updates

    @property
    def current_speed(self) -> float:
        return self._adaptive.s


@as_cleaner
def mtcsc_a(t: np.ndarray, X: np.ndarray, s: SpeedConstraint) -> np.ndarray:
    """Batch MTCSC-A.

    Returns ``(X_repaired, changed_mask)`` (see :func:`as_cleaner`).
    """
    return run(AdaptiveCleaner(s), t, X)
