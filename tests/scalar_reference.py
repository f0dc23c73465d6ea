"""Scalar reference for MTCSC-L, MTCSC-C, MTCSC-A and MTCSC-Uni.

The online cleaners as they were before their checks were batched: a
list window buffer searched with ``bisect`` and one key point decided at
a time, every pair check (MTCSC-L's of each key point against the
previous repair and its successors, Algorithm 3's between window points)
made one scalar distance at a time for every key point, and MTCSC-A's
speed monitor re-bucketing all 2m speeds for every new one.  Tests hold
the cleaners in ``repro.core`` to these bit for bit.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import deque

import numpy as np

from repro.core.mtcsc_a import bucketize, kl_divergence
from repro.core.speed import SpeedConstraint, as_cleaner, interpolate, within_bound


def within_speed(ti, xi, tj, xj, s: SpeedConstraint) -> bool:
    d = float(np.sqrt(np.sum((np.asarray(xi, float) - np.asarray(xj, float)) ** 2)))
    return within_bound(d, abs(float(tj) - float(ti)), s.smax)


def satisfy(ti, xi, tj, xj, s: SpeedConstraint) -> bool:
    return abs(float(tj) - float(ti)) > s.window or within_speed(ti, xi, tj, xj, s)


def largest_cluster_head(clusters: list[list[int]]) -> int | None:
    """Index (into the window) of the first point of the largest cluster;
    ties break towards the earliest-created (oldest-head) cluster."""
    if not clusters:
        return None
    return max(clusters, key=len)[0]


def build_cluster(tp, xp, tw, Xw, s: SpeedConstraint) -> list[list[int]]:
    """Algorithm 3 with one scalar pair check at a time."""
    m = len(tw)
    clusters: dict[int, list[int]] = {}
    head: list[int | None] = [None] * m
    ell = next((i for i in range(m) if within_speed(tp, xp, tw[i], Xw[i], s)), None)
    if ell is None:
        return []
    head[ell] = ell
    clusters[ell] = [ell]
    for i in range(ell + 1, m):
        for j in range(i - 1, ell - 1, -1):
            if within_speed(tw[j], Xw[j], tw[i], Xw[i], s):
                if head[j] is not None:
                    head[i] = head[j]
                    clusters[head[j]].append(i)
                break
            if j == ell or head[j] not in (None, j):
                if within_speed(tp, xp, tw[i], Xw[i], s):
                    head[i] = i
                    clusters[i] = [i]
                break
    return list(clusters.values())


class AdaptiveSpeed:
    """Algorithm 5, bucketing both halves afresh for every speed."""

    def __init__(self, s0, *, b=6, tau=0.75, m=150, beta=0.75):
        self.s = float(s0)
        self.b, self.tau, self.m, self.beta = b, tau, m, beta
        self.window: deque[float] = deque(maxlen=2 * m)
        self.n_updates = 0

    def observe(self, speed: float) -> float:
        if len(self.window) == self.window.maxlen:
            w = np.array(self.window)
            w1, w2 = w[: self.m], w[self.m :]
            if kl_divergence(
                bucketize(w1, self.b, self.s), bucketize(w2, self.b, self.s)
            ) > self.tau:
                s_new = float(np.quantile(w2, 0.95)) / self.beta
                if s_new > 0:  # speeds of a series at rest bound nothing
                    self.s = s_new
                    self.n_updates += 1
        self.window.append(float(speed))
        return self.s


class OnlineCleaner:
    """One key point at a time over a list buffer; ``decide`` as in
    :meth:`repro.core.online.OnlineCleaner.decide`."""

    def __init__(self, s: SpeedConstraint):
        self.s = s
        self._tbuf: list[float] = []
        self._xbuf: list[np.ndarray] = []
        self._prev_t = self._prev_x = None
        self._out: list[tuple[float, np.ndarray]] = []
        self._d = 0  # dimensions of the points pushed

    def _emit_first_buffered(self):
        ts, xs = self._tbuf, self._xbuf
        if self._prev_x is None:
            xr = xs[0]
        else:
            xr = self.decide(ts, xs, bisect_right(ts, ts[0] + self.s.window))
        tk = ts.pop(0)
        xs.pop(0)
        self._out.append((tk, xr))
        self._prev_t, self._prev_x = tk, xr

    def push(self, t, x):
        self._tbuf.append(float(t))
        self._xbuf.append(np.asarray(x, float))
        self._d = len(self._xbuf[-1])
        while self._tbuf and t > self._tbuf[0] + self.s.window:
            self._emit_first_buffered()

    def feed(self, t, X) -> tuple[np.ndarray, np.ndarray]:
        """Push a block; return the points ``(t, Xr)`` it completed."""
        k = len(self._out)
        for i in range(len(t)):
            self.push(t[i], X[i])
        return self._since(k)

    def flush(self) -> tuple[np.ndarray, np.ndarray]:
        """End of stream: return every point left, as ``(t, Xr)``."""
        k = len(self._out)
        while self._tbuf:
            self._emit_first_buffered()
        return self._since(k)

    def _since(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        t = np.array([tk for tk, _ in self._out[k:]], float)
        return t, np.array([x for _, x in self._out[k:]], float).reshape(len(t), self._d)

    def run(self, t, X) -> np.ndarray:
        return np.concatenate((self.feed(t, X)[1], self.flush()[1]))


class LocalCleaner(OnlineCleaner):
    """MTCSC-L (Algorithm 2), every key point by the per-point rule."""

    def decide(self, ts, xs, hi):
        s = self.s
        tp, xp, tk, xk = self._prev_t, self._prev_x, ts[0], xs[0]
        if satisfy(tp, xp, tk, xk, s):
            return xk
        for i in range(1, hi):
            if within_speed(tp, xp, ts[i], xs[i], s):
                return interpolate(tp, xp, ts[i], xs[i], tk)
        return xp.copy()


class ClusterCleaner(OnlineCleaner):
    """MTCSC-C (Algorithm 4) over a list buffer."""

    RESETS_STALE_ANCHOR = False

    def __init__(self, s: SpeedConstraint):
        super().__init__(s)
        self._last_accept_t = None
        self.n_resets = 0  # stale-anchor resets (for tests)

    def decide(self, ts, xs, hi):
        s = self.s
        tp, xp, tk, xk = self._prev_t, self._prev_x, ts[0], xs[0]
        if self._last_accept_t is None:
            self._last_accept_t = tp
        head = largest_cluster_head(build_cluster(tp, xp, ts[1:hi], xs[1:hi], s))
        if head is not None:
            self._last_accept_t = tk
            ti, xi = ts[1 + head], xs[1 + head]
            if satisfy(tp, xp, tk, xk, s) and within_speed(tk, xk, ti, xi, s):
                return xk
            return interpolate(tp, xp, ti, xi, tk)
        satisfied = satisfy(tp, xp, tk, xk, s)
        if satisfied or (self.RESETS_STALE_ANCHOR and tk - self._last_accept_t > s.window):
            self.n_resets += not satisfied
            self._last_accept_t = tk
            return xk
        return xp.copy()


class AdaptiveCleaner(ClusterCleaner):
    """MTCSC-A: MTCSC-C under the speed monitor of :class:`AdaptiveSpeed`."""

    RESETS_STALE_ANCHOR = True

    def __init__(self, s: SpeedConstraint, **kw):
        super().__init__(s)
        self.adaptive = AdaptiveSpeed(s.smax, **kw)
        self._last_raw_t = self._last_raw_x = None

    def decide(self, ts, xs, hi):
        tk, xk = ts[0], xs[0]
        if self._last_raw_t is not None:
            d = float(np.sqrt(np.sum((xk - self._last_raw_x) ** 2)))
            s_new = self.adaptive.observe(d / (tk - self._last_raw_t))
            if s_new != self.s.smax:
                self.s = SpeedConstraint(s_new, self.s.window)
        self._last_raw_t, self._last_raw_x = tk, xk
        return super().decide(ts, xs, hi)


@as_cleaner
def mtcsc_l(t, X, s):
    return LocalCleaner(s).run(t, X)


@as_cleaner
def mtcsc_c(t, X, s):
    return ClusterCleaner(s).run(t, X)


@as_cleaner
def mtcsc_a(t, X, s, **kw):
    return AdaptiveCleaner(s, **kw).run(t, X)


@as_cleaner
def mtcsc_uni(t, X, s):
    return np.column_stack([ClusterCleaner(s).run(t, x[:, None]) for x in X.T])
