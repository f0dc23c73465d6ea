"""MTCSC-A — adaptive speed constraint capture, Algorithm 5 + Section 4.

MTCSC-C with the speed constraint re-estimated online: observed speeds
between consecutive arrivals fill two adjacent sliding windows ``W1``
and ``W2`` (``m`` speeds each).  Speeds are bucketed into ``b`` equal
intervals over ``[0, s]`` plus an overflow bucket ``(s, inf)``; once the
KL divergence ``KL(W1 || W2)`` exceeds the threshold ``tau``, the series'
character has changed and the constraint becomes
``s' = quantile95(W2) / beta`` (Example 4.1).

Hyper-parameters (paper defaults, Section 5.4.3): b=6, tau=0.75, m=150,
beta=0.75.
"""
from __future__ import annotations

from collections import deque

import numpy as np

from .mtcsc_c import ClusterCleaner
from .online import run
from .speed import SpeedConstraint, distance


def bucketize(speeds: np.ndarray, b: int, s: float) -> np.ndarray:
    """Histogram counts over b buckets: b-1 equal bins on [0, s] + (s, inf).

    Matches Example 4.1: s=2.2, b=6 gives bin edges 0, .44, .88, 1.32,
    1.76, 2.2, inf (5 equal bins of width s/(b-1) plus the overflow).
    """
    if b < 2:
        raise ValueError("need at least 2 buckets")
    edges = np.linspace(0.0, s, b)  # b-1 interior bins
    idx = np.clip(np.searchsorted(edges[1:], speeds, side="left"), 0, b - 1)
    counts = np.bincount(idx, minlength=b)
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
    """Stateful Algorithm 5: feed consecutive speeds, get the current s."""

    def __init__(
        self,
        s0: float,
        *,
        b: int = 6,
        tau: float = 0.75,
        m: int = 150,
        beta: float = 0.75,
    ):
        self.s = float(s0)
        self.b, self.tau, self.m, self.beta = b, tau, m, beta
        # W1 is the older half of the window, W2 the newer half.
        self.window: deque[float] = deque(maxlen=2 * m)
        self.n_updates = 0  # number of constraint changes (for tests/metrics)

    def observe(self, speed: float) -> float:
        """Push one observed speed, return the (possibly updated) constraint."""
        if len(self.window) == self.window.maxlen:
            w = np.array(self.window)
            w1, w2 = w[: self.m], w[self.m :]
            if kl_divergence(
                bucketize(w1, self.b, self.s), bucketize(w2, self.b, self.s)
            ) > self.tau:
                self.s = float(np.quantile(w2, 0.95)) / self.beta
                self.n_updates += 1
        # Once full, appending slides both halves: W1's oldest speed leaves
        # and W2's oldest moves into W1.
        self.window.append(float(speed))
        return self.s


class AdaptiveCleaner(ClusterCleaner):
    """MTCSC-C with Algorithm 5 run before each key-point decision."""

    # MTCSC-A resets a carried anchor after one window of staleness; see
    # ClusterCleaner.RESETS_STALE_ANCHOR.
    RESETS_STALE_ANCHOR = True

    def __init__(
        self,
        s: SpeedConstraint,
        *,
        b: int = 6,
        tau: float = 0.75,
        m: int = 150,
        beta: float = 0.75,
    ):
        super().__init__(s)
        self._adaptive = AdaptiveSpeed(s.smax, b=b, tau=tau, m=m, beta=beta)
        self._last_raw_t: float | None = None
        self._last_raw_x: np.ndarray | None = None

    def decide(self, ts, xs, hi):
        # "AdaptiveSpeed(x_{k-1}, x_k, ...)": the monitored speed is the
        # one between consecutive *observations*.  Using the previous
        # repaired point instead would poison the distribution whenever a
        # too-small constraint makes repairs lag the data (carry-forward
        # during a transport-mode change), inflating s far past the new
        # mode's real bound.
        tk, xk = ts[0], xs[0]
        if self._last_raw_t is not None:
            s_new = self._adaptive.observe(
                distance(xk, self._last_raw_x) / (tk - self._last_raw_t)
            )
            if s_new != self.s.smax:
                self.s = SpeedConstraint(s_new, self.s.window)
        self._last_raw_t, self._last_raw_x = tk, xk
        return super().decide(ts, xs, hi)

    @property
    def n_speed_updates(self) -> int:
        return self._adaptive.n_updates

    @property
    def current_speed(self) -> float:
        return self._adaptive.s


def mtcsc_a(
    t: np.ndarray,
    X: np.ndarray,
    s: SpeedConstraint,
    *,
    b: int = 6,
    tau: float = 0.75,
    m: int = 150,
    beta: float = 0.75,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch MTCSC-A.  Returns ``(X_repaired, changed_mask)``."""
    return run(AdaptiveCleaner(s, b=b, tau=tau, m=m, beta=beta), t, X)
