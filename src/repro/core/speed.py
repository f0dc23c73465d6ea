"""Speed-constraint primitives shared by every MTCSC algorithm.

The paper (Definition 2.3) constrains the Euclidean distance over *all*
dimensions together: a series satisfies ``s`` with window ``w`` iff for
every pair ``0 < t_j - t_i <= w`` it holds that
``d(x_i, x_j) / (t_j - t_i) <= s``.  Pairs further apart than ``w`` are
unconstrained.  ``s_min = 0`` throughout (Section 2.1).

All kernels operate on plain numpy arrays ``t`` (shape ``(n,)``, strictly
increasing) and ``X`` (shape ``(n, D)``) so they are testable without
Spark and directly usable inside ``applyInPandas`` workers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Relative tolerance used when comparing a speed against the constraint,
#: so that repairs placed exactly on the constraint boundary (which the
#: interpolation formula (6) produces) are accepted despite float error.
EPS = 1e-9


@dataclass(frozen=True)
class SpeedConstraint:
    """A speed constraint ``s = (0, smax)`` with time window ``w``.

    ``smax`` bounds the Euclidean speed between any two points whose
    timestamps differ by at most ``window`` time units.
    """

    smax: float
    window: float

    def __post_init__(self) -> None:
        if self.smax <= 0:
            raise ValueError(f"smax must be positive, got {self.smax}")
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")


def distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two points (Definition 2.2)."""
    return float(np.sqrt(np.sum((np.asarray(a, float) - np.asarray(b, float)) ** 2)))


def satisfy(
    ti: float, xi: np.ndarray, tj: float, xj: np.ndarray, s: SpeedConstraint
) -> bool:
    """``satisfy(x_i, x_j)`` from Table 1: the pair is compatible w.r.t. ``s``.

    Pairs with time gap larger than the window are unconstrained and
    therefore compatible.  ``ti``/``tj`` may come in either order.
    """
    dt = abs(float(tj) - float(ti))
    if dt == 0:
        # Same timestamp: compatible only if identical (distance 0).
        return distance(xi, xj) == 0.0
    if dt > s.window:
        return True
    return distance(xi, xj) <= s.smax * dt * (1.0 + EPS) + EPS


def within_speed(
    ti: float, xi: np.ndarray, tj: float, xj: np.ndarray, s: SpeedConstraint
) -> bool:
    """Bounded speed check ``d <= smax * dt`` with *no* window exemption.

    Used when selecting interpolation anchors: Prop. 3.2's soundness
    argument needs the anchor to genuinely lie within the speed cone of
    the previous repaired point, so a pair that is merely "outside the
    window" (and thus unconstrained for violation detection) must not be
    accepted here.
    """
    dt = abs(float(tj) - float(ti))
    if dt == 0:
        return distance(xi, xj) == 0.0
    return distance(xi, xj) <= s.smax * dt * (1.0 + EPS) + EPS


def series_satisfies(t: np.ndarray, X: np.ndarray, s: SpeedConstraint) -> bool:
    """Check ``x |= s``: every in-window pair satisfies the constraint.

    By the triangle-inequality argument of Prop. 3.1 it is *not* enough to
    check consecutive pairs of the raw series (a pair may violate even when
    all consecutive pairs hold), so this checks all pairs within ``w``.
    Used by tests to assert soundness of repairs.
    """
    t = np.asarray(t, float)
    X = np.asarray(X, float)
    n = len(t)
    for i in range(n):
        # Only pairs within the window need checking.
        hi = np.searchsorted(t, t[i] + s.window, side="right")
        for j in range(i + 1, hi):
            if not satisfy(t[i], X[i], t[j], X[j], s):
                return False
    return True


def violations(t: np.ndarray, X: np.ndarray, s: SpeedConstraint) -> list[tuple[int, int]]:
    """All in-window pairs ``(i, j)`` violating the constraint (for tests)."""
    t = np.asarray(t, float)
    X = np.asarray(X, float)
    out: list[tuple[int, int]] = []
    for i in range(len(t)):
        hi = np.searchsorted(t, t[i] + s.window, side="right")
        for j in range(i + 1, hi):
            if not satisfy(t[i], X[i], t[j], X[j], s):
                out.append((i, j))
    return out


def interpolate(
    tp: float, xp: np.ndarray, tm: float, xm: np.ndarray, tk: float
) -> np.ndarray:
    """Formula (6): linear interpolation between anchor ``p`` and ``m`` at ``t_k``.

    ``alpha = (t_k - t_p) / (t_m - t_p)``; works per dimension.  Prop. 3.2
    shows the result satisfies the constraint w.r.t. ``x_p`` whenever
    ``satisfy(x_p, x_m)`` holds.
    """
    alpha = (float(tk) - float(tp)) / (float(tm) - float(tp))
    return np.asarray(xp, float) + alpha * (np.asarray(xm, float) - np.asarray(xp, float))


def estimate_speed(
    t: np.ndarray, X: np.ndarray, quantile: float = 0.95, scale: float = 1.0
) -> float:
    """Estimate a speed constraint from data as a quantile of observed speeds.

    Mirrors the paper's "extraction from the data by the 95% confidence
    level" (Section 4) for experiments where the true bound is unknown.
    """
    t = np.asarray(t, float)
    X = np.asarray(X, float)
    d = np.sqrt(np.sum(np.diff(X, axis=0) ** 2, axis=1))
    dt = np.diff(t)
    sp = d[dt > 0] / dt[dt > 0]
    if len(sp) == 0:
        raise ValueError("need at least two points to estimate a speed")
    return float(np.quantile(sp, quantile)) * scale
