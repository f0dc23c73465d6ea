"""Speed-constraint primitives shared by every MTCSC algorithm.

The paper (Definition 2.3) constrains the Euclidean distance over *all*
dimensions together: a series satisfies ``s`` with window ``w`` iff for
every pair ``0 < t_j - t_i <= w`` it holds that
``d(x_i, x_j) / (t_j - t_i) <= s``.  Pairs further apart than ``w`` are
unconstrained.  ``s_min = 0`` throughout (Section 2.1).

All kernels operate on plain numpy arrays ``t`` (shape ``(n,)``, strictly
increasing) and ``X`` (shape ``(n, D)``) so they are testable without
Spark and directly usable inside ``applyInPandas`` workers; every kernel
takes its input through :func:`as_series`, the one input contract.
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


def as_series(t, X) -> tuple[np.ndarray, np.ndarray]:
    """The input contract of every cleaner: return ``(t, X)`` as float arrays.

    ``X`` is promoted to 2-D (one column per dimension).  Raises
    ``ValueError`` unless ``t`` is 1-D, ``t`` and ``X`` have the same
    number of rows, every value is finite and ``t`` is strictly
    increasing.
    """
    t = np.asarray(t, float)
    X = np.atleast_2d(np.asarray(X, float))
    if t.ndim != 1:
        raise ValueError(f"t must be 1-D, got shape {t.shape}")
    if X.shape[0] != len(t):
        raise ValueError(f"t has {len(t)} rows but X has {X.shape[0]}")
    if not (np.isfinite(t).all() and np.isfinite(X).all()):
        raise ValueError("t and X must be finite")
    if np.any(np.diff(t) <= 0):
        raise ValueError("timestamps must be strictly increasing")
    return t, X


def within_bound(d, dt, smax: float):
    """``d <= smax * dt`` up to the :data:`EPS` tolerance.

    Works on scalars and, elementwise, on arrays of distances ``d`` and
    time gaps ``dt``.
    """
    return d <= smax * dt * (1.0 + EPS) + EPS


def within_speed(
    ti: float, xi: np.ndarray, tj: float, xj: np.ndarray, s: SpeedConstraint
) -> bool:
    """Bounded speed check ``d <= smax * dt`` with *no* window exemption.

    Used when selecting interpolation anchors: Prop. 3.2's soundness
    argument needs the anchor to genuinely lie within the speed cone of
    the previous repaired point, so a pair that is merely "outside the
    window" (and thus unconstrained for violation detection) must not be
    accepted here.  At equal timestamps only (near-)identical points pass.
    """
    return within_bound(distance(xi, xj), abs(float(tj) - float(ti)), s.smax)


def satisfy(
    ti: float, xi: np.ndarray, tj: float, xj: np.ndarray, s: SpeedConstraint
) -> bool:
    """``satisfy(x_i, x_j)`` from Table 1: the pair is compatible w.r.t. ``s``.

    Pairs with time gap larger than the window are unconstrained and
    therefore compatible; all others must pass :func:`within_speed`.
    ``ti``/``tj`` may come in either order.
    """
    return abs(float(tj) - float(ti)) > s.window or within_speed(ti, xi, tj, xj, s)


def violations(t: np.ndarray, X: np.ndarray, s: SpeedConstraint) -> list[tuple[int, int]]:
    """All in-window pairs ``(i, j)`` violating the constraint (for tests).

    By the triangle-inequality argument of Prop. 3.1 it is *not* enough to
    check consecutive pairs of the raw series (a pair may violate even when
    all consecutive pairs hold), so this checks all pairs within ``w``.
    """
    t, X = as_series(t, X)
    out: list[tuple[int, int]] = []
    for i in range(len(t)):
        hi = np.searchsorted(t, t[i] + s.window, side="right")
        for j in range(i + 1, hi):
            if not satisfy(t[i], X[i], t[j], X[j], s):
                out.append((i, j))
    return out


def series_satisfies(t: np.ndarray, X: np.ndarray, s: SpeedConstraint) -> bool:
    """Check ``x |= s``: no in-window pair violates the constraint.

    Used by tests to assert soundness of repairs.
    """
    return not violations(t, X, s)


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
    t, X = as_series(t, X)
    sp = np.sqrt(np.sum(np.diff(X, axis=0) ** 2, axis=1)) / np.diff(t)
    if len(sp) == 0:
        raise ValueError("need at least two points to estimate a speed")
    return float(np.quantile(sp, quantile)) * scale
