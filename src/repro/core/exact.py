"""Exact minimum-fix optimum — the Gurobi (MIQP) substitute.

The paper solves Problem 1 with the Gurobi optimizer (Section 2.2.1) and
uses it only to confirm that the DP (MTCSC-G) attains the same minimum
fix count (Examples 2.5 vs 2.6).  Gurobi is proprietary and this
container is offline, so we replace it with an exact exhaustive search:
enumerate subsets of points to *keep*; a subset is feasible iff all
consecutive kept pairs satisfy the constraint (equivalent to pairwise
in-window satisfaction by the triangle-inequality argument of
Prop. 3.1/3.4 — formally: if every consecutive kept pair with gap <= w
satisfies s, then any kept pair (p, q) with t_q - t_p <= w has all its
intermediate consecutive gaps <= w, and summing d <= s*dt along the
chain bounds d(p, q) <= s (t_q - t_p)).

Only usable for small n (exponential); tests keep n <= 14.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

from .speed import SpeedConstraint, as_series, satisfy


def exact_min_fix(t: np.ndarray, X: np.ndarray, s: SpeedConstraint) -> int:
    """Minimum number of points that must be modified so that x' |= s.

    Equivalently ``n -`` (size of the largest keepable subset).
    """
    t, X = as_series(t, X)
    n = len(t)
    if n > 20:
        raise ValueError("exhaustive search is exponential; use n <= 20")

    def feasible(keep: tuple[int, ...]) -> bool:
        return all(
            satisfy(t[a], X[a], t[b], X[b], s) for a, b in zip(keep, keep[1:])
        )

    for size in range(n, 0, -1):
        for keep in combinations(range(n), size):
            if feasible(keep):
                return n - size
    return n
