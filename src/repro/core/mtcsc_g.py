"""MTCSC-G — global optimal (minimum-fix) batch cleaning, Algorithm 1.

Finds the longest subsequence whose points are pairwise compatible with
the speed constraint (an LIS-style dynamic program); everything outside
that subsequence is the minimum fix set, repaired by interpolating
between the nearest preceding and succeeding clean anchors (formula 6).

Correctness of checking only *consecutive* chain links: if consecutive
kept points satisfy the constraint (or are unconstrained, gap > w), then
every in-window pair of kept points satisfies it too, by the triangle
inequality (Prop. 3.1 / 3.4).

Complexity: the paper states O(Dn^2).  We keep an exact O(Dnw') variant
(`w'` = points per window) by splitting the DP transition:

  dp[i] = 1 + max( best dp[j] over t_i - t_j > w   (unconstrained pairs),
                   best dp[j] over in-window j with satisfy(x_j, x_i) )

The first term is a running prefix maximum; only in-window predecessors
are checked explicitly (vectorized).  The split tests the same float
expressions as :func:`satisfy` and breaks ties towards the earliest
predecessor, so the kept chain is identical to the naive O(n^2) DP's
(asserted in tests).
"""
from __future__ import annotations

import numpy as np

from .speed import SpeedConstraint, as_series, interpolate, satisfy, within_bound


def _chain_dp(t: np.ndarray, X: np.ndarray, s: SpeedConstraint) -> np.ndarray:
    """Longest pairwise-compatible chain; returns indices of kept points."""
    n = len(t)
    dp = np.ones(n, dtype=np.int64)
    pre = np.full(n, -1, dtype=np.int64)

    # Prefix max of dp over points more than w older than t_i.
    best_old = 0  # dp value
    best_old_idx = -1
    old_ptr = 0  # first index not yet folded into the prefix max

    for i in range(n):
        # Fold every j that satisfy() exempts (t_i - t_j > w) into the
        # prefix maximum.
        while old_ptr < i and t[i] - t[old_ptr] > s.window:
            if dp[old_ptr] > best_old:
                best_old = dp[old_ptr]
                best_old_idx = old_ptr
            old_ptr += 1
        if best_old_idx >= 0 and dp[i] < best_old + 1:
            dp[i] = best_old + 1
            pre[i] = best_old_idx
        # In-window predecessors, vectorized.
        lo = old_ptr
        if lo < i:
            dt = t[i] - t[lo:i]
            d = np.sqrt(np.sum((X[lo:i] - X[i]) ** 2, axis=1))
            ok = within_bound(d, dt, s.smax)
            if ok.any():
                js = np.nonzero(ok)[0] + lo
                j = js[np.argmax(dp[js])]
                if dp[j] + 1 > dp[i]:
                    dp[i] = dp[j] + 1
                    pre[i] = j
    # Reconstruct the longest chain.
    end = int(np.argmax(dp))
    keep = []
    while end >= 0:
        keep.append(end)
        end = int(pre[end])
    return np.array(keep[::-1], dtype=np.int64)


def _chain_dp_naive(t: np.ndarray, X: np.ndarray, s: SpeedConstraint) -> np.ndarray:
    """Literal Algorithm 1 (O(Dn^2)); reference for tests."""
    n = len(t)
    dp = np.ones(n, dtype=np.int64)
    pre = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        for j in range(i):
            if satisfy(t[j], X[j], t[i], X[i], s) and dp[i] < dp[j] + 1:
                dp[i] = dp[j] + 1
                pre[i] = j
    end = int(np.argmax(dp))
    keep = []
    while end >= 0:
        keep.append(end)
        end = int(pre[end])
    return np.array(keep[::-1], dtype=np.int64)


def _repair_fixlist(
    t: np.ndarray, X: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Interpolate every non-kept point between its nearest clean anchors.

    Boundary handling: points before the first (after the last) clean
    anchor take that anchor's value — there is no second anchor to
    interpolate with.
    """
    n = len(t)
    Xr = X.copy()
    fixed = np.ones(n, dtype=bool)
    fixed[keep] = False
    if len(keep) == 0:  # degenerate: nothing satisfiable, leave data as is
        return Xr, np.zeros(n, dtype=bool)
    for i in np.nonzero(fixed)[0]:
        pos = np.searchsorted(keep, i)
        p = keep[pos - 1] if pos > 0 else -1
        m = keep[pos] if pos < len(keep) else -1
        if p >= 0 and m >= 0:
            Xr[i] = interpolate(t[p], X[p], t[m], X[m], t[i])
        elif p >= 0:
            Xr[i] = X[p]
        else:
            Xr[i] = X[m]
    # A point whose interpolation equals its observation is not a repair.
    changed = fixed & np.any(Xr != X, axis=1)
    return Xr, changed


def mtcsc_g(
    t: np.ndarray, X: np.ndarray, s: SpeedConstraint, *, naive: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Global minimum-fix repair.

    Returns ``(X_repaired, changed_mask)``.  ``naive=True`` runs the
    literal O(n^2) DP from the paper (for validation).
    """
    t, X = as_series(t, X)
    if len(t) == 0:
        return X.copy(), np.zeros(0, dtype=bool)
    keep = (_chain_dp_naive if naive else _chain_dp)(t, X, s)
    return _repair_fixlist(t, X, keep)


def fix_list(t: np.ndarray, X: np.ndarray, s: SpeedConstraint) -> np.ndarray:
    """Indices Algorithm 1 marks for repair (the complement of the chain)."""
    t, X = as_series(t, X)
    keep = _chain_dp(t, X, s)
    mask = np.ones(len(t), dtype=bool)
    mask[keep] = False
    return np.nonzero(mask)[0]
