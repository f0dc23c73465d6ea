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
predecessor, so the kept chain is identical to the naive O(n^2) DP's,
:func:`_chain_dp_naive` (asserted in tests).
"""
from __future__ import annotations

import numpy as np

from .speed import (
    SpeedConstraint,
    as_cleaner,
    as_series,
    interpolate,
    pair_checks,
    satisfy,
    within_bound,
)


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
            ok = within_bound(*pair_checks(t[i], X[i], t[lo:i], X[lo:i]), s.smax)
            if ok.any():
                js = np.nonzero(ok)[0] + lo
                j = js[np.argmax(dp[js])]
                if dp[j] + 1 > dp[i]:
                    dp[i] = dp[j] + 1
                    pre[i] = j
    return _backtrack(dp, pre)


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
    return _backtrack(dp, pre)


def _backtrack(dp: np.ndarray, pre: np.ndarray) -> np.ndarray:
    """Indices of the longest chain, from its DP table; empty when ``n = 0``."""
    end = int(np.argmax(dp)) if len(dp) else -1
    keep = []
    while end >= 0:
        keep.append(end)
        end = int(pre[end])
    return np.array(keep[::-1], dtype=np.int64)


def _repair_fixlist(t: np.ndarray, X: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Interpolate every non-kept point between its nearest clean anchors.

    ``keep`` is non-empty (a chain holds at least one point).  Boundary
    handling: points before the first (after the last) clean anchor take
    that anchor's value — there is no second anchor to interpolate with.
    """
    Xr = X.copy()
    for i in np.setdiff1d(np.arange(len(t)), keep):
        pos = np.searchsorted(keep, i)
        p = keep[pos - 1] if pos > 0 else -1
        m = keep[pos] if pos < len(keep) else -1
        if p >= 0 and m >= 0:
            Xr[i] = interpolate(t[p], X[p], t[m], X[m], t[i])
        elif p >= 0:
            Xr[i] = X[p]
        else:
            Xr[i] = X[m]
    return Xr


@as_cleaner
def mtcsc_g(t: np.ndarray, X: np.ndarray, s: SpeedConstraint) -> np.ndarray:
    """Global minimum-fix repair.

    Returns ``(X_repaired, changed_mask)`` (see :func:`as_cleaner`).
    """
    return _repair_fixlist(t, X, _chain_dp(t, X, s))


def fix_list(t: np.ndarray, X: np.ndarray, s: SpeedConstraint) -> np.ndarray:
    """Indices Algorithm 1 marks for repair (the complement of the chain)."""
    t, X = as_series(t, X)
    return np.setdiff1d(np.arange(len(t)), _chain_dp(t, X, s))
