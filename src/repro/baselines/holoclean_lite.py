"""HoloClean-lite — the MTCSC paper's own HoloClean adaptation, rebuilt.

HoloClean (Rekatsinas et al., VLDB 2017) performs probabilistic repair
of relational data under denial constraints.  The MTCSC authors adapted
it to time series by (1) quantizing continuous values into buckets and
(2) translating per-dimension speed constraints into denial constraints,
then letting the probabilistic inference pick repair values.  We rebuild
that pipeline (the original system plus its PyTorch stack is not
available offline):

1. quantize each dimension into ``n_buckets`` equal-width buckets;
2. denial-constraint violation = per-dimension speed violation between
   adjacent points;
3. for each violating cell, the posterior over buckets combines the
   empirical value prior with a compatibility likelihood from the
   temporal neighbours (how probable each bucket is given the neighbour
   values under the speed constraint);  the MAP bucket's center is the
   repair.

This keeps HoloClean's quantize -> constrain -> probabilistic-MAP
structure and its observed role in the paper: batch, mediocre RMSE on
continuous time series (quantization error floors its accuracy).
"""
from __future__ import annotations

import numpy as np

from repro.core.speed import SpeedConstraint, as_series


def holoclean_lite(
    t: np.ndarray,
    X: np.ndarray,
    s: SpeedConstraint,
    *,
    n_buckets: int = 500,
) -> tuple[np.ndarray, np.ndarray]:
    """Probabilistic bucket-MAP repair of speed-violating cells.

    Returns ``(X_repaired, changed_mask)``.
    """
    t, X = as_series(t, X)
    n, D = X.shape
    Xr = X.copy()
    for d in range(D):
        x = X[:, d]
        lo, hi = float(x.min()), float(x.max())
        if hi <= lo:
            continue
        centers = lo + (np.arange(n_buckets) + 0.5) * (hi - lo) / n_buckets
        # Empirical prior over buckets.
        idx = np.clip(((x - lo) / (hi - lo) * n_buckets).astype(int), 0, n_buckets - 1)
        prior = np.bincount(idx, minlength=n_buckets).astype(float) + 1.0
        prior /= prior.sum()
        # Denial-constraint violations: a cell is an error candidate when
        # the per-dimension speed violates on *both* of its sides (the
        # spike pattern) — attributing a single violating speed to both
        # endpoints would flag the clean neighbour of every spike and
        # leave no usable evidence.
        v = np.abs(np.diff(x)) / np.diff(t)
        bad = v > s.smax
        viol = np.zeros(n, dtype=bool)
        viol[1:-1] = bad[:-1] & bad[1:]
        if n >= 2:
            viol[0] = bad[0]
            viol[-1] = bad[-1]
        for i in np.nonzero(viol)[0]:
            # Likelihood of each bucket given non-violating neighbours:
            # Gaussian around the neighbour-implied value with the speed
            # budget as scale.  Without any clean neighbour the posterior
            # degenerates to the global prior, whose MAP can be arbitrarily
            # far from the local trajectory — keep the observation then
            # (HoloClean leaves cells it has no evidence about unchanged).
            loglik = np.log(prior)
            n_obs = 0
            for j in (i - 1, i + 1):
                if 0 <= j < n and not viol[j]:
                    dt = abs(t[i] - t[j])
                    scale = max(s.smax * dt, 1e-9)
                    loglik += -0.5 * ((centers - x[j]) / scale) ** 2
                    n_obs += 1
            if n_obs:
                Xr[i, d] = centers[int(np.argmax(loglik))]
    changed = np.any(~np.isclose(Xr, X, rtol=0, atol=1e-12), axis=1)
    return Xr, changed
