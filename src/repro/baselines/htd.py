"""HTD (Zhou et al. 2022) proxy — high-dimensional timing-data cleaning
using dimensional + temporal correlation.

The original is closed-source and, per the MTCSC paper (Section 5.4.1
and Figure 14 discussion), (a) *"relies heavily on the difference
between labeled truth and the observations"* — it consumes extra labels
— and (b) *"cannot recognize most errors and remains unchanged"*,
repairing very few points (41 of 11k on GPS).

Substitution (documented in DESIGN.md): per-dimension batch detection
with a conservative threshold on the temporal residual (deviation from
the neighbour interpolation), calibrated on the labeled ground truth
residual distribution when labels are provided — mirroring the extra
supervision the original enjoys.  Detected cells are repaired by linear
interpolation of their temporal neighbours.  The conservative quantile
reproduces the "fixes only the most blatant errors" behaviour.
"""
from __future__ import annotations

import numpy as np

from repro.core.speed import as_cleaner, interpolate

#: Without labels, the residual threshold is this quantile of the dirty
#: residuals: conservative, so only the most blatant errors are fixed.
QUANTILE = 0.999


def _residual(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Deviation of each interior point from its neighbour interpolation."""
    r = np.zeros_like(x)
    alpha = (t[1:-1] - t[:-2]) / (t[2:] - t[:-2])
    interp = x[:-2] + alpha * (x[2:] - x[:-2])
    r[1:-1] = x[1:-1] - interp
    return r


@as_cleaner
def htd(
    t: np.ndarray, X: np.ndarray, *, truth: np.ndarray | None = None
) -> np.ndarray:
    """HTD proxy: detect cells with extreme temporal residual, interpolate.

    ``truth`` (the labeled clean data the original method leans on)
    calibrates the residual threshold: the max clean-data residual per
    dimension.  Without labels the :data:`QUANTILE` of the dirty
    residuals is used.  Returns ``(X_repaired, changed_mask)`` (see
    :func:`as_cleaner`).
    """
    n, D = X.shape
    Xr = X.copy()
    for d in range(D):
        r = np.abs(_residual(t, X[:, d]))
        if truth is not None:
            rt = np.abs(_residual(t, np.asarray(truth, float)[:, d]))
            thresh = float(rt.max()) * 1.05
        else:
            thresh = float(np.quantile(r, QUANTILE))
        flagged = r > thresh
        for i in np.flatnonzero(flagged):
            # Interpolate from the nearest non-flagged neighbours.
            p = i - 1
            while p > 0 and flagged[p]:
                p -= 1
            m = i + 1
            while m < n - 1 and flagged[m]:
                m += 1
            if p >= 0 and m <= n - 1:
                Xr[i, d] = interpolate(t[p], X[p, d], t[m], X[m, d], t[i])
    return Xr
