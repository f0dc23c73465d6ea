"""MTCSC-Uni — apply MTCSC-C to each dimension independently.

The paper evaluates MTCSC-Uni (Section 5.3) by running MTCSC(-C) on
every single dimension separately; it is the recommended variant when
errors are known to occur in dimensions individually ("separate"
pattern).  Every dimension shares the one speed constraint.
"""
from __future__ import annotations

import numpy as np

from .mtcsc_c import mtcsc_c
from .speed import SpeedConstraint, as_series


def mtcsc_uni(
    t: np.ndarray, X: np.ndarray, s: SpeedConstraint
) -> tuple[np.ndarray, np.ndarray]:
    """Clean each dimension with its own univariate MTCSC-C run.

    Returns ``(X_repaired, changed_mask)`` where a point counts as changed
    if any of its dimensions was changed.
    """
    t, X = as_series(t, X)
    Xr = np.empty_like(X)
    changed = np.zeros(len(t), dtype=bool)
    for d in range(X.shape[1]):
        col, ch = mtcsc_c(t, X[:, d : d + 1], s)
        Xr[:, d] = col[:, 0]
        changed |= ch
    return Xr, changed
