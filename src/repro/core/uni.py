"""MTCSC-Uni — apply an MTCSC cleaner to each dimension independently.

The paper evaluates MTCSC-Uni (Section 5.3) by running MTCSC(-C) on
every single dimension separately; it is the recommended variant when
errors are known to occur in dimensions individually ("separate"
pattern).  The per-dimension speed constraint may be a single scalar
(shared) or one scalar per dimension.
"""
from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from .mtcsc_c import mtcsc_c
from .speed import SpeedConstraint, as_series

Cleaner = Callable[[np.ndarray, np.ndarray, SpeedConstraint], tuple[np.ndarray, np.ndarray]]


def mtcsc_uni(
    t: np.ndarray,
    X: np.ndarray,
    s: SpeedConstraint | Sequence[SpeedConstraint],
    *,
    cleaner: Cleaner = mtcsc_c,
) -> tuple[np.ndarray, np.ndarray]:
    """Clean each dimension with its own univariate run of ``cleaner``.

    Returns ``(X_repaired, changed_mask)`` where a point counts as changed
    if any of its dimensions was changed.
    """
    t, X = as_series(t, X)
    n, D = X.shape
    if isinstance(s, SpeedConstraint):
        cons = [s] * D
    else:
        cons = list(s)
        if len(cons) != D:
            raise ValueError(f"got {len(cons)} constraints for {D} dimensions")
    Xr = np.empty_like(X)
    changed = np.zeros(n, dtype=bool)
    for d in range(D):
        col, ch = cleaner(t, X[:, d : d + 1], cons[d])
        Xr[:, d] = col[:, 0]
        changed |= ch
    return Xr, changed

