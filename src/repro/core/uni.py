"""MTCSC-Uni — apply MTCSC-C to each dimension independently.

The paper evaluates MTCSC-Uni (Section 5.3) by running MTCSC(-C) on
every single dimension separately; it is the recommended variant when
errors are known to occur in dimensions individually ("separate"
pattern).  Every dimension shares the one speed constraint.
"""
from __future__ import annotations

import numpy as np

from .mtcsc_c import mtcsc_c
from .speed import SpeedConstraint, as_cleaner


@as_cleaner
def mtcsc_uni(t: np.ndarray, X: np.ndarray, s: SpeedConstraint) -> np.ndarray:
    """Clean each dimension with its own univariate MTCSC-C run.

    Returns ``(X_repaired, changed_mask)`` (see :func:`as_cleaner`), where
    a point counts as changed if any of its dimensions moved.
    """
    return np.column_stack([mtcsc_c(t, x[:, None], s)[0] for x in X.T])
