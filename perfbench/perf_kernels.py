"""``clean_fn`` kernels shipped to Spark's Python workers.

Kept apart from the workload code so that a worker unpickling a kernel
imports only ``repro.core``, not the benchmark's driver-side modules.
"""
from __future__ import annotations

import numpy as np

from repro.core import SpeedConstraint, mtcsc_a, mtcsc_c, mtcsc_g, mtcsc_l, mtcsc_uni

#: GPS(Walk) constraint used by the Spark and streaming tests (s=1.6, w=45).
GPS_S = SpeedConstraint(1.6, 45.0)

#: The public kernels, timed serially for the ``core.*`` layer.
CORE_ALGS = {
    "mtcsc_g": mtcsc_g,
    "mtcsc_l": mtcsc_l,
    "mtcsc_c": mtcsc_c,
    "mtcsc_a": mtcsc_a,
    "uni": mtcsc_uni,
}


class Kernel:
    """Picklable ``clean_fn``: one public kernel bound to its constraint."""

    def __init__(self, alg: str, s: SpeedConstraint):
        self.alg = alg
        self.s = s

    def __call__(self, t, X):
        return CORE_ALGS[self.alg](t, X, self.s)


def identity_kernel(t, X):
    """The cheapest ``clean_fn``: repairs nothing."""
    X = np.atleast_2d(np.asarray(X, float))
    return X, np.zeros(len(t), dtype=bool)
