"""Core MTCSC algorithms (the paper's contribution).

Batch: :func:`mtcsc_g` (global optimum).  Online: :func:`mtcsc_l`
(local), :func:`mtcsc_c` (cluster, the recommended "MTCSC"),
:func:`mtcsc_a` (adaptive speed), :func:`mtcsc_uni` (per-dimension).
"""
from .exact import exact_min_fix
from .mtcsc_a import AdaptiveCleaner, AdaptiveSpeed, mtcsc_a
from .mtcsc_c import ClusterCleaner, mtcsc_c
from .mtcsc_g import fix_list, mtcsc_g
from .mtcsc_l import LocalCleaner, mtcsc_l
from .online import OnlineCleaner
from .speed import (
    SpeedConstraint,
    distance,
    estimate_speed,
    interpolate,
    satisfy,
    series_satisfies,
    violations,
)
from .uni import mtcsc_uni

#: The online cleaners by method-registry name (what streaming can run).
ONLINE_CLEANERS: dict[str, type[OnlineCleaner]] = {
    "MTCSC-L": LocalCleaner,
    "MTCSC-C": ClusterCleaner,
    "MTCSC-A": AdaptiveCleaner,
}

__all__ = [
    "AdaptiveCleaner",
    "AdaptiveSpeed",
    "ClusterCleaner",
    "LocalCleaner",
    "ONLINE_CLEANERS",
    "OnlineCleaner",
    "SpeedConstraint",
    "distance",
    "estimate_speed",
    "exact_min_fix",
    "fix_list",
    "interpolate",
    "mtcsc_a",
    "mtcsc_c",
    "mtcsc_g",
    "mtcsc_l",
    "mtcsc_uni",
    "satisfy",
    "series_satisfies",
    "violations",
]
