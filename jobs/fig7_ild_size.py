"""Figure 7 — data-size sweep on ILD at 5% injected errors.

Paper shape: MTCSC scales linearly, keeps high accuracy, repairs ~5% of
points at every size (tracking the injected fraction).

Usage: spark-submit jobs/fig7_ild_size.py [--sizes 5000,10000,20000,40000] [--seeds 5]
"""
from __future__ import annotations

import pandas as pd

from repro.core import SpeedConstraint, estimate_speed
from repro.datasets import ild
from repro.experiments import sweep_cases
from repro.jobrun import main

METHODS = ["MTCSC-C", "MTCSC-Uni", "SCREEN", "SpeedAcc", "LsGreedy", "EWMA", "HoloClean", "TranAD", "CAE-M"]
RATE = 0.05
WINDOW = 10.0


def run_fig7(
    spark, *, sizes=(5_000, 10_000, 20_000, 40_000), seeds: int = 5
) -> pd.DataFrame:
    cases = []
    for n in sizes:
        t, X = ild(n)
        s = SpeedConstraint(estimate_speed(t, X, 0.995, scale=1.5), WINDOW)
        cases.append(({"size": n}, t, X, s, "together"))
    return sweep_cases(spark, cases, methods=METHODS, rates=[RATE], seeds=range(seeds))


if __name__ == "__main__":
    main(run_fig7)
