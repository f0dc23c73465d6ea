"""Figure 6 — error-rate sweep on ILD (temperature), all methods.

Paper shape: MTCSC best RMSE and robust to rising error rates;
LsGreedy collapses past ~20%; min-change methods (SCREEN/SpeedAcc/
LsGreedy/HTD) modify many more points than MTCSC; MTCSC repair count
tracks the injected error count.

Usage: spark-submit jobs/fig6_ild_error_rate.py [--n 43000] [--seeds 10]
"""
from __future__ import annotations

import pandas as pd

from repro.core import SpeedConstraint, estimate_speed
from repro.datasets import ild
from repro.experiments import sweep_cases
from repro.jobrun import main

METHODS = [
    "MTCSC-C",
    "MTCSC-Uni",
    "SCREEN",
    "SpeedAcc",
    "LsGreedy",
    "EWMA",
    "HTD",
    "HoloClean",
    "TranAD",
    "CAE-M",
]
RATES = [0.025, 0.05, 0.10, 0.15, 0.20, 0.25]
WINDOW = 10.0


def run_fig6(spark, *, n: int = 43_000, seeds: int = 10) -> pd.DataFrame:
    t, X = ild(n)
    s = SpeedConstraint(estimate_speed(t, X, 0.995, scale=1.5), WINDOW)
    return sweep_cases(
        spark,
        [({}, t, X, s, "together")],
        methods=METHODS,
        rates=RATES,
        seeds=range(seeds),
    )


if __name__ == "__main__":
    main(run_fig6)
