"""Figure 13 — dimension sweep on ECG (2..32 leads).

Paper shape: time of MTCSC-G/L/C grows linearly in D; accuracy stays
good as D rises.

Usage: spark-submit jobs/fig13_dimension.py [--n 10000] [--dims 2,4,8,16,32] [--seeds 3]
"""
from __future__ import annotations

import pandas as pd

from repro.core import SpeedConstraint, estimate_speed
from repro.datasets import ecg
from repro.experiments import sweep_cases
from repro.jobrun import main

PROPOSALS = ["MTCSC-G", "MTCSC-L", "MTCSC-C"]
RATE = 0.05
WINDOW = 10.0


def run_fig13(
    spark, *, n: int = 10_000, dims=(2, 4, 8, 16, 32), seeds: int = 3
) -> pd.DataFrame:
    cases = []
    for d in dims:
        t, X = ecg(n, d)
        s = SpeedConstraint(estimate_speed(t, X, 0.995, scale=1.5), WINDOW)
        cases.append(({"D": d}, t, X, s, "together"))
    return sweep_cases(
        spark, cases, methods=PROPOSALS, rates=[RATE], seeds=range(seeds)
    )


if __name__ == "__main__":
    main(run_fig13)
