"""Figure 5 — the four proposals on Stock vs error rate.

Paper shape: MTCSC-G and MTCSC-C similar and better than MTCSC-L
(RMSE); G slowest, L fastest; G modifies the fewest points.

Usage: spark-submit jobs/fig5_stock.py [--n 12000] [--seeds 10]
"""
from __future__ import annotations

import pandas as pd

from repro.core import SpeedConstraint, estimate_speed
from repro.datasets import stock
from repro.experiments import sweep_cases
from repro.jobrun import main

PROPOSALS = ["MTCSC-G", "MTCSC-L", "MTCSC-C", "MTCSC-A"]
RATES = [0.025, 0.05, 0.075, 0.10, 0.15, 0.20]
WINDOW = 10.0


def run_fig5(spark, *, n: int = 12_000, seeds: int = 10) -> pd.DataFrame:
    t, X = stock(n)
    s = SpeedConstraint(estimate_speed(t, X, 0.99, scale=1.2), WINDOW)
    return sweep_cases(
        spark,
        [({}, t, X, s, "together")],
        methods=PROPOSALS,
        rates=RATES,
        seeds=range(seeds),
    )


if __name__ == "__main__":
    main(run_fig5)
