"""Figure 5 — the four proposals on Stock vs error rate.

Paper shape: MTCSC-G and MTCSC-C similar and better than MTCSC-L
(RMSE); G slowest, L fastest; G modifies the fewest points.

Usage: spark-submit jobs/fig5_stock.py [--n 12000] [--seeds 10]
"""
from __future__ import annotations

import argparse

import pandas as pd

from repro.core import SpeedConstraint, estimate_speed
from repro.datasets import stock
from repro.experiments import format_table, sweep_cases
from repro.jobrun import default_spark

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


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=12_000)
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()
    spark = default_spark("fig5-stock")
    print(format_table(run_fig5(spark, n=args.n, seeds=args.seeds)))


if __name__ == "__main__":
    main()
