"""Figure 13 — dimension sweep on ECG (2..32 leads).

Paper shape: time of MTCSC-G/L/C grows linearly in D; accuracy stays
good as D rises.

Usage: spark-submit jobs/fig13_dimension.py [--n 10000] [--dims 2,4,8,16,32]
"""
from __future__ import annotations

import argparse

import pandas as pd

from repro.core import SpeedConstraint, estimate_speed
from repro.datasets import ecg
from repro.experiments import format_table, sweep_cases
from repro.jobrun import default_spark

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


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=10_000)
    ap.add_argument("--dims", type=str, default="2,4,8,16,32")
    ap.add_argument("--seeds", type=int, default=3)
    args = ap.parse_args()
    dims = [int(x) for x in args.dims.split(",")]
    spark = default_spark("fig13-dimension")
    print(format_table(run_fig13(spark, n=args.n, dims=dims, seeds=args.seeds)))


if __name__ == "__main__":
    main()
