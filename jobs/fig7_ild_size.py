"""Figure 7 — data-size sweep on ILD at 5% injected errors.

Paper shape: MTCSC scales linearly, keeps high accuracy, repairs ~5% of
points at every size (tracking the injected fraction).

Usage: spark-submit jobs/fig7_ild_size.py [--sizes 5000,10000,20000,40000]
"""
from __future__ import annotations

import argparse

import pandas as pd

from repro.core import SpeedConstraint, estimate_speed
from repro.datasets import ild
from repro.experiments import format_table, sweep_cases
from repro.jobrun import default_spark

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


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", type=str, default="5000,10000,20000,40000")
    ap.add_argument("--seeds", type=int, default=5)
    args = ap.parse_args()
    sizes = [int(x) for x in args.sizes.split(",")]
    spark = default_spark("fig7-ild-size")
    print(format_table(run_fig7(spark, sizes=sizes, seeds=args.seeds)))


if __name__ == "__main__":
    main()
