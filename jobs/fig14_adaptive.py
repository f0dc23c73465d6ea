"""Figure 14 — adaptive speed on GPS(Mixed) with three transport modes.

Each column initializes the speed constraint to the walking (1.6 m/s),
running (3.33 m/s) or cycling (5.0 m/s) bound.  Paper shape: MTCSC-A
ends up best regardless of the initial setting; fixed-constraint methods
started at walking/running over-repair the faster segments; LsGreedy is
unaffected by s.

Hyper-parameters from the paper, which are ``mtcsc_a``'s defaults:
b=6, tau=0.75, m=150, beta=0.75.

Usage: spark-submit jobs/fig14_adaptive.py [--n 8000]
"""
from __future__ import annotations

import argparse

import pandas as pd

from repro.core import SpeedConstraint
from repro.datasets import gps_mixed
from repro.experiments import format_table, sweep_embedded
from repro.jobrun import default_spark
from repro.metrics import rmse as rmse_fn

METHODS = ["MTCSC-A", "MTCSC-C", "MTCSC-G", "SCREEN", "LsGreedy", "EWMA", "RCSWS"]
INITIAL = {"walk(1.6)": 1.6, "run(3.33)": 3.33, "cycle(5.0)": 5.0}


def run_fig14(spark, *, n: int = 8_000, window: float = 45.0) -> pd.DataFrame:
    t, dirty, truth, mask, mode = gps_mixed(n)
    frames = []
    for label, s0 in INITIAL.items():
        s = SpeedConstraint(s0, window)
        out = sweep_embedded(spark, t, dirty, truth, s, methods=METHODS)
        out = out[["method", "rmse", "repair_number"]].copy()
        out.insert(0, "initial_speed", label)
        frames.append(out)
    df = pd.concat(frames, ignore_index=True)
    df.loc[len(df)] = ["-", "Dirty", rmse_fn(dirty, truth), 0.0]
    return df


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=8_000)
    args = ap.parse_args()
    spark = default_spark("fig14-adaptive")
    print(format_table(run_fig14(spark, n=args.n)))


if __name__ == "__main__":
    main()
