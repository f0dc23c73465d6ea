"""Figures 8/9 — error patterns "separate" vs "together" on TAO and ECG.

Paper shape: under "together" MTCSC (multivariate) beats everything
including MTCSC-Uni; under "separate" MTCSC-Uni is slightly better than
MTCSC (per-dimension errors barely move the multivariate point).

Usage: spark-submit jobs/fig9_patterns.py [--n 20000] [--seeds 5]
"""
from __future__ import annotations

import pandas as pd

from repro.core import SpeedConstraint, estimate_speed
from repro.datasets import ecg, tao
from repro.experiments import sweep_cases
from repro.jobrun import main

METHODS = ["MTCSC-C", "MTCSC-Uni", "SCREEN", "SpeedAcc", "LsGreedy", "EWMA"]
RATES = [0.05, 0.10, 0.20]
WINDOW = 10.0
ECG_DIMS = 8


def run_fig9(spark, *, n: int = 20_000, seeds: int = 5) -> pd.DataFrame:
    cases = []
    for name, (t, X) in {"tao": tao(n), "ecg": ecg(n, ECG_DIMS)}.items():
        s = SpeedConstraint(estimate_speed(t, X, 0.995, scale=1.5), WINDOW)
        for pattern in ("separate", "together"):
            cases.append(({"dataset": name, "pattern": pattern}, t, X, s, pattern))
    return sweep_cases(spark, cases, methods=METHODS, rates=RATES, seeds=range(seeds))


if __name__ == "__main__":
    main(run_fig9)
