"""Table 4 — GPS(Walk) with embedded real-style errors, all 13 methods.

Reproduces the paper's headline table: RMSE, repair distance and repair
number per method, with the dirty baseline.  Paper numbers are printed
alongside for direct comparison (absolute values differ — synthetic
trajectory — the method ordering is the reproduction target).

Usage: spark-submit jobs/table4_gps.py [--n 11000]
"""
from __future__ import annotations

import pandas as pd

from repro.core import SpeedConstraint
from repro.datasets import GPS_WALK_SPEED, gps_walk
from repro.experiments import sweep_embedded_cases
from repro.jobrun import main
from repro.methods import TABLE4_ORDER
from repro.metrics import rmse

WINDOW = 45.0

#: Table 4 of the paper (RMSE / repair distance / repair number).
PAPER_TABLE4 = {
    "Dirty": (1.3553, None, None),
    "MTCSC-G": (0.4115, 0.1134, 163),
    "MTCSC-L": (2.1569, 0.2241, 286),
    "MTCSC-C": (0.3386, 0.1265, 184),
    "MTCSC-Uni": (0.4098, 0.1185, 160),
    "RCSWS": (1.2096, 0.0571, 179),
    "SCREEN": (0.9082, 0.0925, 284),
    "SpeedAcc": (0.9065, 0.0928, 286),
    "LsGreedy": (0.917, 0.061, 255),
    "EWMA": (2.0859, 1.4236, 10753),
    "HTD": (0.954, 0.0224, 41),
    "HoloClean": (1.1733, None, None),
    "CAE-M": (159.5, None, None),
    "TranAD": (35.98, None, None),
}


def run_table4(spark, *, n: int = 11_000) -> pd.DataFrame:
    """Compute the Table 4 metrics on the synthetic GPS(Walk) data."""
    t, dirty, truth, mask = gps_walk(n)
    s = SpeedConstraint(GPS_WALK_SPEED, WINDOW)
    case = ({}, t, dirty, truth, s)
    out = sweep_embedded_cases(spark, [case], methods=TABLE4_ORDER)
    cols = ["method", "rmse", "repair_distance", "repair_number", "seconds"]
    dirty_row = ["Dirty", rmse(dirty, truth), 0.0, 0.0, 0.0]
    df = pd.concat(
        [pd.DataFrame([dirty_row], columns=cols), out[cols]], ignore_index=True
    )
    df["paper_rmse"] = df["method"].map(
        {k: v[0] for k, v in PAPER_TABLE4.items()}
    )
    return df


if __name__ == "__main__":
    main(run_table4)
