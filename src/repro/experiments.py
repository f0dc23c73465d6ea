"""Experiment harnesses behind every reproduced table/figure.

The sweep engine distributes the experiment grid (method x error rate x
seed, or method alone for one embedded-error series) as plain Spark
tasks: the series is broadcast once, every grid cell is one task that
injects its errors (or takes the given dirty series), cleans and
evaluates, and the metric rows are collected in cell order.  This is
where the reproduction leans on Spark for the paper's multi-seed,
multi-method evaluation protocol (10 seeds per point, Section 5.1.1).
"""
from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.speed import SpeedConstraint, as_series
from repro.errors import inject_errors
from repro.methods import METHODS, Context, SkipMethod
from repro.metrics import evaluate

#: Per-cell metric columns; NaN for a skipped method, averaged over seeds.
METRIC_COLUMNS = [
    "rmse", "repair_distance", "repair_number", "repair_fraction", "seconds"
]


def _run_cell(
    method: str,
    t: np.ndarray,
    dirty: np.ndarray,
    truth: np.ndarray,
    s: SpeedConstraint,
    rate: float,
    seed: int,
) -> dict:
    """Run one method on one dirty series; metrics + wall time."""
    row = {
        "method": method,
        "rate": float(rate),
        "seed": int(seed),
        "n": len(t),
        **dict.fromkeys(METRIC_COLUMNS, float("nan")),
        "skipped": "",
    }
    start = time.perf_counter()
    try:
        Xr, _ = METHODS[method](t, dirty, Context(s=s, truth=truth))
    except SkipMethod as e:
        row["skipped"] = str(e)
        return row
    row["seconds"] = time.perf_counter() - start
    row.update({k: float(v) for k, v in evaluate(Xr, dirty, truth).items()})
    return row


def _sweep(
    spark: SparkSession,
    t: np.ndarray,
    truth: np.ndarray,
    dirty: np.ndarray | None,
    s: SpeedConstraint,
    cells: list[tuple[str, float, int]],
    pattern: str,
) -> pd.DataFrame:
    """One Spark task per ``(method, rate, seed)`` cell; rows in cell order.

    With ``dirty=None`` each task injects its cell's errors into ``truth``;
    otherwise every cell cleans the given ``dirty`` series.
    """
    b = spark.sparkContext.broadcast((t, truth, dirty))

    def run(cell: tuple[str, float, int]) -> dict:
        method, rate, seed = cell
        tt, tr, dd = b.value
        if dd is None:
            dd, _ = inject_errors(tr, rate, pattern=pattern, seed=seed)
        return _run_cell(method, tt, dd, tr, s, rate, seed)

    rows = spark.sparkContext.parallelize(cells, len(cells)).map(run).collect()
    return pd.DataFrame(rows)


def sweep_injected(
    spark: SparkSession,
    t: np.ndarray,
    truth: np.ndarray,
    s: SpeedConstraint,
    *,
    methods: Sequence[str],
    rates: Sequence[float],
    seeds: Sequence[int],
    pattern: str = "together",
) -> pd.DataFrame:
    """Distributed sweep: every (method, rate, seed) cell in parallel.

    The base (clean) series is broadcast once; each Spark task injects
    its cell's errors, cleans, and emits one metrics row.  Returns the
    collected result table as pandas, sorted by (method, rate, seed).
    """
    t, truth = as_series(t, truth)
    cells = [(m, float(r), int(sd)) for m in methods for r in rates for sd in seeds]
    out = _sweep(spark, t, truth, None, s, cells, pattern)
    return out.sort_values(["method", "rate", "seed"]).reset_index(drop=True)


def sweep_embedded(
    spark: SparkSession,
    t: np.ndarray,
    dirty: np.ndarray,
    truth: np.ndarray,
    s: SpeedConstraint,
    *,
    methods: Sequence[str],
) -> pd.DataFrame:
    """Distributed run of many methods on one fixed dirty series
    (the Table 4 protocol: embedded, labeled real-style errors).

    Rows follow the order of ``methods``.
    """
    t, dirty = as_series(t, dirty)
    truth = as_series(t, truth)[1]
    return _sweep(spark, t, truth, dirty, s, [(m, 0.0, 0) for m in methods], "")


def aggregate_over_seeds(df: pd.DataFrame) -> pd.DataFrame:
    """Average metrics over seeds, keeping (method, rate) rows."""
    return (
        df[df["skipped"] == ""]
        .groupby(["method", "rate"], as_index=False)[METRIC_COLUMNS]
        .mean()
    )


def format_table(df: pd.DataFrame, *, floatfmt: str = "{:.4f}") -> str:
    """Render a metrics frame as a fixed-width text table for job output."""
    cols = list(df.columns)
    widths = {
        c: max(len(str(c)), *(len(_fmt(v, floatfmt)) for v in df[c]))
        for c in cols
    }
    lines = ["  ".join(str(c).ljust(widths[c]) for c in cols)]
    for _, row in df.iterrows():
        lines.append(
            "  ".join(_fmt(row[c], floatfmt).ljust(widths[c]) for c in cols)
        )
    return "\n".join(lines)


def _fmt(v, floatfmt: str) -> str:
    if isinstance(v, float):
        return floatfmt.format(v) if np.isfinite(v) else "-"
    return str(v)
