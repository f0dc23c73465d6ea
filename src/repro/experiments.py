"""Experiment harnesses behind every reproduced table/figure.

The sweep engine distributes a figure's whole experiment grid (case x
method x error rate x seed, where a case is one labelled series, or
method alone for one embedded-error series) as plain Spark tasks of one
job: the cases are broadcast once, every grid cell is one task that
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
#: Float cell format of :func:`format_table`.
FLOAT_FMT = "{:.4f}"
#: One series of a figure: ``(labels, t, X, s, pattern)``, see :func:`sweep_cases`.
Case = tuple[dict, np.ndarray, np.ndarray, SpeedConstraint, str]
#: One fixed dirty series of a figure: ``(labels, t, dirty, truth, s)``, see
#: :func:`sweep_embedded_cases`.
EmbeddedCase = tuple[dict, np.ndarray, np.ndarray, np.ndarray, SpeedConstraint]


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
    cases: list[tuple],
    cells: list[tuple[int, str, float, int]],
) -> pd.DataFrame:
    """One Spark task per ``(case, method, rate, seed)`` cell; rows in cell order.

    A case is ``(labels, t, truth, dirty, s, pattern)``.  With
    ``dirty=None`` each task injects its cell's errors into ``truth``;
    otherwise every cell of the case cleans the given ``dirty`` series.
    Each row starts with its case's ``labels`` columns.
    """
    b = spark.sparkContext.broadcast(cases)

    def run(cell: tuple[int, str, float, int]) -> dict:
        case, method, rate, seed = cell
        labels, t, truth, dirty, s, pattern = b.value[case]
        if dirty is None:
            dirty, _ = inject_errors(truth, rate, pattern=pattern, seed=seed)
        return {**labels, **_run_cell(method, t, dirty, truth, s, rate, seed)}

    rows = spark.sparkContext.parallelize(cells, len(cells)).map(run).collect()
    return pd.DataFrame(rows)


def _injected(
    spark: SparkSession,
    cases: Sequence[Case],
    methods: Sequence[str],
    rates: Sequence[float],
    seeds: Sequence[int],
) -> pd.DataFrame:
    """Every ``(method, rate, seed)`` cell of every ``(labels, t, X, s,
    pattern)`` case as one sweep; cases in order, cells sorted within."""
    grid = sorted(
        (m, float(r), int(sd)) for m in methods for r in rates for sd in seeds
    )
    cases = [
        (labels, *as_series(t, X), None, s, pattern)
        for labels, t, X, s, pattern in cases
    ]
    cells = [(i, *g) for i in range(len(cases)) for g in grid]
    return _sweep(spark, cases, cells)


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
    return _injected(spark, [({}, t, truth, s, pattern)], methods, rates, seeds)


def sweep_cases(
    spark: SparkSession,
    cases: Sequence[Case],
    *,
    methods: Sequence[str],
    rates: Sequence[float],
    seeds: Sequence[int],
) -> pd.DataFrame:
    """One figure's injected-error grid as one Spark job, averaged over seeds.

    Each case is ``(labels, t, X, s, pattern)``: a clean series, its speed
    constraint and error pattern, and the label columns (a dict, e.g.
    ``{"size": n}``) that name it in the table.  Every ``(method, rate,
    seed)`` cell of every case runs as in :func:`sweep_injected`.  Returns
    one row per case, method and rate: the case's label columns first,
    cases in the given order, ``(method, rate)`` sorted within a case.
    """
    return aggregate_over_seeds(_injected(spark, cases, methods, rates, seeds))


def sweep_embedded_cases(
    spark: SparkSession,
    cases: Sequence[EmbeddedCase],
    *,
    methods: Sequence[str],
) -> pd.DataFrame:
    """Many methods on each of several fixed dirty series, as one Spark job
    (the Table 4 protocol: embedded, labeled real-style errors).

    Each case is ``(labels, t, dirty, truth, s)``.  Rows start with the
    case's label columns; cases come in the given order and, within a
    case, rows follow the order of ``methods``.
    """
    series = []
    for labels, t, dirty, truth, s in cases:
        t, dirty = as_series(t, dirty)
        series.append((labels, t, as_series(t, truth)[1], dirty, s, ""))
    cells = [(i, m, 0.0, 0) for i in range(len(series)) for m in methods]
    return _sweep(spark, series, cells)


def aggregate_over_seeds(df: pd.DataFrame) -> pd.DataFrame:
    """Average metrics over seeds, skipped cells dropped.

    One row per group of the remaining columns (a case's labels, method
    and rate), in order of first appearance.
    """
    keys = [c for c in df.columns if c not in {*METRIC_COLUMNS, "seed", "n", "skipped"}]
    return (
        df[df["skipped"] == ""]
        .groupby(keys, as_index=False, sort=False)[METRIC_COLUMNS]
        .mean()
    )


def format_table(df: pd.DataFrame) -> str:
    """Render a metrics frame as a fixed-width text table for job output."""
    cols = list(df.columns)
    widths = {
        c: max(len(str(c)), *(len(_fmt(v)) for v in df[c]))
        for c in cols
    }
    lines = ["  ".join(str(c).ljust(widths[c]) for c in cols)]
    for _, row in df.iterrows():
        lines.append(
            "  ".join(_fmt(row[c]).ljust(widths[c]) for c in cols)
        )
    return "\n".join(lines)


def _fmt(v) -> str:
    if isinstance(v, float):
        return FLOAT_FMT.format(v) if np.isfinite(v) else "-"
    return str(v)
