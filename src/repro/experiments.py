"""Experiment harnesses behind every reproduced table/figure.

The sweep engine distributes the full experiment grid (method x error
rate x seed, or method x size, ...) as a Spark dataflow: one long-format
group per grid cell, cleaned inside ``applyInPandas`` workers, with the
metrics computed in the worker and collected as a small result table.
This is where the reproduction leans on Spark for the paper's
multi-seed, multi-method evaluation protocol (10 seeds per point,
Section 5.1.1).
"""
from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql.types import (
    DoubleType,
    LongType,
    StringType,
    StructField,
    StructType,
)

from repro.core.spark_clean import ensure_parallel_groups
from repro.core.speed import SpeedConstraint, as_series
from repro.errors import inject_errors
from repro.methods import METHODS, Context, SkipMethod
from repro.metrics import evaluate

RESULT_SCHEMA = StructType(
    [
        StructField("method", StringType()),
        StructField("rate", DoubleType()),
        StructField("seed", LongType()),
        StructField("n", LongType()),
        StructField("rmse", DoubleType()),
        StructField("repair_distance", DoubleType()),
        StructField("repair_number", DoubleType()),
        StructField("repair_fraction", DoubleType()),
        StructField("seconds", DoubleType()),
        StructField("skipped", StringType()),
    ]
)


def _run_cell(
    method: str,
    t: np.ndarray,
    dirty: np.ndarray,
    truth: np.ndarray,
    ctx: Context,
    rate: float,
    seed: int,
) -> dict:
    """Run one method on one dirty series; metrics + wall time."""
    row = {
        "method": method,
        "rate": float(rate),
        "seed": int(seed),
        "n": len(t),
        "rmse": float("nan"),
        "repair_distance": float("nan"),
        "repair_number": float("nan"),
        "repair_fraction": float("nan"),
        "seconds": float("nan"),
        "skipped": "",
    }
    fn = METHODS[method]
    start = time.perf_counter()
    try:
        Xr, _ = fn(t, dirty, ctx)
    except SkipMethod as e:
        row["skipped"] = str(e)
        return row
    row["seconds"] = time.perf_counter() - start
    row.update(
        {
            k: float(v)
            for k, v in evaluate(Xr, dirty, truth).items()
        }
    )
    return row


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
    collected result table as pandas.
    """
    t, truth = as_series(t, truth)
    ensure_parallel_groups(spark)
    sc = spark.sparkContext
    b_t = sc.broadcast(t)
    b_truth = sc.broadcast(truth)
    grid = [
        (m, float(r), int(sd))
        for m in methods
        for r in rates
        for sd in seeds
    ]
    grid_df = spark.createDataFrame(
        pd.DataFrame(grid, columns=["method", "rate", "seed"])
    )

    def run(pdf: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for method, rate, seed in pdf[["method", "rate", "seed"]].itertuples(
            index=False
        ):
            tt = b_t.value
            tr = b_truth.value
            dirty, _ = inject_errors(tr, rate, pattern=pattern, seed=int(seed))
            ctx = Context(s=s, truth=tr)
            rows.append(_run_cell(method, tt, dirty, tr, ctx, rate, seed))
        return pd.DataFrame(rows)

    out = (
        grid_df.groupBy("method", "rate", "seed")
        .applyInPandas(run, schema=RESULT_SCHEMA)
        .toPandas()
    )
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
    (the Table 4 protocol: embedded, labeled real-style errors)."""
    t, dirty = as_series(t, dirty)
    truth = as_series(t, truth)[1]
    ensure_parallel_groups(spark)
    sc = spark.sparkContext
    b = sc.broadcast((t, dirty, truth))
    grid_df = spark.createDataFrame(
        pd.DataFrame({"method": list(methods), "rate": 0.0, "seed": 0})
    )

    def run(pdf: pd.DataFrame) -> pd.DataFrame:
        tt, dd, tr = b.value
        rows = [
            _run_cell(method, tt, dd, tr, Context(s=s, truth=tr), 0.0, 0)
            for method in pdf["method"]
        ]
        return pd.DataFrame(rows)

    out = (
        grid_df.groupBy("method")
        .applyInPandas(run, schema=RESULT_SCHEMA)
        .toPandas()
    )
    # Preserve the requested method order.
    order = {m: i for i, m in enumerate(methods)}
    return (
        out.assign(_o=out["method"].map(order))
        .sort_values("_o")
        .drop(columns="_o")
        .reset_index(drop=True)
    )


def aggregate_over_seeds(df: pd.DataFrame) -> pd.DataFrame:
    """Average metrics over seeds, keeping (method, rate) rows."""
    keep = ["rmse", "repair_distance", "repair_number", "repair_fraction", "seconds"]
    return (
        df[df["skipped"] == ""]
        .groupby(["method", "rate"], as_index=False)[keep]
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
