"""Distributed cleaning as PySpark dataflow.

Long-format frame convention used across jobs and tests:

    series_id: string, t: double, v: array<double>   (+ optional truth)

Two parallelism regimes:

1. :func:`clean_per_series` — many independent series (UCR/UEA archives,
   multi-seed sweeps): ``groupBy(series_id).applyInPandas`` runs a
   cleaning kernel once per series.

2. :func:`clean_chunked` — one long series: split into row chunks, give
   each chunk a *warm-up* prefix (the rows covering the preceding
   ``warmup`` time units, duplicated from the previous chunk) so the
   online cleaners enter each chunk with realistic local state, clean
   chunks in parallel, drop warm-up rows, reassemble.  The online
   cleaners (MTCSC-L/C/A) depend on the past only through the previous
   repaired point and a ``w``-bounded lookahead, so a warm-up of a few
   windows makes the stitched output match the sequential one except in
   the rare case where an error run spans a chunk boundary longer than
   the warm-up (tests quantify the agreement).

Cleaner kernels are the plain numpy functions from :mod:`repro.core` and
:mod:`repro.baselines`; they run untouched inside Arrow-backed
``applyInPandas`` workers, through one group body (:func:`_kernel`) that
both regimes share.
"""
from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F
from pyspark.sql.types import (
    ArrayType,
    BooleanType,
    DoubleType,
    StringType,
    StructField,
    StructType,
)

from .speed import as_series

CleanFn = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]

CLEAN_SCHEMA = StructType(
    [
        StructField("series_id", StringType()),
        StructField("t", DoubleType()),
        StructField("v", ArrayType(DoubleType())),
        StructField("repaired", ArrayType(DoubleType())),
        StructField("changed", BooleanType()),
    ]
)


def ensure_parallel_groups(spark: SparkSession) -> None:
    """Disable AQE partition coalescing for compute-heavy tiny-data groups.

    The per-series and per-chunk dataflows ship kilobytes of rows into
    ``applyInPandas`` groups that each run seconds of CPU.  AQE sizes
    shuffle partitions by *bytes* and would coalesce all the series or
    chunks into one task, serializing the cleaning; group-count
    parallelism is what matters here.
    """
    spark.conf.set("spark.sql.adaptive.coalescePartitions.enabled", "false")


def to_spark_long(
    spark: SparkSession,
    t: np.ndarray,
    X: np.ndarray,
    *,
    series_id: str = "s0",
    truth: np.ndarray | None = None,
) -> DataFrame:
    """Pack one numpy series into the long-format Spark frame."""
    t, X = as_series(t, X)
    pdf = pd.DataFrame(
        {
            "series_id": series_id,
            "t": t,
            "v": list(map(list, X)),
        }
    )
    if truth is not None:
        pdf["truth"] = list(map(list, as_series(t, truth)[1]))
    return spark.createDataFrame(pdf)


def _kernel(clean_fn: CleanFn, schema: StructType):
    """Wrap a numpy cleaner as an applyInPandas kernel over one group.

    The output columns are those of ``schema``; any besides ``repaired``
    and ``changed`` pass through from the sorted input group.
    """
    columns = schema.fieldNames()

    def run(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values("t").reset_index(drop=True)
        t = pdf["t"].to_numpy(float)
        X = np.array(pdf["v"].tolist(), dtype=float)
        Xr, changed = clean_fn(t, X)
        out = {"repaired": list(map(list, Xr)), "changed": changed.astype(bool)}
        return pd.DataFrame({c: out[c] if c in out else pdf[c] for c in columns})

    return run


def clean_per_series(df: DataFrame, clean_fn: CleanFn) -> DataFrame:
    """Clean every series of a long-format frame independently in parallel."""
    ensure_parallel_groups(df.sparkSession)
    return df.select("series_id", "t", "v").groupBy("series_id").applyInPandas(
        _kernel(clean_fn, CLEAN_SCHEMA), schema=CLEAN_SCHEMA
    )


def clean_chunked(
    df: DataFrame,
    clean_fn: CleanFn,
    *,
    chunk_rows: int,
    warmup: float,
) -> DataFrame:
    """Clean one long series in parallel chunks with warm-up overlap.

    ``warmup`` is in *time units* (use a few multiples of the constraint
    window ``w``).  Rows of the previous ``warmup`` time units are
    duplicated into each chunk, cleaned, then dropped, so every emitted
    repair was produced with locally converged cleaner state.
    """
    if chunk_rows <= 0:
        raise ValueError("chunk_rows must be positive")
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    ensure_parallel_groups(df.sparkSession)
    w = (
        df.select("series_id", "t", "v")
        .withColumn(
            "rid",
            F.row_number().over(Window.partitionBy("series_id").orderBy("t")) - 1,
        )
        .withColumn("chunk", (F.col("rid") / chunk_rows).cast("long"))
    )
    # Chunk start times, to compute each chunk's warm-up span.
    starts = w.groupBy("series_id", "chunk").agg(F.min("t").alias("t_start"))
    # A row belongs to its own chunk, and is replicated into the next
    # chunk when it falls within that chunk's warm-up span.
    own = w.select("series_id", "chunk", "t", "v", F.lit(False).alias("is_warmup"))
    nxt = (
        w.withColumn("chunk", F.col("chunk") + 1)
        .join(starts, ["series_id", "chunk"])
        .where((F.col("t") >= F.col("t_start") - warmup) & (F.col("t") < F.col("t_start")))
        .select("series_id", "chunk", "t", "v", F.lit(True).alias("is_warmup"))
    )
    both = own.unionByName(nxt)

    schema = StructType(CLEAN_SCHEMA.fields + [StructField("is_warmup", BooleanType())])
    return (
        both.groupBy("series_id", "chunk")
        .applyInPandas(_kernel(clean_fn, schema), schema=schema)
        .where(~F.col("is_warmup"))
        .drop("is_warmup")
    )


def attach_truth(cleaned: DataFrame, truth_df: DataFrame) -> DataFrame:
    """Join ground truth back on (series_id, t) for metric aggregation.

    ``truth_df`` must have columns ``series_id, t, truth`` (array).
    Output adds ``original`` (alias of ``v``) for
    :func:`repro.metrics.spark_metrics`.
    """
    return (
        cleaned.join(truth_df.select("series_id", "t", "truth"), ["series_id", "t"])
        .withColumnRenamed("v", "original")
    )
