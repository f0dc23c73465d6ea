"""Distributed cleaning as PySpark dataflow.

Long-format frame convention used across jobs and tests:

    series_id: string, t: double, v: array<double>

Two parallelism regimes, each one cleaning stage of
``sparkContext.defaultParallelism`` partitions:

1. :func:`clean_per_series` — many independent series (the UCR/UEA
   archives of Figure 16): ``groupBy(series_id).applyInPandas`` runs a
   cleaning kernel once per series.

2. :func:`clean_chunked` — one long series: split into row chunks, give
   each chunk a *warm-up* prefix (the rows of the previous chunk only
   that cover the preceding ``warmup`` time units) so the online
   cleaners enter each chunk with realistic local state, clean chunks in
   parallel, drop warm-up rows, reassemble.  The online cleaners
   (MTCSC-L/C/A) depend on the past only through the previous repaired
   point and a ``w``-bounded lookahead, so a warm-up of a few windows
   makes the stitched output match the sequential one except in the rare
   case where an error run spans a chunk boundary longer than the
   warm-up (tests quantify the agreement).

Cleaner kernels are the plain numpy functions from :mod:`repro.core` and
:mod:`repro.baselines`; they run untouched inside Arrow-backed
``applyInPandas`` workers, through one group body (:func:`_kernel`) that
both regimes share.  Neither regime writes the session's conf.
"""
from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import (
    ArrayType,
    BooleanType,
    DoubleType,
    LongType,
    StringType,
    StructField,
    StructType,
)

from .speed import as_series

CleanFn = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]

INPUT_FIELDS = [
    StructField("series_id", StringType()),
    StructField("t", DoubleType()),
    StructField("v", ArrayType(DoubleType())),
]

CLEAN_SCHEMA = StructType(
    INPUT_FIELDS
    + [
        StructField("repaired", ArrayType(DoubleType())),
        StructField("changed", BooleanType()),
    ]
)

WARMUP_FIELD = StructField("is_warmup", BooleanType())

LABEL_SCHEMA = StructType(INPUT_FIELDS + [StructField("chunk", LongType()), WARMUP_FIELD])


def to_spark_long(
    spark: SparkSession,
    t: np.ndarray,
    X: np.ndarray,
    *,
    series_id: str = "s0",
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


def _label_chunks(chunk_rows: int, warmup: float):
    """applyInPandas body over one series: label each row with its chunk.

    Row ``i`` (in ``t`` order) belongs to chunk ``i // chunk_rows``, and is
    copied into the next chunk as a warm-up row when that chunk exists and
    starts no more than ``warmup`` time units after it.
    """
    columns = LABEL_SCHEMA.fieldNames()

    def run(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values("t").reset_index(drop=True)
        t = pdf["t"].to_numpy(float)
        chunk = np.arange(len(t)) // chunk_rows
        # Each chunk's first t; the inf start of the chunk after the last
        # keeps the last chunk's (finite) rows from being copied.
        start = np.append(t[::chunk_rows], np.inf)
        warm = t >= start[chunk + 1] - warmup
        own = pdf.assign(chunk=chunk, is_warmup=False)
        copies = pdf[warm].assign(chunk=chunk[warm] + 1, is_warmup=True)
        return pd.concat([own, copies], ignore_index=True)[columns]

    return run


def clean_per_series(df: DataFrame, clean_fn: CleanFn) -> DataFrame:
    """Clean every series of a long-format frame independently in parallel."""
    n = df.sparkSession.sparkContext.defaultParallelism
    return (
        df.select("series_id", "t", "v")
        .repartition(n, "series_id")
        .groupBy("series_id")
        .applyInPandas(_kernel(clean_fn, CLEAN_SCHEMA), schema=CLEAN_SCHEMA)
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
    window ``w``).  The rows of the previous chunk that fall in the
    ``warmup`` time units before a chunk's first point are duplicated into
    that chunk, cleaned, then dropped, so every emitted repair was
    produced with locally converged cleaner state.  Warm-up rows come
    from the previous chunk only, even when ``warmup`` spans more.
    """
    if chunk_rows <= 0:
        raise ValueError("chunk_rows must be positive")
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    n = df.sparkSession.sparkContext.defaultParallelism
    schema = StructType(CLEAN_SCHEMA.fields + [WARMUP_FIELD])
    # The explicit repartition keeps the chunks apart: a group stage left
    # to AQE is coalesced by bytes, and kilobytes of chunks become one task.
    return (
        df.select("series_id", "t", "v")
        .groupBy("series_id")
        .applyInPandas(_label_chunks(chunk_rows, warmup), schema=LABEL_SCHEMA)
        .repartition(n, "series_id", "chunk")
        .groupBy("series_id", "chunk")
        .applyInPandas(_kernel(clean_fn, schema), schema=schema)
        .where(~F.col("is_warmup"))
        .drop("is_warmup")
    )
