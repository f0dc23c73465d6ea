"""Structured Streaming online cleaning (the paper's streaming setting).

Micro-batches arrive from a file source; ``foreachBatch`` feeds each
batch, in timestamp order per series, into a persistent online cleaner
picked by method name from :data:`repro.core.ONLINE_CLEANERS`
(MTCSC-L, MTCSC-C or MTCSC-A).  Every online cleaner shares one core,
:class:`~repro.core.online.OnlineCleaner`, which emits a repair as soon
as a key point's lookahead window has fully arrived — exactly the
paper's online contract — and the batch functions drive the same core,
so the drained stream output equals the batch result (asserted in tests).

State is held per series in the driver (the cleaner needs only the last
repaired point plus a ``w``-bounded buffer — constant space, Section 1.3).
A production deployment would move this into
``transformWithStateInPandas``; the dataflow and the state contract are
identical, and the per-batch path below reuses the very same cleaner
objects the batch API uses, which is what the reproduction validates.
"""
from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql.types import (
    ArrayType,
    DoubleType,
    StringType,
    StructField,
    StructType,
)

from . import ONLINE_CLEANERS
from .online import OnlineCleaner
from .speed import SpeedConstraint, as_series

INPUT_SCHEMA = StructType(
    [
        StructField("series_id", StringType()),
        StructField("t", DoubleType()),
        StructField("v", ArrayType(DoubleType())),
    ]
)


class StreamingCleaner:
    """Stateful per-series online cleaner driven by micro-batches."""

    def __init__(self, s: SpeedConstraint, *, variant: str = "MTCSC-L"):
        if variant not in ONLINE_CLEANERS:
            raise ValueError(f"unknown variant {variant!r}")
        self.s = s
        self._cls = ONLINE_CLEANERS[variant]
        self._state: dict[str, OnlineCleaner] = {}
        self.results: list[tuple[str, float, list[float]]] = []

    def process_batch(self, pdf: pd.DataFrame) -> None:
        """Feed one micro-batch (any subset of rows, per-series ordered)."""
        for sid, grp in pdf.groupby("series_id"):
            cleaner = self._state.setdefault(sid, self._cls(self.s))
            grp = grp.sort_values("t")
            for t, v in zip(grp["t"], grp["v"]):
                cleaner.push(float(t), np.asarray(v, float))
            self._drain(sid, cleaner)

    def finish(self) -> pd.DataFrame:
        """Flush every cleaner and return all repairs as a DataFrame."""
        for sid, cleaner in self._state.items():
            cleaner.flush()
            self._drain(sid, cleaner)
        out = pd.DataFrame(self.results, columns=["series_id", "t", "repaired"])
        return out.sort_values(["series_id", "t"]).reset_index(drop=True)

    def _drain(self, sid: str, cleaner: OnlineCleaner) -> None:
        for t, xr, _ in cleaner.drain():
            self.results.append((sid, t, list(map(float, xr))))


def write_stream_files(
    t: np.ndarray,
    X: np.ndarray,
    directory: str | Path,
    *,
    series_id: str = "s0",
    batch_rows: int = 100,
) -> int:
    """Materialize a series as JSON micro-batch files for the file source.

    Returns the number of files written.  File names are zero-padded so
    lexicographic listing order equals time order.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    t, X = as_series(t, X)
    n = len(t)
    n_files = 0
    for start in range(0, n, batch_rows):
        rows = [
            {
                "series_id": series_id,
                "t": float(t[i]),
                "v": [float(x) for x in X[i]],
            }
            for i in range(start, min(start + batch_rows, n))
        ]
        path = directory / f"batch_{start // batch_rows:06d}.json"
        path.write_text("\n".join(json.dumps(r) for r in rows))
        # The file source triggers micro-batches in modification-time
        # order; files written in a tight loop can share an mtime, which
        # would let Spark deliver them out of order.  Stamp strictly
        # increasing mtimes so arrival order equals time order (the
        # paper assumes in-order arrival, Section 5.6 limitation 1).
        stamp = 1_600_000_000 + n_files
        os.utime(path, (stamp, stamp))
        n_files += 1
    return n_files


def run_file_stream(
    spark: SparkSession,
    directory: str | Path,
    s: SpeedConstraint,
    *,
    variant: str = "MTCSC-L",
    max_files_per_trigger: int = 1,
    timeout_s: float = 120.0,
) -> pd.DataFrame:
    """Run the Structured Streaming cleaning job until the source drains.

    Reads JSON micro-batches from ``directory``, cleans them online with
    carried state, and returns the full repaired series as pandas.
    """
    state = StreamingCleaner(s, variant=variant)
    stream = (
        spark.readStream.schema(INPUT_SCHEMA)
        .option("maxFilesPerTrigger", max_files_per_trigger)
        .json(str(directory))
    )

    def on_batch(batch_df, batch_id: int) -> None:
        pdf = batch_df.toPandas()
        if len(pdf):
            state.process_batch(pdf)

    query = stream.writeStream.foreachBatch(on_batch).trigger(
        availableNow=True
    ).start()
    if not query.awaitTermination(timeout_s):
        query.stop()
        raise TimeoutError("streaming query did not drain in time")
    return state.finish()
