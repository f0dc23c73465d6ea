"""Structured Streaming online cleaning (the paper's streaming setting).

Micro-batches arrive from a file source; ``foreachBatch`` hands each
series' rows of a batch, in timestamp order, as one block to a
persistent online cleaner picked by method name from
:data:`repro.core.ONLINE_CLEANERS` (MTCSC-L, MTCSC-C or MTCSC-A).  Every
online cleaner shares one core, :class:`~repro.core.online.OnlineCleaner`,
whose ``feed`` validates the block and returns each repair as soon as its
key point's lookahead window has fully arrived — exactly the paper's
online contract.  The batch functions feed the same core the whole series
as one block, so the stream output equals the batch result once the
stream drains, whatever the batch boundaries (asserted in tests).

State is held per series in the driver: the cleaner needs only the last
repaired point plus its ``w``-bounded window, so between batches it holds
at most the window plus one batch — constant space, Section 1.3.
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
from pyspark.sql.types import StructType

from . import ONLINE_CLEANERS
from .online import OnlineCleaner
from .spark_clean import INPUT_FIELDS
from .speed import SpeedConstraint, as_series

INPUT_SCHEMA = StructType(INPUT_FIELDS)
#: The series id :func:`write_stream_files` writes.
SERIES_ID = "s0"
#: Files read per micro-batch by :func:`run_file_stream`.
MAX_FILES_PER_TRIGGER = 1
#: Seconds :func:`run_file_stream` waits for the source to drain.
TIMEOUT_S = 120.0


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
        """Feed one micro-batch (any subset of rows, per-series ordered).

        One ``lexsort`` on ``(series_id, t)`` orders the batch and ``v`` is
        stacked once, so every row of a batch has the same dimension
        count; each series' slice is one block for
        :meth:`~repro.core.online.OnlineCleaner.feed`, which applies the
        input contract.
        """
        if not len(pdf):
            return
        sid, t = pdf["series_id"].to_numpy(), pdf["t"].to_numpy()
        order = np.lexsort((t, sid))
        sid, t = sid[order], t[order]
        v = np.array(pdf["v"].tolist(), float)[order]
        cut = np.flatnonzero(sid[1:] != sid[:-1]) + 1
        for lo, hi in zip(np.r_[0, cut], np.r_[cut, len(sid)]):
            key = sid[lo]
            if key not in self._state:
                self._state[key] = self._cls(self.s)
            self._record(key, *self._state[key].feed(t[lo:hi], v[lo:hi]))

    def finish(self) -> pd.DataFrame:
        """Flush every cleaner and return all repairs as a DataFrame."""
        for sid, cleaner in self._state.items():
            self._record(sid, *cleaner.flush())
        out = pd.DataFrame(self.results, columns=["series_id", "t", "repaired"])
        return out.sort_values(["series_id", "t"]).reset_index(drop=True)

    def _record(self, sid: str, t: np.ndarray, Xr: np.ndarray) -> None:
        self.results += zip([sid] * len(t), t.tolist(), Xr.tolist())


def write_stream_files(
    t: np.ndarray,
    X: np.ndarray,
    directory: str | Path,
    *,
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
                "series_id": SERIES_ID,
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
) -> pd.DataFrame:
    """Run the Structured Streaming cleaning job until the source drains.

    Reads JSON micro-batches from ``directory``, cleans them online with
    carried state, and returns the full repaired series as pandas.
    """
    state = StreamingCleaner(s, variant=variant)
    stream = (
        spark.readStream.schema(INPUT_SCHEMA)
        .option("maxFilesPerTrigger", MAX_FILES_PER_TRIGGER)
        .json(str(directory))
    )

    def on_batch(batch_df, batch_id: int) -> None:
        state.process_batch(batch_df.toPandas())

    query = stream.writeStream.foreachBatch(on_batch).trigger(
        availableNow=True
    ).start()
    if not query.awaitTermination(TIMEOUT_S):
        query.stop()
        raise TimeoutError("streaming query did not drain in time")
    return state.finish()
