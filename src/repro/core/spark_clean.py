"""Distributed cleaning as PySpark dataflow over long-format frames
``(series_id: string, t: double, v: array<double>)``, in two regimes of one
cleaning stage of ``sparkContext.defaultParallelism`` partitions each:
:func:`clean_per_series` cleans many independent series (the UCR/UEA
archives of Figure 16), one kernel call per series, and
:func:`clean_chunked` cleans one long series in parallel row chunks.

Both share one Arrow-only runner: ``mapInArrow`` feeds a partition's
batches to :func:`_runs`, which sorts them in Arrow by the group key, then
``t``, and calls a body once per *run* (consecutive rows with one key).  No
JVM sort runs, and in the session of :func:`repro.jobrun.default_spark`,
which runs without AQE, each clean call is one Spark job.  The numpy
kernels of :mod:`repro.core` and :mod:`repro.baselines` get ``t`` and ``v``
as read-only views of the Arrow buffers.  The run bodies import no pandas
into a worker: Arrow's ``to_numpy`` and ``pa.array`` would, so
:func:`_view` and :func:`_arrow` go by the buffers.  Neither regime writes
the session's conf.
"""
from __future__ import annotations

import numbers
from collections.abc import Callable, Iterator

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import ArrayType, BooleanType, DoubleType, IntegerType, StringType
from pyspark.sql.types import StructField, StructType

from .speed import as_series

CleanFn = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
RunBody = Callable[[pa.RecordBatch], pa.RecordBatch]

INPUT_FIELDS = [
    StructField("series_id", StringType()),
    StructField("t", DoubleType()),
    StructField("v", ArrayType(DoubleType())),
]

CLEAN_SCHEMA = StructType(
    INPUT_FIELDS
    + [StructField("repaired", ArrayType(DoubleType())), StructField("changed", BooleanType())]
)

# ``chunk`` is an INT: ``repartitionById`` takes no other partition id.
LABEL_SCHEMA = StructType(
    INPUT_FIELDS + [StructField("chunk", IntegerType()), StructField("is_warmup", BooleanType())]
)


def _view(a: pa.Array, dtype: type, extra: int = 0) -> np.ndarray:
    """Read-only numpy view of ``len(a) + extra`` items of ``a``'s data
    buffer (a list's offsets take ``extra=1``); ``a`` must hold no null."""
    if a.null_count:
        raise ValueError("t and v must not be null")
    size = np.dtype(dtype).itemsize
    return np.frombuffer(a.buffers()[1], dtype, len(a) + extra, a.offset * size)


def _arrow(values: np.ndarray) -> pa.Array:
    """A contiguous 1-D float64, int32 or bool numpy array as an Arrow array."""
    data = np.packbits(values, bitorder="little") if values.dtype == bool else values
    kind = pa.from_numpy_dtype(values.dtype)
    return pa.Array.from_buffers(kind, len(values), [None, pa.py_buffer(data)])


def _lists(X: np.ndarray) -> pa.ListArray:
    """The rows of an ``(n, D)`` float array as an Arrow list column."""
    offsets = np.arange(len(X) + 1, dtype=np.int32) * X.shape[1]
    return pa.ListArray.from_arrays(_arrow(offsets), _arrow(np.asarray(X, float).ravel()))


def to_spark_long(
    spark: SparkSession, t: np.ndarray, X: np.ndarray, *, series_id: str = "s0"
) -> DataFrame:
    """Pack one numpy series into the long-format Spark frame."""
    t, X = as_series(t, X)
    ids = pa.array([series_id] * len(t), pa.string())
    return spark.createDataFrame(pa.table({"series_id": ids, "t": t, "v": _lists(X)}))


def _runs(keys: tuple[str, ...], body: RunBody):
    """``mapInArrow`` function: sort the partition's batches by ``keys``,
    then ``t``, and call ``body`` once per run of equal ``keys``."""

    def run(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        batches = list(filter(len, batches))  # skips empty batches
        if not batches:
            return
        order = [(k, "ascending") for k in (*keys, "t")]
        batch = pa.Table.from_batches(batches).sort_by(order).combine_chunks().to_batches()[0]
        ends = [_view(pc.run_end_encode(batch.column(k)).run_ends, np.int32) for k in keys]
        starts = [0, *np.unique(np.concatenate(ends))]
        for a, b in zip(starts[:-1], starts[1:]):
            yield body(batch.slice(a, b - a))

    return run


def _clean(clean_fn: CleanFn) -> RunBody:
    """Run body: clean one series or chunk and emit its own rows.  A
    chunk's warm-up rows precede its own in ``t``: they are its first."""

    def body(run: pa.RecordBatch) -> pa.RecordBatch:
        v = run.column("v")
        width = np.diff(_view(v, np.int32, 1))
        if np.any(width != width[0]):
            raise ValueError("every v of a series must have one length")
        X = _view(v.flatten(), np.float64).reshape(len(v), width[0])
        Xr, changed = clean_fn(_view(run.column("t"), np.float64), X)
        k = run.column("is_warmup").true_count if "is_warmup" in run.schema.names else 0
        columns = [run.column(f.name).slice(k) for f in INPUT_FIELDS]
        columns += [_lists(Xr[k:]), _arrow(np.asarray(changed[k:], bool))]
        return pa.RecordBatch.from_arrays(columns, names=CLEAN_SCHEMA.fieldNames())

    return body


def _label(chunk_rows: int, warmup: float) -> RunBody:
    """Run body over one series: row ``i`` (in ``t`` order) goes to chunk
    ``i // chunk_rows``, and is copied into the next chunk as a warm-up row
    when that chunk exists and starts at most ``warmup`` time units later."""

    def body(run: pa.RecordBatch) -> pa.RecordBatch:
        t = _view(run.column("t"), np.float64)
        chunk = (np.arange(len(t)) // chunk_rows).astype(np.int32)
        # Each chunk's first t; the inf start of the chunk after the last
        # keeps the last chunk's (finite) rows from being copied.
        start = np.append(t[::chunk_rows], np.inf)
        copied = np.flatnonzero(t >= start[chunk + 1] - warmup)
        rows = run.take(_arrow(np.concatenate([np.arange(len(t)), copied]).astype(np.int32)))
        warm = _arrow(np.arange(rows.num_rows) >= len(t))
        columns = [*rows.columns, _arrow(np.concatenate([chunk, chunk[copied] + 1])), warm]
        return pa.RecordBatch.from_arrays(columns, names=LABEL_SCHEMA.fieldNames())

    return body


def clean_per_series(df: DataFrame, clean_fn: CleanFn) -> DataFrame:
    """Clean every series of a long-format frame independently in parallel."""
    n = df.sparkSession.sparkContext.defaultParallelism
    by_series = df.select("series_id", "t", "v").repartition(n, "series_id")
    return by_series.mapInArrow(_runs(("series_id",), _clean(clean_fn)), CLEAN_SCHEMA)


def clean_chunked(
    df: DataFrame, clean_fn: CleanFn, *, chunk_rows: int, warmup: float
) -> DataFrame:
    """Clean one long series in parallel chunks with warm-up overlap.

    ``warmup`` is in *time units* (use a few multiples of the constraint
    window ``w``).  The previous chunk's rows in the ``warmup`` time units
    before a chunk's first point are copied into it, cleaned, then
    dropped.  The online cleaners (MTCSC-L/C/A) depend on the past only
    through the previous repair and a ``w``-bounded lookahead, so the
    output matches the sequential one except where an error run spans a
    boundary longer than the warm-up (tests quantify it).

    One Spark job of two stages: one task reads the whole frame (and runs
    its narrow upstream) and labels each series' chunks; one exchange then
    sends chunk ``k`` to partition ``(h + k) mod n``, ``h`` the series'
    hash, for the ``n`` cleaning tasks.
    """
    if not isinstance(chunk_rows, numbers.Integral) or chunk_rows <= 0:
        raise ValueError("chunk_rows must be a positive integer")
    if not warmup >= 0:  # also rejects NaN
        raise ValueError("warmup must be non-negative")
    n = df.sparkSession.sparkContext.defaultParallelism
    label = _runs(("series_id",), _label(chunk_rows, warmup))
    labelled = df.select("series_id", "t", "v").coalesce(1).mapInArrow(label, LABEL_SCHEMA)
    # An explicit count sizes the clean stage: the exchange would otherwise
    # take the session's 200 shuffle partitions, and AQE (off in
    # default_spark) would coalesce a kilobyte-sized stage to one task.
    # repartitionById takes the id modulo n; pmod first keeps the INT sum
    # in range.
    chunk_id = F.expr(f"pmod(hash(series_id), {n}) + chunk")
    by_chunk = labelled.repartitionById(n, chunk_id)
    return by_chunk.mapInArrow(_runs(("series_id", "chunk"), _clean(clean_fn)), CLEAN_SCHEMA)
