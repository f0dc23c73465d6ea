"""Spark dataflow layer: per-series and chunked parallel cleaning, the
exact chunk groups, the Arrow run bodies' input contract, the plan's
sizing and chunk placement, the Python workers' runtime, method
registry."""
import functools
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from pyspark.errors import PythonException
from pyspark.sql import functions as F
from pyspark.sql.types import StructType

import repro
from repro.core import SpeedConstraint, mtcsc_c, mtcsc_l
from repro.core.spark_clean import (
    CLEAN_SCHEMA,
    INPUT_FIELDS,
    _clean,
    _label,
    _runs,
    clean_chunked,
    clean_per_series,
    to_spark_long,
)
from repro.datasets import gps_walk
from repro.methods import METHODS, Context, SkipMethod
from repro.metrics import evaluate

S = SpeedConstraint(1.6, 45.0)


def _clean_fn(t, X):
    return mtcsc_c(t, X, S)


@pytest.fixture(scope="module")
def gps_small():
    return gps_walk(1200, seed=2)


class TestToSparkLong:
    def test_roundtrip(self, spark, gps_small):
        t, dirty, truth, mask = gps_small
        df = to_spark_long(spark, t, dirty)
        assert df.count() == len(t)
        row = df.orderBy("t").first()
        assert row.series_id == "s0"
        assert row.v == pytest.approx(list(dirty[0]))


class TestCleanPerSeries:
    def test_matches_numpy_single_series(self, spark, gps_small):
        t, dirty, truth, mask = gps_small
        df = to_spark_long(spark, t, dirty)
        out = clean_per_series(df, _clean_fn).orderBy("t").toPandas()
        want, want_ch = mtcsc_c(t, dirty, S)
        got = np.array(out["repaired"].tolist())
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(out["changed"].to_numpy(), want_ch)

    def test_multiple_series_independent(self, spark):
        # Two series cleaned in one job == each cleaned alone.
        t1, d1, _, _ = gps_walk(400, seed=3)
        t2, d2, _, _ = gps_walk(400, seed=4)
        df = to_spark_long(spark, t1, d1, series_id="a").unionByName(
            to_spark_long(spark, t2, d2, series_id="b")
        )
        out = clean_per_series(df, _clean_fn).toPandas()
        for sid, t, d in (("a", t1, d1), ("b", t2, d2)):
            part = out[out.series_id == sid].sort_values("t")
            want, want_ch = mtcsc_c(t, d, S)
            np.testing.assert_array_equal(np.array(part["repaired"].tolist()), want)
            np.testing.assert_array_equal(part["changed"].to_numpy(), want_ch)


class TestCleanChunked:
    def test_close_to_sequential(self, spark, gps_small):
        t, dirty, truth, mask = gps_small
        df = to_spark_long(spark, t, dirty)
        out = (
            clean_chunked(df, _clean_fn, chunk_rows=300, warmup=3 * S.window)
            .orderBy("t")
            .toPandas()
        )
        assert len(out) == len(t)
        got = np.array(out["repaired"].tolist())
        want, _ = mtcsc_c(t, dirty, S)
        # Chunked online cleaning re-converges after each boundary; all
        # but a tiny fraction of points must agree with sequential.
        agree = np.all(np.abs(got - want) < 1e-6, axis=1).mean()
        assert agree > 0.98
        # And the chunked repair must still clean the data.
        m = evaluate(got, dirty, truth)
        dirty_rmse = evaluate(dirty, dirty, truth)["rmse"]
        assert m["rmse"] < 0.5 * dirty_rmse

    def test_rows_preserved_no_duplicates(self, spark, gps_small):
        t, dirty, truth, mask = gps_small
        df = to_spark_long(spark, t, dirty)
        out = clean_chunked(df, _clean_fn, chunk_rows=250, warmup=45.0)
        assert out.count() == len(t)
        assert out.select("t").distinct().count() == len(t)

    def test_invalid_params(self, spark, gps_small):
        t, dirty, truth, mask = gps_small
        df = to_spark_long(spark, t, dirty)
        with pytest.raises(ValueError):
            clean_chunked(df, _clean_fn, chunk_rows=0, warmup=1.0)
        with pytest.raises(ValueError):
            clean_chunked(df, _clean_fn, chunk_rows=10, warmup=-1.0)

    @pytest.mark.parametrize(
        "chunk_rows, warmup",
        [(10, float("nan")), (2.5, 1.0), (10.0, 1.0)],
        ids=["nan-warmup", "fractional-rows", "float-rows"],
    )
    def test_invalid_params_raise_in_driver(self, spark, gps_small, chunk_rows, warmup):
        # A NaN warm-up passed `warmup < 0` and copied no rows, and a
        # non-integer chunk_rows failed only inside a worker; now the call
        # itself raises, before any action could start a job.
        t, dirty, truth, mask = gps_small
        df = to_spark_long(spark, t, dirty)
        with pytest.raises(ValueError, match="chunk_rows|warmup"):
            clean_chunked(df, _reveal_group, chunk_rows=chunk_rows, warmup=warmup)


def _reveal_group(t, X):
    """Write the group's first ``t`` and row count into every repair."""
    return np.tile([t[0], len(t)], (len(t), 1)), np.zeros(len(t), bool)


def _chunk_groups(t, chunk_rows, warmup):
    """Reference chunk rule: (first t, row count) of each row's group.

    Chunk ``c`` holds rows ``[c*chunk_rows, (c+1)*chunk_rows)`` plus, as
    warm-up, the rows of chunk ``c-1`` (only) that are no more than
    ``warmup`` before the chunk's first ``t``.
    """
    want = np.empty((len(t), 2))
    for c, first in enumerate(t[::chunk_rows]):
        own = slice(c * chunk_rows, (c + 1) * chunk_rows)
        prev = t[max(0, (c - 1) * chunk_rows) : c * chunk_rows]
        members = np.concatenate([prev[prev >= first - warmup], t[own]])
        want[own] = [members[0], len(members)]
    return want


def _irregular_series(n, seed):
    # Whole-number gaps of 1-3 put rows exactly on a warm-up boundary.
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.integers(1, 4, n)).astype(float), rng.normal(size=(n, 3))


class TestChunkGroups:
    @pytest.mark.parametrize(
        "chunk_rows, warmup, lengths",
        [
            (25, 0.0, (120,)),
            (10, 1000.0, (120,)),  # warm-up spans many chunks: previous only
            (1, 3.0, (40,)),
            (500, 5.0, (120,)),  # one chunk
            (30, 8.0, (120, 75)),  # two series in one frame
        ],
        ids=["warmup0", "warmup-over-chunks", "one-row-chunks", "one-chunk", "two-series"],
    )
    def test_groups_exact(self, spark, chunk_rows, warmup, lengths):
        series = {
            f"s{i}": _irregular_series(n, seed=10 + i) for i, n in enumerate(lengths)
        }
        df = None
        for sid, (t, X) in series.items():
            part = to_spark_long(spark, t, X, series_id=sid)
            df = part if df is None else df.unionByName(part)
        out = clean_chunked(df, _reveal_group, chunk_rows=chunk_rows, warmup=warmup)
        out = out.toPandas()
        assert len(out) == sum(lengths)
        for sid, (t, X) in series.items():
            part = out[out.series_id == sid].sort_values("t")
            np.testing.assert_array_equal(part["t"].to_numpy(), t)
            np.testing.assert_array_equal(
                np.array(part["repaired"].tolist()), _chunk_groups(t, chunk_rows, warmup)
            )


def test_shuffled_input_with_extra_column(spark):
    # One series in 7 shuffled partitions, its columns reordered and one
    # more: both regimes select their columns and sort each run in Arrow.
    t, X = _irregular_series(600, seed=21)
    df = to_spark_long(spark, t, X).withColumn("extra", F.lit("x")).repartition(7)
    df = df.select("v", "extra", "t", "series_id")
    assert df.rdd.getNumPartitions() == 7
    chunked = clean_chunked(df, _reveal_group, chunk_rows=70, warmup=6.0).toPandas()
    chunked = chunked.sort_values("t")
    np.testing.assert_array_equal(chunked["t"].to_numpy(), t)
    np.testing.assert_array_equal(
        np.array(chunked["repaired"].tolist()), _chunk_groups(t, 70, 6.0)
    )
    per_series = clean_per_series(df, _clean_fn).toPandas().sort_values("t")
    want, want_ch = _clean_fn(t, X)
    np.testing.assert_array_equal(np.array(per_series["repaired"].tolist()), want)
    np.testing.assert_array_equal(per_series["changed"].to_numpy(), want_ch)


REGIMES = {
    "per-series": clean_per_series,
    "chunked": functools.partial(clean_chunked, chunk_rows=2, warmup=1.0),
}


class TestRunBodyContract:
    """The Arrow run body keeps the input contract of the pandas body it
    replaced: one non-null ``v`` of one length per row of a series."""

    def _frame(self, spark, rows):
        return spark.createDataFrame(rows, StructType(INPUT_FIELDS))

    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize(
        "rows",
        [
            # Lengths 1 and 3 sum to 2 rows x 2: a plain reshape would pass.
            [("a", 0.0, [1.0]), ("a", 1.0, [1.0, 2.0, 3.0])],
            # Lengths 2, 1, 3 sum to 3 rows x the first length.
            [("a", 0.0, [1.0, 2.0]), ("a", 1.0, [1.0]), ("a", 2.0, [1.0, 2.0, 3.0])],
            [("a", 0.0, None), ("a", 1.0, [1.0, 2.0])],
            # Null lists of one (zero) length.
            [("a", 0.0, None), ("a", 1.0, None)],
            [("a", None, [1.0]), ("a", 1.0, [2.0])],
        ],
        ids=["ragged", "ragged-first-fits", "null-v", "null-v-only", "null-t"],
    )
    def test_bad_input_raises(self, spark, regime, rows):
        df = self._frame(spark, rows)
        with pytest.raises(PythonException, match="ValueError"):
            REGIMES[regime](df, _reveal_group).collect()

    @pytest.mark.parametrize("regime", REGIMES)
    def test_empty_frame(self, spark, regime):
        out = REGIMES[regime](self._frame(spark, []), _reveal_group)
        assert out.schema == CLEAN_SCHEMA
        assert out.collect() == []


class _Method:
    """Picklable ``clean_fn``: one ``METHODS`` cleaner under a context."""

    def __init__(self, name, ctx):
        self.name, self.ctx = name, ctx

    def __call__(self, t, X):
        return METHODS[self.name](t, X, self.ctx)


@pytest.fixture(scope="module")
def two_series(spark):
    series = {sid: gps_walk(n, seed=seed)[:2] for sid, n, seed in (("a", 150, 5), ("b", 110, 6))}
    df = None
    for sid, (t, X) in series.items():
        part = to_spark_long(spark, t, X, series_id=sid)
        df = part if df is None else df.unionByName(part)
    return series, df.cache()


@pytest.mark.parametrize("name", sorted(METHODS))
def test_every_method_on_read_only_arrow_input(spark, two_series, name):
    # The body hands each kernel read-only views of the Arrow buffers: a
    # cleaner that wrote its input would fail here.
    series, df = two_series
    ctx = Context(s=S)
    try:
        want = {sid: METHODS[name](t, X, ctx) for sid, (t, X) in series.items()}
    except SkipMethod:
        pytest.skip(f"{name} does not apply to 2-D GPS data")
    out = clean_per_series(df, _Method(name, ctx)).toPandas()
    for sid, (Xr, changed) in want.items():
        part = out[out.series_id == sid].sort_values("t")
        np.testing.assert_array_equal(np.array(part["repaired"].tolist()), Xr)
        np.testing.assert_array_equal(part["changed"].to_numpy(), changed)


def _run_keys(run):
    """Run body that emits one row per run: its key, first t and length."""
    t = run.column("t")
    return pa.RecordBatch.from_arrays(
        [run.column("series_id").slice(0, 1), t.slice(0, 1), pa.array([len(run)])],
        names=["series_id", "t", "n"],
    )


class TestRuns:
    @pytest.mark.parametrize(
        "cuts", [(), (1,), (3,), (4,), (2, 2), (1, 5, 9)], ids=str
    )
    def test_runs_stitched_across_batches(self, cuts):
        # Rows a a a | b | c c c c c c, sorted or interleaved: every cut
        # gives the same three runs, since the runner sorts the partition.
        ids = np.array(["a"] * 3 + ["b"] + ["c"] * 6)
        for order in (np.arange(10), np.random.default_rng(3).permutation(10)):
            columns = [pa.array(ids[order]), pa.array(np.arange(10.0)[order])]
            whole = pa.RecordBatch.from_arrays(columns, names=["series_id", "t"])
            bounds = [0, *cuts, 10]
            batches = [whole.slice(a, b - a) for a, b in zip(bounds[:-1], bounds[1:])]
            out = pa.Table.from_batches(list(_runs(("series_id",), _run_keys)(iter(batches))))
            assert out.to_pydict() == {
                "series_id": ["a", "b", "c"], "t": [0.0, 3.0, 4.0], "n": [3, 1, 6]
            }

    def test_small_arrow_batches(self, spark, two_series):
        # Batches of 7 rows cut every series' run; the repairs must not change.
        key = "spark.sql.execution.arrow.maxRecordsPerBatch"
        series, df = two_series
        spark.conf.set(key, "7")
        try:
            out = clean_per_series(df, _clean_fn).toPandas()
            chunked = clean_chunked(df, _reveal_group, chunk_rows=30, warmup=8.0).toPandas()
        finally:
            spark.conf.unset(key)
        for sid, (t, X) in series.items():
            part = out[out.series_id == sid].sort_values("t")
            np.testing.assert_array_equal(np.array(part["repaired"].tolist()), _clean_fn(t, X)[0])
            part = chunked[chunked.series_id == sid].sort_values("t")
            np.testing.assert_array_equal(
                np.array(part["repaired"].tolist()), _chunk_groups(t, 30, 8.0)
            )


class TestPlan:
    def test_sized_to_cores_and_session_untouched(self, spark, gps_small):
        key = "spark.sql.adaptive.coalescePartitions.enabled"
        t, dirty, _, _ = gps_small
        df = to_spark_long(spark, t, dirty)
        spark.conf.set(key, "true")
        try:
            per_series = clean_per_series(df, _reveal_group)
            chunked = clean_chunked(df, _reveal_group, chunk_rows=300, warmup=45.0)
            assert spark.conf.get(key) == "true"
            n = spark.sparkContext.defaultParallelism
            assert per_series.rdd.getNumPartitions() == n
            assert chunked.rdd.getNumPartitions() == n
            plan = chunked._jdf.queryExecution().executedPlan().toString()
            assert "Join" not in plan and "Window" not in plan
        finally:
            spark.conf.unset(key)

    def test_one_arrow_stage_per_exchange(self, spark, gps_small):
        t, dirty, _, _ = gps_small
        df = to_spark_long(spark, t, dirty)
        per_series = clean_per_series(df, _reveal_group)
        chunked = clean_chunked(df, _reveal_group, chunk_rows=300, warmup=45.0)
        for out, exchanges in ((per_series, 1), (chunked, 1)):
            plan = out._jdf.queryExecution().executedPlan().toString()
            assert "FlatMapGroupsInPandas" not in plan
            assert "FlatMapGroupsInArrow" not in plan
            assert plan.count("Exchange ") == exchanges
            # The runner sorts each partition in Arrow, and with AQE off a
            # clean call is one Spark job.
            assert "Sort" not in plan and "AdaptiveSparkPlan" not in plan
        # The chunked regime labels in the task that reads its input.
        assert "Coalesce 1" in chunked._jdf.queryExecution().executedPlan().toString()

    def test_chunked_is_one_job_of_two_stages(self, spark, gps_small):
        # collect() adds no stage of its own (count() would add its
        # aggregation's): label + shuffle write in one task, then the clean.
        t, dirty, _, _ = gps_small
        sc = spark.sparkContext
        df = to_spark_long(spark, t, dirty)
        sc.setJobGroup("chunked-stages", "chunked-stages")
        try:
            clean_chunked(df, _reveal_group, chunk_rows=300, warmup=45.0).collect()
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        tracker = sc.statusTracker()
        (job,) = tracker.getJobIdsForGroup("chunked-stages")
        stages = sorted(tracker.getJobInfo(job).stageIds)
        tasks = [tracker.getStageInfo(stage).numTasks for stage in stages]
        assert tasks == [1, sc.defaultParallelism]

    def test_chunks_share_partitions_evenly(self, spark):
        # 3000 rows in 8 chunks of 375: partition k mod n takes chunk k.
        t, X = _irregular_series(3000, seed=7)
        out = clean_chunked(to_spark_long(spark, t, X), _reveal_group, chunk_rows=375, warmup=0.0)
        n = spark.sparkContext.defaultParallelism
        # _reveal_group writes each chunk's first t into its rows' repairs.
        chunks = out.rdd.glom().map(lambda rows: len({r.repaired[0] for r in rows})).collect()
        assert sum(chunks) == 8
        assert set(chunks) <= {8 // n, -(-8 // n)}

    def test_one_chunk_series_spread_by_series(self, spark):
        df = None
        for i in range(16):
            t, X = _irregular_series(10, seed=100 + i)
            part = to_spark_long(spark, t, X, series_id=f"s{i}")
            df = part if df is None else df.unionByName(part)
        out = clean_chunked(df, _reveal_group, chunk_rows=100, warmup=5.0)
        rows = out.rdd.glom().map(len).collect()
        assert sum(rows) == 160
        if len(rows) > 1:
            assert rows[0] < 160


# Unpickles the mapInArrow functions as a fresh Python worker would, runs
# them on one series and reports whether anything imported pandas.
_PROBE = """
import json, pickle, sys
import pyarrow as pa
per_series, label, chunked, stream = pickle.loads(sys.stdin.buffer.read())
batch = pa.ipc.open_stream(stream).read_next_batch()
rows = sum(b.num_rows for b in per_series(iter([batch])))
chunk_rows = sum(b.num_rows for b in chunked(label(iter([batch]))))
print(json.dumps({"rows": [rows, chunk_rows], "pandas": "pandas" in sys.modules}))
"""


def test_run_bodies_import_no_pandas():
    from pyspark import cloudpickle

    t, X, _, _ = gps_walk(200, seed=8)
    # Spark sends batches as an Arrow stream; unpickling one imports pandas.
    batch = pa.RecordBatch.from_arrays(
        [pa.array(["s0"] * len(t)), pa.array(t), pa.array(X.tolist())], names=["series_id", "t", "v"]
    )
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, batch.schema) as writer:
        writer.write_batch(batch)
    kernel = functools.partial(mtcsc_l, s=S)
    fns = (
        _runs(("series_id",), _clean(kernel)),
        _runs(("series_id",), _label(50, 45.0)),
        _runs(("series_id", "chunk"), _clean(kernel)),
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE],
        input=cloudpickle.dumps((*fns, sink.getvalue().to_pybytes())),
        capture_output=True,
        env=env,
        timeout=120,
        check=True,
    )
    assert json.loads(probe.stdout) == {"rows": [200, 200], "pandas": False}


def _worker_runtime(_):
    import gc
    import sys
    import zipimport

    import pyspark

    zips = [
        key
        for key, finder in sys.path_importer_cache.items()
        if isinstance(finder, zipimport.zipimporter)
    ]
    lib = os.path.join(os.environ["SPARK_HOME"], "python", "lib") + os.sep
    frozen = gc.get_freeze_count()
    return lib, list(sys.path), zips, pyspark.__version__, pyspark.__file__, frozen


class TestWorkerRuntime:
    def test_no_spark_archive_on_worker_path(self, spark):
        import pyspark

        n = spark.sparkContext.defaultParallelism
        runtimes = spark.sparkContext.parallelize(range(n), n).map(_worker_runtime)
        for lib, path, zips, version, file, frozen in runtimes.collect():
            entries = path + zips + [file]
            assert [p for p in entries if p.startswith(lib) or ".jar" in p] == []
            assert version == pyspark.__version__
            # The daemon froze what it loaded, so its per-task gc.collect()
            # skips those objects.
            assert frozen > 0
        # Set by default_spark alone, before the JVM starts.
        conf = spark.sparkContext.getConf()
        assert conf.get("spark.driver.host") == "127.0.0.1"
        assert conf.get("spark.ui.enabled") == "false"
        assert conf.get("spark.sql.adaptive.enabled") == "false"

    def test_add_py_file_imports_in_task(self, spark, tmp_path):
        # Files shipped with addPyFile land on the worker's path per task,
        # so the per-task import cache refresh must still see them.
        shipped = tmp_path / "repro_shipped_probe.py"
        shipped.write_text("VALUE = 42\n")
        spark.sparkContext.addPyFile(str(shipped))

        def task(x):
            import repro_shipped_probe

            return repro_shipped_probe.VALUE + x

        assert spark.sparkContext.parallelize([0, 1], 2).map(task).collect() == [42, 43]


class TestMethodRegistry:
    def test_registry_covers_table4(self):
        from repro.methods import METHODS, TABLE4_ORDER

        for name in TABLE4_ORDER:
            assert name in METHODS

    def test_skip_method_on_wrong_dim(self):
        from repro.methods import METHODS, Context, SkipMethod

        ctx = Context(s=S)
        with pytest.raises(SkipMethod):
            METHODS["RCSWS"](np.arange(5.0), np.zeros((5, 3)), ctx)


@pytest.mark.skipif(importlib.util.find_spec("IPython") is None, reason="IPython not installed")
def test_driver_does_not_import_ipython(spark, gps_small):
    # PySpark's DataFrame call-site capture imports IPython on the first
    # pyspark.sql.functions call; default_spark turns the capture off.
    t, dirty, _, _ = gps_small
    df = to_spark_long(spark, t, dirty)
    clean_per_series(df, _reveal_group).count()
    clean_chunked(df, _reveal_group, chunk_rows=300, warmup=45.0).count()
    assert "IPython" not in sys.modules
