"""Spark dataflow layer: per-series and chunked parallel cleaning, the
exact chunk groups, the plan's sizing, the Python workers' runtime,
method registry."""
import os

import numpy as np
import pandas as pd
import pytest

from repro.core import SpeedConstraint, mtcsc_c
from repro.core.spark_clean import clean_chunked, clean_per_series, to_spark_long
from repro.datasets import gps_walk
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


def _worker_runtime(_):
    import sys
    import zipimport

    import pyspark

    zips = [
        key
        for key, finder in sys.path_importer_cache.items()
        if isinstance(finder, zipimport.zipimporter)
    ]
    lib = os.path.join(os.environ["SPARK_HOME"], "python", "lib") + os.sep
    return lib, list(sys.path), zips, pyspark.__version__, pyspark.__file__


class TestWorkerRuntime:
    def test_no_spark_archive_on_worker_path(self, spark):
        import pyspark

        n = spark.sparkContext.defaultParallelism
        runtimes = spark.sparkContext.parallelize(range(n), n).map(_worker_runtime)
        for lib, path, zips, version, file in runtimes.collect():
            entries = path + zips + [file]
            assert [p for p in entries if p.startswith(lib) or ".jar" in p] == []
            assert version == pyspark.__version__

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
