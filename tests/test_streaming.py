"""Structured Streaming online cleaning == batch result once drained."""
import numpy as np
import pandas as pd
import pytest

from repro.core import SpeedConstraint, mtcsc_a, mtcsc_c, mtcsc_l
from repro.core.streaming import (
    StreamingCleaner,
    run_file_stream,
    write_stream_files,
)
from repro.datasets import gps_walk

S = SpeedConstraint(1.6, 45.0)


class TestStreamingCleaner:
    @pytest.mark.parametrize(
        "variant, batch_fn",
        [("MTCSC-L", mtcsc_l), ("MTCSC-C", mtcsc_c), ("MTCSC-A", mtcsc_a)],
        ids=["MTCSC-L", "MTCSC-C", "MTCSC-A"],
    )
    def test_batch_feed_equals_batch_algorithm(self, variant, batch_fn):
        t, dirty, truth, mask = gps_walk(600, seed=5)
        pdf = pd.DataFrame(
            {"series_id": "s0", "t": t, "v": list(map(list, dirty))}
        )
        want, _ = batch_fn(t, dirty, S)
        rows = np.arange(len(pdf))
        # 7 uneven micro-batches, then batches of 1, 5, 37 and all rows.
        splits = [np.array_split(rows, 7)] + [
            np.split(rows, np.arange(size, len(rows), size))
            for size in (1, 5, 37, len(rows))
        ]
        for batches in splits:
            sc = StreamingCleaner(S, variant=variant)
            for i in batches:
                sc.process_batch(pdf.iloc[i])
            got = np.array(sc.finish()["repaired"].tolist())
            np.testing.assert_array_equal(got, want)

    def test_cluster_variant(self):
        t, dirty, truth, mask = gps_walk(400, seed=6)
        sc = StreamingCleaner(S, variant="MTCSC-C")
        pdf = pd.DataFrame(
            {"series_id": "s0", "t": t, "v": list(map(list, dirty))}
        )
        sc.process_batch(pdf)
        out = sc.finish()
        want, _ = mtcsc_c(t, dirty, S)
        np.testing.assert_array_equal(np.array(out["repaired"].tolist()), want)

    def test_two_series_interleaved(self):
        t1, d1, _, _ = gps_walk(200, seed=7)
        t2, d2, _, _ = gps_walk(200, seed=8)
        rows = []
        for i in range(200):
            rows.append(("a", t1[i], list(d1[i])))
            rows.append(("b", t2[i], list(d2[i])))
        pdf = pd.DataFrame(rows, columns=["series_id", "t", "v"])
        sc = StreamingCleaner(S, variant="MTCSC-L")
        for i in np.array_split(np.arange(len(pdf)), 5):
            sc.process_batch(pdf.iloc[i])
        out = sc.finish()
        for sid, t, d in (("a", t1, d1), ("b", t2, d2)):
            got = np.array(
                out[out.series_id == sid]["repaired"].tolist()
            )
            want, _ = mtcsc_l(t, d, S)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "column, row", [("v", 3), ("t", 9)], ids=["nan-in-v", "inf-t"]
    )
    def test_non_finite_batch_raises(self, column, row):
        """A micro-batch passes the cleaners' input contract: a NaN value
        or an infinite timestamp raises instead of being pushed."""
        t, dirty, _, _ = gps_walk(100, seed=5)
        pdf = pd.DataFrame({"series_id": "s0", "t": t, "v": list(map(list, dirty))})
        if column == "v":
            pdf.at[row, "v"] = [np.nan, 0.0]
        else:
            pdf.at[row, "t"] = np.inf
        with pytest.raises(ValueError, match="finite"):
            StreamingCleaner(S).process_batch(pdf)

    def test_unknown_variant_raises(self):
        with pytest.raises(ValueError):
            StreamingCleaner(S, variant="global")


class TestFileStream:
    def test_write_stream_files(self, tmp_path):
        t, dirty, truth, mask = gps_walk(250, seed=9)
        n = write_stream_files(t, dirty, tmp_path, batch_rows=100)
        assert n == 3
        files = sorted(tmp_path.glob("*.json"))
        assert len(files) == 3

    def test_structured_streaming_matches_batch(self, spark, tmp_path):
        """End-to-end: file-source micro-batches through foreachBatch with
        carried state reproduce the batch MTCSC-L repair exactly."""
        t, dirty, truth, mask = gps_walk(500, seed=10)
        write_stream_files(t, dirty, tmp_path / "in", batch_rows=120)
        out = run_file_stream(spark, tmp_path / "in", S, variant="MTCSC-L")
        want, _ = mtcsc_l(t, dirty, S)
        got = np.array(out["repaired"].tolist())
        assert len(got) == len(t)
        np.testing.assert_array_equal(got, want)
