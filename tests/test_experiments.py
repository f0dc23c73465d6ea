"""Sweep engine (Spark-distributed experiment grids) and Table 4 shape."""
import numpy as np
import pandas as pd
import pytest

from repro.core import SpeedConstraint
from repro.datasets import gps_walk, ild
from repro.errors import inject_errors
from repro.experiments import (
    aggregate_over_seeds,
    format_table,
    sweep_cases,
    sweep_embedded_cases,
    sweep_injected,
)
from repro.methods import METHODS, Context, SkipMethod
from repro.metrics import evaluate


class TestSweepInjected:
    @pytest.fixture(scope="class")
    def result(self, spark):
        t, X = ild(1500)
        s = SpeedConstraint(1.0, 10.0)
        return sweep_injected(
            spark,
            t,
            X,
            s,
            methods=["MTCSC-C", "EWMA"],
            rates=[0.05, 0.10],
            seeds=[0, 1],
        )

    def test_grid_complete(self, result):
        assert len(result) == 2 * 2 * 2
        assert set(result["method"]) == {"MTCSC-C", "EWMA"}
        assert set(result["rate"]) == {0.05, 0.10}

    def test_metrics_populated(self, result):
        ok = result[result["skipped"] == ""]
        assert np.isfinite(ok["rmse"]).all()
        assert (ok["seconds"] > 0).all()

    def test_mtcsc_beats_ewma(self, result):
        agg = aggregate_over_seeds(result)
        for rate in (0.05, 0.10):
            c = agg[(agg.method == "MTCSC-C") & (agg.rate == rate)].rmse.iloc[0]
            e = agg[(agg.method == "EWMA") & (agg.rate == rate)].rmse.iloc[0]
            assert c < e

    def test_seed_determinism(self, spark):
        t, X = ild(800)
        s = SpeedConstraint(1.0, 10.0)
        kw = dict(methods=["MTCSC-L"], rates=[0.1], seeds=[3])
        a = sweep_injected(spark, t, X, s, **kw)
        b = sweep_injected(spark, t, X, s, **kw)
        assert a["rmse"].iloc[0] == b["rmse"].iloc[0]

    def test_skipped_method_reported(self, spark):
        t, X = ild(600)  # 3-D: RCSWS must skip
        s = SpeedConstraint(1.0, 10.0)
        out = sweep_injected(
            spark, t, X, s, methods=["RCSWS"], rates=[0.05], seeds=[0]
        )
        assert (out["skipped"] != "").all()


class TestSweepEmbedded:
    def test_table4_shape_small(self, spark):
        """The Table 4 ordering at reduced size: MTCSC-C cleans the data,
        beats MTCSC-L (consecutive errors), EWMA repairs ~everything, HTD
        repairs few points."""
        t, dirty, truth, mask = gps_walk(3000, seed=0)
        s = SpeedConstraint(1.6, 45.0)
        out = sweep_embedded_cases(
            spark,
            [({}, t, dirty, truth, s)],
            methods=["MTCSC-C", "MTCSC-L", "MTCSC-G", "EWMA", "HTD"],
        )
        row = {r["method"]: r for _, r in out.iterrows()}
        dirty_rmse = evaluate(dirty, dirty, truth)["rmse"]
        assert row["MTCSC-C"]["rmse"] < 0.5 * dirty_rmse
        assert row["MTCSC-C"]["rmse"] < row["MTCSC-L"]["rmse"]
        assert row["MTCSC-G"]["rmse"] < dirty_rmse
        assert row["EWMA"]["repair_fraction"] > 0.99
        assert row["HTD"]["repair_number"] < row["MTCSC-C"]["repair_number"]

    def test_method_order_preserved(self, spark):
        t, dirty, truth, mask = gps_walk(600, seed=1)
        s = SpeedConstraint(1.6, 30.0)
        methods = ["EWMA", "MTCSC-L", "HTD"]
        out = sweep_embedded_cases(spark, [({}, t, dirty, truth, s)], methods=methods)
        assert list(out["method"]) == methods


@pytest.mark.parametrize("sweep", ["injected", "embedded"])
def test_sweep_equals_serial_replay(spark, sweep):
    """Every sweep row equals the serial inject -> clean -> evaluate replay
    of its cell, exactly, in every column but the wall time."""
    t, truth = ild(400)  # 3-D: RCSWS must skip
    s = SpeedConstraint(1.0, 10.0)
    methods = ["SCREEN", "MTCSC-C", "RCSWS", "MTCSC-A", "HTD", "MTCSC-Uni"]
    if sweep == "injected":
        rates, seeds = [0.05, 0.1], [0, 1]
        out = sweep_injected(
            spark, t, truth, s, methods=methods, rates=rates, seeds=seeds,
            pattern="separate",
        )
        cells = sorted((m, r, sd) for m in methods for r in rates for sd in seeds)
    else:
        embedded, _ = inject_errors(truth, 0.1, seed=7)
        out = sweep_embedded_cases(
            spark, [({}, t, embedded, truth, s)], methods=methods
        )
        cells = [(m, 0.0, 0) for m in methods]
    metrics = ["rmse", "repair_distance", "repair_number", "repair_fraction"]
    assert list(out.columns) == [
        "method", "rate", "seed", "n", *metrics, "seconds", "skipped",
    ]
    assert list(zip(out["method"], out["rate"], out["seed"])) == cells
    for (method, rate, seed), (_, row) in zip(cells, out.iterrows()):
        assert row["n"] == len(t)
        if sweep == "injected":
            dirty, _ = inject_errors(truth, rate, pattern="separate", seed=seed)
        else:
            dirty = embedded
        try:
            Xr, _ = METHODS[method](t, dirty, Context(s, truth))
        except SkipMethod:
            assert row["skipped"] != ""
            assert row[metrics + ["seconds"]].isna().all()
            continue
        assert row["skipped"] == ""
        assert row[metrics].to_dict() == evaluate(Xr, dirty, truth)


def test_sweep_cases_equals_per_case_sweeps(spark):
    """The one-job figure grid equals, case by case, the seed average of
    that case's own sweep with its labels inserted, exactly in every
    column but the wall time; cases keep their order."""
    methods, rates, seeds = ["MTCSC-C", "RCSWS"], [0.1, 0.05], [1, 0]
    cases = []
    for n, pattern in ((400, "separate"), (300, "together")):
        t, X = ild(n)  # 3-D: RCSWS must skip
        s = SpeedConstraint(0.5 + n / 1000, 10.0)
        cases.append(({"size": n, "pattern": pattern}, t, X, s, pattern))
    got = sweep_cases(spark, cases, methods=methods, rates=rates, seeds=seeds)
    frames = []
    for labels, t, X, s, pattern in cases:
        agg = aggregate_over_seeds(sweep_injected(
            spark, t, X, s, methods=methods, rates=rates, seeds=seeds,
            pattern=pattern,
        ))
        for i, (k, v) in enumerate(labels.items()):
            agg.insert(i, k, v)
        frames.append(agg)
    want = pd.concat(frames, ignore_index=True)
    assert list(want.columns[:4]) == ["size", "pattern", "method", "rate"]
    assert len(want) == len(cases) * len(rates)
    pd.testing.assert_frame_equal(
        got.drop(columns="seconds"), want.drop(columns="seconds"), check_exact=True
    )


class TestHelpers:
    def test_aggregate_over_seeds(self):
        df = pd.DataFrame(
            {
                "method": ["A", "A", "B"],
                "rate": [0.1, 0.1, 0.1],
                "seed": [0, 1, 0],
                "rmse": [1.0, 3.0, 5.0],
                "repair_distance": [0.0, 0.0, 0.0],
                "repair_number": [1.0, 3.0, 5.0],
                "repair_fraction": [0.1, 0.3, 0.5],
                "seconds": [1.0, 1.0, 1.0],
                "skipped": ["", "", ""],
            }
        )
        agg = aggregate_over_seeds(df)
        assert agg[agg.method == "A"].rmse.iloc[0] == 2.0
        assert len(agg) == 2

    def test_aggregate_drops_skipped(self):
        df = pd.DataFrame(
            {
                "method": ["A", "B"],
                "rate": [0.1, 0.1],
                "seed": [0, 0],
                "rmse": [1.0, float("nan")],
                "repair_distance": [0.0, float("nan")],
                "repair_number": [0.0, float("nan")],
                "repair_fraction": [0.0, float("nan")],
                "seconds": [1.0, float("nan")],
                "skipped": ["", "not applicable"],
            }
        )
        agg = aggregate_over_seeds(df)
        assert list(agg["method"]) == ["A"]

    def test_format_table_renders(self):
        df = pd.DataFrame({"m": ["x"], "v": [1.23456]})
        out = format_table(df)
        assert "1.2346" in out and "m" in out

    def test_format_table_nan_dash(self):
        df = pd.DataFrame({"v": [float("nan")]})
        assert "-" in format_table(df)
