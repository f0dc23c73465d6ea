"""Smoke-tests for the jobs/ entrypoints at tiny scale.

Each job's core function must run end-to-end on the session Spark and
produce the table it claims; shape assertions on the paper's qualitative
claims live here where cheap enough.  Each Spark job's command line is
``repro.jobrun.main``'s, built from its ``run_*`` function's keywords.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.jobrun import parser

JOBS = Path(__file__).resolve().parents[1] / "jobs"
#: The tables of the reduced runs below, without their timings.
GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(JOBS))

import fig5_stock  # noqa: E402
import fig6_ild_error_rate  # noqa: E402
import fig7_ild_size  # noqa: E402
import fig9_patterns  # noqa: E402
import fig13_dimension  # noqa: E402
import fig14_adaptive  # noqa: E402
import fig16_applications  # noqa: E402
import table2_datasets  # noqa: E402
import table4_gps  # noqa: E402


def test_every_job_has_a_smoke_test():
    """Every ``jobs/*.py`` module is imported (and so smoke-tested) here."""
    assert {p.stem for p in JOBS.glob("*.py")} - set(globals()) == set()


#: Each Spark job's ``run_*`` function and the flags of its command line,
#: with their defaults (the paper's settings).
COMMAND_LINES = {
    "table4_gps": (table4_gps.run_table4, {"n": 11_000}),
    "fig5_stock": (fig5_stock.run_fig5, {"n": 12_000, "seeds": 10}),
    "fig6_ild_error_rate": (fig6_ild_error_rate.run_fig6, {"n": 43_000, "seeds": 10}),
    "fig7_ild_size": (
        fig7_ild_size.run_fig7,
        {"sizes": (5_000, 10_000, 20_000, 40_000), "seeds": 5},
    ),
    "fig9_patterns": (fig9_patterns.run_fig9, {"n": 20_000, "seeds": 5}),
    "fig13_dimension": (
        fig13_dimension.run_fig13,
        {"n": 10_000, "dims": (2, 4, 8, 16, 32), "seeds": 3},
    ),
    "fig14_adaptive": (fig14_adaptive.run_fig14, {"n": 8_000}),
    "fig16_applications": (fig16_applications.run_fig16, {}),
}


class TestCommandLine:
    @pytest.mark.parametrize("job", sorted(COMMAND_LINES))
    def test_no_arguments_give_run_defaults(self, job):
        run, defaults = COMMAND_LINES[job]
        assert vars(parser(run).parse_args([])) == (run.__kwdefaults__ or {}) == defaults

    def test_flags_parse_with_the_default_type(self):
        args = parser(fig7_ild_size.run_fig7).parse_args(["--sizes", "600,300", "--seeds", "2"])
        assert args.sizes == (600, 300) and args.seeds == 2
        assert parser(fig13_dimension.run_fig13).parse_args(["--dims", "4"]).dims == (4,)

    @pytest.mark.parametrize("job", sorted(COMMAND_LINES))
    def test_help_starts_no_spark(self, job):
        """``--help`` lists the job's flags and exits before Spark starts:
        with ``JAVA_HOME`` pointing nowhere, starting Spark would fail."""
        src = str(JOBS.parent / "src")
        env = {
            **os.environ,
            "JAVA_HOME": "/nonexistent",
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        out = subprocess.run(
            [sys.executable, str(JOBS / f"{job}.py"), "--help"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        flags = set(re.findall(r"--(\w+)", out.stdout)) - {"help"}
        assert flags == set(COMMAND_LINES[job][1])


def assert_golden(df, name: str):
    """``df`` without its ``seconds`` column equals the committed table
    ``golden/<name>.csv`` cell for cell, floats written as their ``repr``."""
    got = df.drop(columns="seconds", errors="ignore").to_csv(index=False)
    assert got == (GOLDEN / f"{name}.csv").read_text()


class TestTable2:
    def test_rows_match_paper_catalogue(self):
        rows = table2_rows = table2_datasets.table2_rows(scale=0.02)
        names = {r["dataset"] for r in rows}
        assert {"Stock", "ILD", "TAO", "ECG", "GPS(Walk)", "GPS(Mixed)"} <= names
        by = {r["dataset"]: r for r in rows}
        assert by["ILD"]["dims"] == 3
        assert by["ECG"]["dims"] == 32
        assert by["arrowhead"]["series"] == 211
        assert by["swj"]["dims"] == 4


class TestTable4:
    def test_small_run_has_all_methods(self, spark):
        df = table4_gps.run_table4(spark, n=800)
        assert_golden(df, "table4_gps")
        assert list(df["method"])[0] == "Dirty"
        assert len(df) == len(table4_gps.PAPER_TABLE4)
        assert np.isfinite(df["rmse"]).all()

    def test_paper_reference_numbers_recorded(self):
        assert table4_gps.PAPER_TABLE4["MTCSC-C"][0] == 0.3386
        assert table4_gps.PAPER_TABLE4["EWMA"][2] == 10753


class TestFig5:
    def test_reduced_run(self, spark):
        df = fig5_stock.run_fig5(spark, n=1000, seeds=2)
        assert_golden(df, "fig5_stock")
        assert set(df["method"]) == set(fig5_stock.PROPOSALS)
        # Online L must be faster than batch G at every rate (paper 5(b)
        # relative ordering that survives our pruned-G optimization).
        l_t = df[df.method == "MTCSC-L"]["seconds"].mean()
        c_t = df[df.method == "MTCSC-C"]["seconds"].mean()
        assert l_t < c_t


class TestFig6:
    def test_reduced_run(self, spark, monkeypatch):
        monkeypatch.setattr(fig6_ild_error_rate, "RATES", [0.10, 0.05])
        df = fig6_ild_error_rate.run_fig6(spark, n=400, seeds=1)
        assert_golden(df, "fig6_ild_error_rate")
        assert list(df.columns[:2]) == ["method", "rate"]
        methods = sorted(fig6_ild_error_rate.METHODS)
        assert list(zip(df["method"], df["rate"])) == [
            (m, r) for m in methods for r in (0.05, 0.10)
        ]
        assert np.isfinite(df["rmse"]).all()


class TestFig7:
    def test_sizes_in_order(self, spark):
        df = fig7_ild_size.run_fig7(spark, sizes=(600, 300), seeds=1)
        assert_golden(df, "fig7_ild_size")
        assert list(df.columns[:3]) == ["size", "method", "rate"]
        assert list(df["size"].unique()) == [600, 300]
        assert (df.groupby("size").size() == len(fig7_ild_size.METHODS)).all()
        assert (df["rate"] == fig7_ild_size.RATE).all()


class TestFig9:
    @pytest.fixture(scope="class")
    def run(self, spark):
        """The table and the number of Spark jobs the call submitted."""
        sc = spark.sparkContext
        sc.setJobGroup("fig9", "fig9")
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fig9_patterns, "RATES", [0.10])
                df = fig9_patterns.run_fig9(spark, n=300, seeds=1)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        return df, len(sc.statusTracker().getJobIdsForGroup("fig9"))

    def test_cases_in_order(self, run):
        df, _ = run
        assert list(df.columns[:4]) == ["dataset", "pattern", "method", "rate"]
        cases = list(dict.fromkeys(zip(df["dataset"], df["pattern"])))
        assert cases == [
            ("tao", "separate"), ("tao", "together"),
            ("ecg", "separate"), ("ecg", "together"),
        ]
        assert len(df) == 4 * len(fig9_patterns.METHODS)

    def test_whole_grid_is_one_spark_job(self, run):
        assert run[1] == 1

    def test_table_equals_golden(self, run):
        assert_golden(run[0], "fig9_patterns")


class TestFig13:
    def test_dimension_scaling(self, spark):
        df = fig13_dimension.run_fig13(spark, n=1200, dims=(2, 8), seeds=1)
        assert_golden(df, "fig13_dimension")
        assert set(df["D"]) == {2, 8}
        # Accuracy should hold up as D grows (rmse finite and better than
        # nothing at both dims for MTCSC-C).
        c = df[df.method == "MTCSC-C"]
        assert np.isfinite(c["rmse"]).all()


class TestFig14:
    @pytest.fixture(scope="class")
    def run(self, spark):
        """The table and the number of Spark jobs the call submitted."""
        sc = spark.sparkContext
        sc.setJobGroup("fig14", "fig14")
        try:
            df = fig14_adaptive.run_fig14(spark, n=2400)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        return df, len(sc.statusTracker().getJobIdsForGroup("fig14"))

    def test_adaptive_beats_fixed_from_walk_init(self, run):
        df, _ = run
        walk = df[df.initial_speed == "walk(1.6)"]
        a = walk[walk.method == "MTCSC-A"].rmse.iloc[0]
        c = walk[walk.method == "MTCSC-C"].rmse.iloc[0]
        assert a < c

    def test_all_initial_speeds_present(self, run):
        df, _ = run
        assert set(df["initial_speed"]) >= set(fig14_adaptive.INITIAL)

    def test_whole_grid_is_one_spark_job(self, run):
        assert run[1] == 1

    def test_table_equals_golden(self, run):
        assert_golden(run[0], "fig14_adaptive")


class TestFig16:
    def test_applications_table(self, spark, monkeypatch):
        # Shrink to one archive for the smoke test.
        import repro.datasets as ds

        monkeypatch.setattr(
            fig16_applications,
            "CLEANERS",
            ["MTCSC-C", "EWMA"],
        )
        monkeypatch.setattr(
            ds, "CLASSIFICATION", {"arrowhead": lambda: ds.arrowhead()}
        )
        monkeypatch.setattr(
            fig16_applications, "CLASSIFICATION", {"arrowhead": ds.arrowhead}
        )
        df = fig16_applications.run_fig16(spark)
        assert_golden(df, "fig16_applications")
        labels = set(df["train_data"])
        assert {"Clean", "Dirty", "MTCSC-C", "EWMA"} <= labels
        by = {r["train_data"]: r for _, r in df.iterrows()}
        # Clean data should classify at least as well as dirty.
        assert by["Clean"]["f1"] >= by["Dirty"]["f1"] - 1e-9
