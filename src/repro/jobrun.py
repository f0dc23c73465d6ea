"""Shared plumbing for the ``jobs/`` spark-submit entrypoints."""
from __future__ import annotations

import argparse
import inspect
import os
from pathlib import Path

from pyspark.sql import SparkSession


def default_spark(app: str) -> SparkSession:
    """The one SparkSession recipe, for the jobs, the benchmark and tests.

    ``getOrCreate`` returns the running session if there is one (under
    pytest, the ``spark`` fixture's, built by this same call).  Spark's
    Python workers start from :mod:`repro.spark_daemon`, which keeps
    Spark's zip and jar archives off their path so a task does not re-read
    them, and talk to the JVM over a unix socket; so ``repro`` must be
    importable by the workers, as the kernels already require.  PySpark's
    DataFrame call-site capture is off: it imports IPython into the driver
    on the first ``pyspark.sql.functions`` call, and Spark's error messages
    lose only the line of user code that built the failing expression.
    AQE is off: every stage of the cleaning regimes has a fixed partition
    count, so it would only add a Spark job per exchange.
    """
    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.python.daemon.module", "repro.spark_daemon")
        .config("spark.python.unix.domain.socket.enabled", "true")
        .config("spark.python.sql.dataFrameDebugging.enabled", "false")
        .config("spark.sql.adaptive.enabled", "false")
        .getOrCreate()
    )


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def parser(run) -> argparse.ArgumentParser:
    """The command line of a job: one flag ``--<name>`` per keyword-only
    parameter of ``run``, defaulting to the parameter's default and parsed
    with its type; a tuple default takes a comma list of ints."""
    ap = argparse.ArgumentParser()
    for p in inspect.signature(run).parameters.values():
        if p.kind is p.KEYWORD_ONLY:
            d = p.default
            many = isinstance(d, tuple)
            ap.add_argument(
                f"--{p.name}",
                type=_ints if many else type(d),
                default=d,
                help="default: " + (",".join(map(str, d)) if many else str(d)),
            )
    return ap


def main(run) -> None:
    """Run a job from the command line: parse its flags (see :func:`parser`),
    then start a Spark session named after the job's file and print the
    table ``run(spark, **flags)`` returns."""
    from .experiments import format_table

    flags = vars(parser(run).parse_args())
    spark = default_spark(Path(inspect.getfile(run)).stem)
    print(format_table(run(spark, **flags)))
