"""Shared plumbing for the ``jobs/`` spark-submit entrypoints."""
from __future__ import annotations

import os

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
        .getOrCreate()
    )
