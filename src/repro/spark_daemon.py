"""Spark's Python worker daemon, started without Spark's archives on the path.

The JVM puts ``$SPARK_HOME/python/lib/pyspark.zip``, the py4j zip and the
spark-core jar on every worker's ``PYTHONPATH``, and PySpark's worker calls
``importlib.invalidate_caches()`` once per task, which makes every cached
``zipimporter`` re-read its archive's directory: ~0.2 s per task.  This
daemon drops those entries from ``sys.path`` and their importers from
``sys.path_importer_cache`` (``python -m`` made some while it found this
module), so the workers import the ``pyspark`` installed with their
interpreter.  It then freezes what it has loaded (``gc.freeze()``), so the
``gc.collect()`` the daemon runs after every task of a reused worker skips
those objects.  :func:`repro.jobrun.default_spark` selects it with
``spark.python.daemon.module``.
"""
import gc
import os
import sys

_LIB = os.path.join(os.path.normpath(os.environ.get("SPARK_HOME", "")), "python", "lib")


def _archived(entry: str) -> bool:
    """Whether a path entry is, or lies inside, one of Spark's archives."""
    path = os.path.normpath(entry)
    return path.startswith(_LIB + os.sep) or any(
        part.endswith(".jar") for part in path.split(os.sep)
    )


if __name__ == "__main__":
    sys.path[:] = [p for p in sys.path if not _archived(p)]
    for key in [k for k in sys.path_importer_cache if _archived(k)]:
        del sys.path_importer_cache[key]

    from pyspark.daemon import manager

    # The workers fork from here, so they inherit the frozen objects.
    gc.freeze()
    manager()
