"""Figure 16 — classification (KNN/F1) and clustering (K-means/RI) over
clean, dirty and repaired training data on four UCR/UEA-like archives.

Protocol (Section 5.5): 10% random errors injected into the training
split only ("together" on multivariate sets); KNN K grid-searched;
K-means on the training set.  Paper shape: cleaning recovers most of the
clean-data accuracy, with MTCSC closest to "Clean".

The per-(dataset, method, series) cleaning fans out over Spark via
clean_per_series — every training series is an independent group.

Usage: spark-submit jobs/fig16_applications.py
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core import SpeedConstraint
from repro.core.spark_clean import clean_per_series
from repro.datasets import CLASSIFICATION
from repro.errors import inject_errors
from repro.jobrun import main
from repro.methods import METHODS, Context
from repro.mining import kmeans, knn_classify, rand_index

CLEANERS = ["MTCSC-C", "MTCSC-Uni", "SCREEN", "LsGreedy", "EWMA"]
RATE = 0.10
TRAIN_FRAC = 0.6
SEED = 0


def _archive_frame(spark, t, X3) -> DataFrame:
    """An archive's series as one long-format Spark frame; series ``i`` has
    ``series_id`` ``str(i)``."""
    pdf = pd.concat(
        [
            pd.DataFrame(
                {"series_id": str(i), "t": t, "v": list(map(list, X3[i]))}
            )
            for i in range(len(X3))
        ],
        ignore_index=True,
    )
    return spark.createDataFrame(pdf)


def _clean_archive(df, X3, method: str, s: SpeedConstraint) -> np.ndarray:
    """Clean every series of an archive (``df`` holds ``X3``) in parallel
    on Spark."""
    fn = METHODS[method]
    ctx = Context(s=s)

    def kernel(tt, XX):
        return fn(tt, XX, ctx)

    out = clean_per_series(df, kernel).toPandas()
    X_clean = np.empty_like(X3)
    for sid, grp in out.groupby("series_id"):
        grp = grp.sort_values("t")
        X_clean[int(sid)] = np.array(grp["repaired"].tolist())
    return X_clean


def run_fig16(spark) -> pd.DataFrame:
    rows = []
    for name, gen in CLASSIFICATION.items():
        X, y = gen()
        g = np.random.default_rng(SEED)
        idx = g.permutation(len(X))
        n_train = max(2, int(TRAIN_FRAC * len(X)))
        tr, te = idx[:n_train], idx[n_train:]
        t = np.arange(X.shape[1], dtype=float)
        # Inject 10% errors into each training series ("together").
        dirty = X[tr].copy()
        for i in range(len(dirty)):
            dirty[i], _ = inject_errors(
                dirty[i], RATE, pattern="together", seed=SEED * 1000 + i
            )
        k_classes = len(np.unique(y))

        def score(train_X, label):
            f1, _ = knn_classify(train_X, y[tr], X[te], y[te])
            ri = rand_index(y[tr], kmeans(train_X, k_classes, seed=SEED))
            rows.append({"dataset": name, "train_data": label, "f1": f1, "ri": ri})

        score(X[tr], "Clean")
        score(dirty, "Dirty")
        # Speed constraint estimated from the dirty training data: pool
        # the per-series consecutive speeds (never diffing across series
        # boundaries) and take a mid quantile — with 10% errors the upper
        # tail is error speeds, which must not set the constraint.
        speeds = np.concatenate(
            [
                np.sqrt(np.sum(np.diff(series, axis=0) ** 2, axis=1))
                for series in dirty
            ]
        )
        s = SpeedConstraint(float(np.quantile(speeds, 0.90)) * 1.5, 10.0)
        df = _archive_frame(spark, t, dirty)
        for method in CLEANERS:
            score(_clean_archive(df, dirty, method, s), method)
    return pd.DataFrame(rows)


if __name__ == "__main__":
    main(run_fig16)
