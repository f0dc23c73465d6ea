"""The benchmark's workloads and the layers replayed in its traced runs.

Each workload drives one public entry point of the program as a user
would: inputs from a seed, the public call plus the action that collects
its output, a serial in-process reference, and the output check.

- ``per-series-L``: :func:`repro.core.spark_clean.clean_per_series` with
  MTCSC-L over many short GPS(Walk) series.  The kernel is cheap, so the
  time goes to Spark scheduling and the list<->numpy marshalling of ``v``.
- ``chunked-C``: :func:`repro.core.spark_clean.clean_chunked` with MTCSC-C
  on one long GPS(Walk) series (~46 points per window).  The kernel is the
  largest single cost; the window/join/union shuffles and duplicated
  warm-up rows ride along.

Two more layers are measured only in traced runs, each on the workload
that shares its data and kernel (see ``METRICS.md`` for why they are not
workloads of their own): the Structured Streaming job
(:func:`stream_layer`, on ``per-series-L``) and the experiment sweep
(:func:`sweep_layer`, on ``chunked-C``).
"""
from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pandas as pd

from perf_kernels import GPS_S
from repro.core import SpeedConstraint, estimate_speed, mtcsc_c, mtcsc_l
from repro.core.spark_clean import clean_chunked, clean_per_series, to_spark_long
from repro.core.streaming import StreamingCleaner, run_file_stream, write_stream_files
from repro.datasets import gps_walk, ild
from repro.errors import inject_errors
from repro.experiments import sweep_injected
from repro.methods import METHODS, Context
from repro.metrics import evaluate

#: Points of the workload's input that each ``core.*`` kernel is timed on.
CORE_SLICE = 1000


def stack(col) -> np.ndarray:
    return np.array(col.tolist(), dtype=float)


def median(xs) -> float:
    return float(np.median(xs)) if len(xs) else 0.0


class PerSeriesL:
    name = "per-series-L"
    alg = "mtcsc_l"
    n_series = 32
    n_points = 500
    exact = True

    def make_inputs(self, seed: int) -> dict:
        series = []
        for i in range(self.n_series):
            t, dirty, _, _ = gps_walk(self.n_points, seed=seed * 1009 + i)
            series.append((f"s{i:03d}", t, dirty))
        return {"s": GPS_S, "series": series}

    def points(self, inp) -> int:
        return sum(len(t) for _, t, _ in inp["series"])

    def core_input(self, inp):
        _, t, X = inp["series"][0]
        return t[:CORE_SLICE], X[:CORE_SLICE], inp["s"]

    def load(self, spark, inp):
        pdf = pd.concat(
            [
                pd.DataFrame({"series_id": sid, "t": t, "v": list(map(list, X))})
                for sid, t, X in inp["series"]
            ],
            ignore_index=True,
        )
        df = spark.createDataFrame(pdf).cache()
        df.count()
        return df

    def job(self, inp, df, clean_fn) -> pd.DataFrame:
        return clean_per_series(df, clean_fn).toPandas()

    def reference(self, inp) -> dict:
        start = time.perf_counter()
        reps = [mtcsc_l(t, X, inp["s"]) for _, t, X in inp["series"]]
        return {
            "seconds": time.perf_counter() - start,
            "repaired": np.vstack([r[0] for r in reps]),
            "changed": np.concatenate([r[1] for r in reps]),
        }

    def compare(self, inp, out: pd.DataFrame, ref: dict) -> tuple[int, int, bool]:
        """(rows differing from the reference, rows, no row lost or duplicated)."""
        n = self.points(inp)
        if len(out) != n:
            return n, n, False
        out = out.sort_values(["series_id", "t"])
        bad = np.any(stack(out["repaired"]) != ref["repaired"], axis=1) | (
            out["changed"].to_numpy(bool) != ref["changed"]
        )
        return int(bad.sum()), n, True


class ChunkedC:
    name = "chunked-C"
    alg = "mtcsc_c"
    n_points = 3000
    chunk_rows = 375  # 8 chunks
    # Chunked cleaning is documented as close to serial, not equal to it.
    exact = False

    def make_inputs(self, seed: int) -> dict:
        t, dirty, _, _ = gps_walk(self.n_points, seed=seed)
        return {"s": GPS_S, "t": t, "X": dirty}

    def points(self, inp) -> int:
        return len(inp["t"])

    def core_input(self, inp):
        return inp["t"][:CORE_SLICE], inp["X"][:CORE_SLICE], inp["s"]

    def load(self, spark, inp):
        df = to_spark_long(spark, inp["t"], inp["X"]).cache()
        df.count()
        return df

    def job(self, inp, df, clean_fn) -> pd.DataFrame:
        return clean_chunked(
            df, clean_fn, chunk_rows=self.chunk_rows, warmup=3 * inp["s"].window
        ).toPandas()

    def reference(self, inp) -> dict:
        start = time.perf_counter()
        Xr, changed = mtcsc_c(inp["t"], inp["X"], inp["s"])
        return {"seconds": time.perf_counter() - start, "repaired": Xr, "changed": changed}

    def compare(self, inp, out: pd.DataFrame, ref: dict) -> tuple[int, int, bool]:
        n = self.points(inp)
        out = out.sort_values("t")
        if len(out) != n or not np.array_equal(out["t"].to_numpy(float), inp["t"]):
            return n, n, False
        bad = np.any(stack(out["repaired"]) != ref["repaired"], axis=1)
        return int(bad.sum()), n, True


WORKLOADS = {w.name: w for w in (PerSeriesL(), ChunkedC())}


# -- experiments layer: the Figure 5-7 sweep, replayed on chunked-C --------

SWEEP_METHODS = ["MTCSC-G", "MTCSC-L", "MTCSC-C", "MTCSC-A", "MTCSC-Uni", "SCREEN"]
SWEEP_RATES = [0.05, 0.10, 0.20]
SWEEP_POINTS = 600
SWEEP_JOBS = 2
SWEEP_COLS = ["method", "rate", "seed", "n", "rmse", "repair_distance",
              "repair_number", "repair_fraction", "skipped"]
SWEEP_UNITS = {
    "experiments.cells": "count",
    "experiments.wall_s": "s",
    "experiments.cell_s_sum": "s",
    "experiments.cell_s_max": "s",
    "experiments.straggler_share": "frac",
    "experiments.slot_utilisation": "frac",
    "experiments.repair_match_frac": "frac",
    "errors.inject_ms": "ms",
    "metrics.evaluate_ms": "ms",
}


def _sweep_reference(t, truth, s, seeds) -> tuple[pd.DataFrame, list, list]:
    """Every cell serially through the same public functions the sweep uses."""
    rows, inject_s, eval_s = [], [], []
    for m in SWEEP_METHODS:
        for r in SWEEP_RATES:
            for sd in seeds:
                a = time.perf_counter()
                dirty, _ = inject_errors(truth, r, pattern="together", seed=sd)
                b = time.perf_counter()
                Xr, _ = METHODS[m](t, dirty, Context(s=s, truth=truth))
                c = time.perf_counter()
                ev = {k: float(v) for k, v in evaluate(Xr, dirty, truth).items()}
                inject_s.append(b - a)
                eval_s.append(time.perf_counter() - c)
                rows.append({"method": m, "rate": float(r), "seed": int(sd),
                             "n": len(t), **ev, "skipped": ""})
    table = pd.DataFrame(rows).sort_values(["method", "rate", "seed"])
    return table.reset_index(drop=True)[SWEEP_COLS], inject_s, eval_s


def sweep_layer(spark, seed: int, slots: int, tracer) -> tuple[dict, int, int]:
    """``sweep_injected`` on ILD for the five proposals and SCREEN x 3 rates
    x 2 error seeds (36 cells), checked cell by cell against a serial replay.

    Returns (metric values, jobs attempted, jobs failed).
    """
    t, X = ild(SWEEP_POINTS, seed=seed)
    s = SpeedConstraint(estimate_speed(t, X, 0.995, scale=1.5), 10.0)
    seeds = [seed * 10, seed * 10 + 1]
    want, inject_s, eval_s = _sweep_reference(t, X, s, seeds)
    # One untimed call on a short prefix imports the method registry in
    # every Python worker.
    sweep_injected(spark, t[:100], X[:100], s, methods=SWEEP_METHODS,
                   rates=SWEEP_RATES[:1], seeds=seeds[:1])
    walls, cells, match = [], [], []
    failed = 0
    for _ in range(SWEEP_JOBS):
        a = time.monotonic()
        out = sweep_injected(spark, t, X, s, methods=SWEEP_METHODS,
                             rates=SWEEP_RATES, seeds=seeds)
        b = time.monotonic()
        tracer.add("job", a, b, sweep=True)
        got = out[SWEEP_COLS].reset_index(drop=True)
        equal = (got == want).all(axis=1) if len(got) == len(want) else pd.Series([False])
        match.append(float(equal.mean()))
        if not equal.all():
            failed += 1
            continue
        walls.append(b - a)
        cells.append(out["seconds"].to_numpy(float))
    m = {
        "experiments.cells": float(len(want)),
        "experiments.wall_s": median(walls),
        "experiments.cell_s_sum": median([c.sum() for c in cells]),
        "experiments.cell_s_max": median([c.max() for c in cells]),
        "experiments.straggler_share": median([c.max() / w for w, c in zip(walls, cells)]),
        "experiments.slot_utilisation": median(
            [c.sum() / (w * slots) for w, c in zip(walls, cells)]),
        "experiments.repair_match_frac": median(match),
        "errors.inject_ms": median(inject_s) * 1e3,
        "metrics.evaluate_ms": median(eval_s) * 1e3,
    }
    return m, SWEEP_JOBS, failed


# -- streaming layer: the per-series-L kernel, micro-batch by micro-batch ---

STREAM_POINTS = 2000
STREAM_BATCH_ROWS = 100
STREAM_UNITS = {
    "streaming.batches": "count",
    "streaming.wall_s": "s",
    "streaming.batch_latency_p50_ms": "ms",
    "streaming.batch_latency_p90_ms": "ms",
    "streaming.add_batch_ms_p50": "ms",
    "streaming.trigger_overhead_ms_p50": "ms",
    "streaming.process_batch_ms_p50": "ms",
}


def stream_layer(spark, seed: int, work: Path, tracer) -> tuple[dict, int, int]:
    """``run_file_stream`` with MTCSC-L over 20 JSON micro-batches of 100
    rows of one more GPS(Walk) series, checked against ``mtcsc_l``.

    Per-batch times come from a ``StreamingQueryListener``.  The loop is
    closed: ``availableNow`` starts the next micro-batch only after the
    previous one completes.  Returns (metric values, attempted, failed).
    """
    from pyspark.sql.streaming import StreamingQueryListener

    progress = []

    class Listener(StreamingQueryListener):
        def onQueryStarted(self, event):
            pass

        def onQueryProgress(self, event):
            p = event.progress
            progress.append((time.monotonic(), p.numInputRows, dict(p.durationMs)))

        def onQueryIdle(self, event):
            pass

        def onQueryTerminated(self, event):
            pass

    t, X, _, _ = gps_walk(STREAM_POINTS, seed=seed * 1009 + PerSeriesL.n_series)
    directory = work / "stream"
    n_files = write_stream_files(t, X, directory, batch_rows=STREAM_BATCH_ROWS)
    listener = Listener()
    spark.streams.addListener(listener)
    a = time.monotonic()
    try:
        got = run_file_stream(spark, directory, GPS_S)
        b = time.monotonic()
        # Progress events arrive asynchronously; wait briefly for the last.
        while sum(n > 0 for _, n, _ in progress) < n_files and time.monotonic() < b + 5:
            time.sleep(0.05)
    finally:
        spark.streams.removeListener(listener)
    tracer.add("job", a, b, stream=True)
    want, _ = mtcsc_l(t, X, GPS_S)
    ok = len(got) == len(t) and np.array_equal(stack(got["repaired"]), want)

    replay = StreamingCleaner(GPS_S)
    proc = []
    for lo in range(0, STREAM_POINTS, STREAM_BATCH_ROWS):
        hi = lo + STREAM_BATCH_ROWS
        pdf = pd.DataFrame({"series_id": "s0", "t": t[lo:hi], "v": list(X[lo:hi])})
        start = time.perf_counter()
        replay.process_batch(pdf)
        proc.append(time.perf_counter() - start)

    batches = [(at, d) for at, n, d in progress if n > 0]
    for at, d in batches:
        tracer.add("batch", at - d.get("triggerExecution", 0) / 1e3, at, **d)
    trig = [d.get("triggerExecution", 0) for _, d in batches]
    add = [d.get("addBatch", 0) for _, d in batches]
    m = {
        "streaming.batches": float(len(batches)),
        "streaming.wall_s": b - a,
        "streaming.batch_latency_p50_ms": median(trig),
        "streaming.batch_latency_p90_ms": float(np.quantile(trig, 0.9)) if trig else 0.0,
        "streaming.add_batch_ms_p50": median(add),
        "streaming.trigger_overhead_ms_p50": median([x - y for x, y in zip(trig, add)]),
        "streaming.process_batch_ms_p50": median(proc) * 1e3,
    }
    return m, 1, 0 if ok else 1
