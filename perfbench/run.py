"""Layered MTCSC benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload per-series-L --seed 1 --seconds 6 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is a separate
traced run that prints the per-layer metrics (see ``perfbench/METRICS.md``).
The last line of standard output is the result object, the line before
it the run's environment; Spark's logs go to standard error.  The run
leaves only its result and its trace under ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shlex
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"

#: The keys of ``perf_workloads.WORKLOADS``, which cannot be imported
#: before ``configure_env`` has put ``src/`` on the path.
WORKLOAD_NAMES = ("per-series-L", "chunked-C")
#: Set-ups per run; ``setup_s`` is their median.  The first one also
#: launches the JVM, which the later ones reuse.
SETUP_REPS = 3
#: Measured jobs per run at the least, even past ``--seconds``: the first
#: one after the warm-up is still slower, and a median of three leaves it out.
MIN_JOBS = 3
#: Identity-kernel jobs per traced run (``spark_clean.noop_wall_s``).
NOOP_JOBS = 3


def log(*a) -> None:
    print(*a, file=sys.stderr, flush=True)


def metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def slots() -> int:
    """Task slots: at most 4, the core count the workloads are sized for."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


def configure_env(work: Path, n_slots: int) -> None:
    """Make ``repro`` and the kernels importable in the driver and in
    Spark's Python workers, keep Spark's files inside ``work`` and its
    console progress off standard output.  Runs before the JVM starts."""
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    inherited = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join([src, str(HERE)] + inherited)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["SPARK_MASTER"] = f"local[{n_slots}]"
    os.environ.pop("SPARK_SHUFFLE_PARTITIONS", None)  # keep the program's default
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    # -XX:-UsePerfData keeps the launcher and driver JVMs from writing
    # /tmp/hsperfdata_<user>.
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    args = ["--master", f"local[{n_slots}]", "--driver-memory", "1g",
            "--driver-java-options", f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"]
    for k, v in {
        "spark.ui.showConsoleProgress": "false",
        "spark.local.dir": work / "local",
        "spark.sql.warehouse.dir": work / "warehouse",
        "spark.sql.streaming.checkpointLocation": work / "checkpoints",
    }.items():
        args += ["--conf", f"{k}={v}"]
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join(args + ["pyspark-shell"])


def stop_spark(spark) -> None:
    """Stop the session, then end the JVM and wait for it to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        proc.wait(timeout=60)


def set_up(wl, seed: int):
    """Set up ``SETUP_REPS`` times; keep the last session.

    Each set-up starts a session, generates the inputs, loads and caches
    them, and runs the workload's job once untimed, which starts a Python
    worker in every task slot.  Stopping the session in between ends its
    workers, so each warm-up starts them afresh.
    """
    from perf_kernels import Kernel
    from repro.jobrun import default_spark

    reps = []
    for k in range(SETUP_REPS):
        a = time.monotonic()
        spark = default_spark("perfbench")
        spark.sparkContext.setLogLevel("ERROR")
        b = time.monotonic()
        inp = wl.make_inputs(seed)
        c = time.monotonic()
        df = wl.load(spark, inp)
        d = time.monotonic()
        wl.job(inp, df, Kernel(wl.alg, inp["s"]))
        e = time.monotonic()
        reps.append({"spark_start": b - a, "datagen": c - b, "load": d - c,
                     "warmup": e - d, "total": e - a})
        log(f"set-up {k}: " + " ".join(f"{n}={v:.3f}s" for n, v in reps[-1].items()))
        if k < SETUP_REPS - 1:
            spark.stop()
    return spark, inp, df, reps


class Measured:
    """What the measured loop saw."""

    def __init__(self):
        self.attempted = self.failed = self.bad_rows = self.rows = 0
        self.walls = {False: [], True: []}  # by traced
        self.kernel_spans = []  # (job wall, [(start, end, rows, pid)])


def measure(wl, inp, df, ref, kernel, seconds, trace, tracer, sc) -> Measured:
    """Run jobs back to back for ``seconds`` and at least ``MIN_JOBS``
    times; check each against ``ref``.

    A traced run alternates untraced and traced jobs, so the tracing
    overhead is measured inside one run.
    """
    from perf_trace import ListParam, TracedKernel

    got = Measured()
    start = time.monotonic()
    i = 0
    while time.monotonic() < start + seconds or i < MIN_JOBS:
        traced = trace and i % 2 == 1
        i += 1
        acc = sc.accumulator([], ListParam()) if traced else None
        fn = TracedKernel(kernel, acc) if traced else kernel
        got.attempted += 1
        a = time.monotonic()
        try:
            out = wl.job(inp, df, fn)
        except Exception:  # a failed job is counted and the run goes on
            traceback.print_exc()
            got.failed += 1
            continue
        b = time.monotonic()
        bad, rows, preserved = wl.compare(inp, out, ref)
        got.bad_rows += bad
        got.rows += rows
        log(f"job {i}: traced={traced} wall={b - a:.3f}s differing_rows={bad}")
        if not preserved or (wl.exact and bad):
            got.failed += 1
            continue
        got.walls[traced].append(b - a)
        job = tracer.add("job", a, b, traced=traced)
        if traced:
            got.kernel_spans.append((b - a, acc.value))
            for s0, s1, n, pid in acc.value:
                tracer.add("kernel", s0, s1, job, rows=n, pid=pid)
    tracer.add("run", start, time.monotonic())
    return got


def layer_metrics(wl, spark, inp, df, ref, got, reps, tracer, work, seed, n_slots):
    """Per-layer metrics of a traced run (see METRICS.md)."""
    import numpy as np

    from perf_kernels import CORE_ALGS, identity_kernel
    from perf_workloads import STREAM_UNITS, SWEEP_UNITS, median, stream_layer, sweep_layer

    # The first measured job is untraced and still slower (see MIN_JOBS);
    # leave it out when comparing with the traced ones.
    untraced, traced = got.walls[False][1:] or got.walls[False], got.walls[True]
    m = {}
    for name in ("spark_start", "datagen", "load", "warmup"):
        m[f"setup.{name}_s"] = metric(statistics.median(r[name] for r in reps), "s")
    m["setup.jvm_launch_s"] = metric(reps[0]["spark_start"], "s")

    # core: each public kernel, serially, on a slice of this workload's input
    t, X, s = wl.core_input(inp)
    for alg, fn in CORE_ALGS.items():
        a = time.perf_counter()
        fn(t, X, s)
        m[f"core.{alg}.us_per_point"] = metric((time.perf_counter() - a) / len(t) * 1e6, "us")
    whole = t + s.window <= t[-1]  # points whose window lies inside the slice
    ends = np.searchsorted(t, t[whole] + s.window, side="right")
    m["core.points_per_window"] = metric(np.mean(ends - np.flatnonzero(whole)), "count")
    m["core.changed_frac"] = metric(ref["changed"].mean(), "frac")

    # spark_clean: the same public call with an identity kernel, and the
    # kernel spans of the traced jobs
    noop = []
    for _ in range(NOOP_JOBS):
        a = time.monotonic()
        wl.job(inp, df, identity_kernel)
        noop.append(time.monotonic() - a)
    points = wl.points(inp)
    busy, calls, share, skew, useful = [], [], [], [], []
    for wall, spans in got.kernel_spans:
        durs = np.array([s1 - s0 for s0, s1, _, _ in spans])
        busy.append(durs.sum())
        calls.append(len(durs))
        share.append(durs.sum() / (wall * n_slots))
        skew.append(durs.max() / np.median(durs))
        useful.append(points / sum(n for _, _, n, _ in spans))
    m["spark_clean.noop_wall_s"] = metric(median(noop), "s")
    m["spark_clean.kernel_busy_s"] = metric(median(busy), "s")
    m["spark_clean.kernel_calls"] = metric(median(calls), "count")
    m["spark_clean.kernel_share"] = metric(median(share), "frac")
    m["spark_clean.kernel_call_skew"] = metric(median(skew), "ratio")
    m["spark_clean.speedup_vs_serial"] = metric(
        ref["seconds"] / statistics.median(untraced), "ratio")
    m["spark_clean.useful_row_frac"] = metric(median(useful), "frac")

    # the layer this workload's traced run replays; the other one reads 0
    if wl.name == "per-series-L":
        side, attempted, failed = stream_layer(spark, seed, work, tracer)
    else:
        side, attempted, failed = sweep_layer(spark, seed, n_slots, tracer)
    for name, unit in {**SWEEP_UNITS, **STREAM_UNITS}.items():
        m[name] = metric(side.get(name, 0.0), unit)

    # tracing overhead and self time per span layer
    m["trace.overhead_frac"] = metric(
        statistics.median(traced) / statistics.median(untraced) - 1.0 if traced else 0.0,
        "frac")
    jobs = [sp for sp in tracer.named("job") if sp.attrs.get("traced")]
    kernels = tracer.named("kernel")
    m["trace.run_self_s"] = metric(tracer.self_time(tracer.named("run"), tracer.named("job")), "s")
    m["trace.job_self_s"] = metric(tracer.self_time(jobs, kernels) / max(1, len(jobs)), "s")
    m["trace.kernel_self_s"] = metric(sum(k.dur for k in kernels) / max(1, len(jobs)), "s")
    m["trace.batch_self_s"] = metric(sum(b.dur for b in tracer.named("batch")), "s")
    return m, attempted + NOOP_JOBS, failed


def run(args, work: Path) -> tuple[dict, dict]:
    n_slots = slots()
    configure_env(work, n_slots)

    import numpy as np
    import pyarrow
    import pyspark

    from perf_kernels import Kernel
    from perf_trace import Tracer
    from perf_workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tracer = Tracer(bool(args.trace))
    spark, inp, df, reps = set_up(wl, args.seed)
    try:
        sc = spark.sparkContext
        env = {
            "workload": wl.name, "seed": args.seed, "trace": args.trace,
            "master": sc.master, "defaultParallelism": sc.defaultParallelism,
            "nproc": os.cpu_count(), "spark": pyspark.__version__,
            "pyarrow": pyarrow.__version__, "numpy": np.__version__,
        }
        ref = wl.reference(inp)  # serial, in-process, outside the timed region
        log(f"serial reference: {ref['seconds']:.3f}s")
        kernel = Kernel(wl.alg, inp["s"])
        got = measure(wl, inp, df, ref, kernel, args.seconds, bool(args.trace), tracer, sc)
        if not got.walls[False]:
            raise RuntimeError("no job completed correctly")
        attempted, failed = got.attempted, got.failed
        if args.trace:
            metrics, a, f = layer_metrics(
                wl, spark, inp, df, ref, got, reps, tracer, work, args.seed, n_slots)
            attempted += a
            failed += f
        else:
            metrics = {
                "throughput_pts_s": metric(
                    wl.points(inp) / statistics.median(got.walls[False]), "pts/s"),
                "setup_s": metric(statistics.median(r["total"] for r in reps), "s"),
                "repair_match_frac": metric(1.0 - got.bad_rows / got.rows, "frac"),
                "driver_peak_rss_mb": metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    finally:
        stop_spark(spark)
    if args.trace:
        tracer.write(OUT / f"trace-{wl.name}-{args.seed}.json")
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    return env, line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"no program source at {ROOT / 'src' / 'repro'}: run from a full checkout")
        return 2
    work = OUT / f"run-{os.getpid()}"
    try:
        env, line = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    result.write_text(json.dumps({"env": env, **line}, indent=1))
    print("env " + json.dumps(env))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
