"""The lockstep MTCSC-C/A/Uni equal the scalar reference bit for bit.

Each pair check between window points is made once per feed, in a lag
band; MTCSC-A makes a band per run of keys under one constraint, as its
speed monitor moves it.  Algorithm 3 runs for many key points at once,
under the speculation that each key's previous repair is its raw
predecessor, and per point after a repair.  The reference in ``tests/scalar_reference.py``
makes every check one scalar distance at a time, for every key point.
"""
import importlib

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AdaptiveCleaner,
    AdaptiveSpeed,
    ClusterCleaner,
    LocalCleaner,
    SpeedConstraint,
    estimate_speed,
    mtcsc_a,
    mtcsc_c,
    mtcsc_l,
    mtcsc_uni,
    speed,
)
from repro.core.cluster import cluster_runs, lag_band
from repro.core.online import run
from repro.core.speed import pair_checks, within_bound
from repro.core.streaming import StreamingCleaner
from repro.datasets import ecg, gps_mixed, gps_walk, ild
from repro.errors import inject_errors

from . import scalar_reference as ref

GPS = SpeedConstraint(1.6, 45.0)
# The module, not the function ``repro.core.mtcsc_c`` re-exported under its name.
MTCSC_C = importlib.import_module("repro.core.mtcsc_c")
# The module, not the function ``repro.core.mtcsc_a`` re-exported under its name.
MTCSC_A = importlib.import_module("repro.core.mtcsc_a")


def _gps_walk():
    t, dirty, _, _ = gps_walk(900, seed=901)
    return t, dirty, GPS


def _gps_mixed():
    t, dirty, _, _, _ = gps_mixed(1500, seed=5)
    return t, dirty, GPS


def _injected(t, X, seed):
    dirty, _ = inject_errors(X, 0.10, seed=seed)
    return t, dirty, SpeedConstraint(estimate_speed(t, X, 0.995, scale=1.5), 10.0)


def _ild():
    return _injected(*ild(800, seed=1), seed=3)


def _ecg():
    return _injected(*ecg(400, 32, seed=3), seed=4)


DATASETS = {"gps-walk": _gps_walk, "gps-mixed": _gps_mixed, "ild": _ild, "ecg-d32": _ecg}


def build_cluster(tp, xp, tw, Xw, s: SpeedConstraint) -> list[list[int]]:
    """Algorithm 3 for one key point through the cleaners' lockstep scan.

    ``(tp, xp)`` is the previous repair and ``tw``/``Xw`` the window points
    after the key point, in time order.  Returns the clusters as lists of
    indices into ``tw``, in order of creation.
    """
    tw, Xw = np.asarray(tw, float), np.asarray(Xw, float)
    m = len(tw)
    if not m:
        return []
    ok = lag_band(tw, Xw, 0, m, m, s.smax)
    prev_ok = within_bound(*pair_checks(tp, np.asarray(xp, float), tw, Xw), s.smax)
    _, starts, heads = cluster_runs(prev_ok[None], np.array([m]), ok, np.array([0]))
    labels = np.full(m, -1)
    for lo, hi, h in zip(starts, [*starts[1:], m], heads):
        labels[lo:hi] = h
    return [np.flatnonzero(labels == h).tolist() for h in np.unique(labels[labels >= 0])]


def assert_bits_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("data", list(DATASETS))
@pytest.mark.parametrize(
    "fn, ref_fn",
    [(mtcsc_c, ref.mtcsc_c), (mtcsc_a, ref.mtcsc_a), (mtcsc_uni, ref.mtcsc_uni)],
    ids=["MTCSC-C", "MTCSC-A", "MTCSC-Uni"],
)
def test_cleaner_equals_scalar_reference(data, fn, ref_fn):
    t, X, s = DATASETS[data]()
    for got, want in zip(fn(t, X, s), ref_fn(t, X, s)):
        assert_bits_equal(got, want)


@pytest.mark.parametrize("data", list(DATASETS))
def test_adaptive_state_equals_scalar_reference(data, monkeypatch):
    """With a short monitor window the constraint moves; each move starts
    a lag band of its own, so repairs and state still match."""
    t, X, s = DATASETS[data]()
    monkeypatch.setattr(MTCSC_A, "M", 100)
    got, want = AdaptiveCleaner(s), ref.AdaptiveCleaner(s, m=100)
    out = [got.feed(t[i : i + 1], X[i : i + 1])[1] for i in range(len(t))]
    assert_bits_equal(np.concatenate(out + [got.flush()[1]]), want.run(t, X))
    assert got.n_speed_updates == want.adaptive.n_updates
    assert got.current_speed == want.adaptive.s
    if data in ("gps-mixed", "ecg-d32"):
        assert got.n_speed_updates >= 1


@pytest.mark.parametrize("variant", ["MTCSC-L", "MTCSC-C", "MTCSC-A"])
@pytest.mark.parametrize("rows", [1, 5, 37, pytest.param(None, id="whole")])
def test_stream_batches_split_windows(variant, rows):
    """Micro-batches far shorter than a window (~46 points): a key point's
    window spans several batches, so each feed rebuilds the lag band of
    the points it keeps.  One row per batch puts a block boundary after
    every point; the whole series in one batch puts none."""
    t, X, s = _gps_mixed()
    cleaner = StreamingCleaner(s, variant=variant)
    pdf = pd.DataFrame({"series_id": "s0", "t": t, "v": list(map(list, X))})
    rows = rows or len(pdf)
    for lo in range(0, len(pdf), rows):
        cleaner.process_batch(pdf.iloc[lo : lo + rows])
    got = np.array(cleaner.finish()["repaired"].tolist())
    want = {"MTCSC-L": ref.mtcsc_l, "MTCSC-C": ref.mtcsc_c, "MTCSC-A": ref.mtcsc_a}[variant]
    assert_bits_equal(got, want(t, X, s)[0])


@pytest.mark.parametrize("cls", [LocalCleaner, ClusterCleaner, AdaptiveCleaner])
def test_emitted_repairs_survive_buffer_reuse(cls):
    """Emitted repairs do not change while later points arrive: each feed
    writes its repairs into an array of its own, which no later feed
    writes."""
    t, X, s = _gps_walk()
    cleaner, seen = cls(s), []
    for i in range(len(t)):
        seen += [(x, x.copy()) for x in cleaner.feed(t[i : i + 1], X[i : i + 1])[1]]
    assert len(seen) > len(t) // 2
    for x, at_drain in seen:
        assert_bits_equal(x, at_drain)


@pytest.mark.parametrize("cls", [LocalCleaner, ClusterCleaner, AdaptiveCleaner])
def test_feed_rejects_bad_block_atomically(cls):
    """A block with a NaN, a repeated timestamp or a first timestamp not
    after the window raises before it changes the cleaner: the good blocks
    around it give exactly ``run``'s repair."""
    t, X, s = _gps_walk()
    cleaner, out = cls(s), []
    cuts = [0, 100, 137, 300, len(t)]
    for lo, hi in zip(cuts, cuts[1:]):
        if lo:
            nan, repeat = X[lo:hi].copy(), t[lo:hi].copy()
            nan[-1, 0] = np.nan
            repeat[2] = repeat[1]
            late = [(t[k:hi], X[k:hi]) for k in (lo - 1, lo - 5)]
            for bad in [(t[lo:hi], nan), (repeat, X[lo:hi]), *late]:
                with pytest.raises(ValueError):
                    cleaner.feed(*bad)
        out.append(cleaner.feed(t[lo:hi], X[lo:hi]))
    out.append(cleaner.flush())
    assert_bits_equal(np.concatenate([tk for tk, _ in out]), t)
    assert_bits_equal(np.concatenate([x for _, x in out]), run(cls(s), t, X))
    with pytest.raises(ValueError):  # the window is empty, the last repair is not
        cleaner.feed(t[-1:], X[-1:])


@pytest.mark.parametrize("cls", [LocalCleaner, ClusterCleaner, AdaptiveCleaner])
def test_feed_rejects_other_dimension_count(cls):
    """A block whose dimension count differs from the stream's raises
    before it changes the cleaner, with points in the window and after
    ``flush`` alike (there the gap exceeds ``w``, so no pair check would
    compare the two blocks' points)."""
    s = SpeedConstraint(1.0, 3.0)
    t = np.arange(12, dtype=float)
    t[5:] += 10.0
    X = np.cumsum(np.full((12, 2), 0.3), axis=0)
    X[7] += 5.0
    cleaner = cls(s)
    out = [cleaner.feed(t[:3], X[:3])]
    with pytest.raises(ValueError, match="dimensions"):
        cleaner.feed(t[3:5], np.zeros((2, 3)))
    out += [cleaner.feed(t[3:5], X[3:5]), cleaner.flush()]
    with pytest.raises(ValueError, match="dimensions"):
        cleaner.feed(t[5:], np.zeros((7, 3)))
    out += [cleaner.feed(t[5:], X[5:]), cleaner.flush()]
    assert_bits_equal(np.concatenate([tk for tk, _ in out]), t)
    assert_bits_equal(np.concatenate([x for _, x in out]), run(cls(s), t, X))


def test_speed_monitor_equals_scalar_reference(monkeypatch):
    """Counts slid per speed equal both halves bucketed afresh."""
    g = np.random.default_rng(0)
    speeds = np.concatenate([g.random(400) * 1.5, 3 + g.random(400) * 2, g.random(400)])
    monkeypatch.setattr(MTCSC_A, "M", 60)
    monkeypatch.setattr(MTCSC_A, "TAU", 0.3)
    got = AdaptiveSpeed(1.6)
    want = ref.AdaptiveSpeed(1.6, m=60, tau=0.3)
    for v in speeds:
        assert got.observe(v) == want.observe(v)
    assert got.n_updates == want.n_updates >= 2


@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 30),
    st.integers(1, 6),
    st.floats(0.3, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_build_cluster_equals_scalar_reference(seed, m, d, smax):
    g = np.random.default_rng(seed)
    tw = np.cumsum(g.random(m) + 0.1) + 1.0
    Xw = np.cumsum(g.normal(0, 1, (m, d)), axis=0)
    Xw[g.random(m) < 0.2] += g.normal(0, 8, d)
    s = SpeedConstraint(smax, 10.0)
    xp = g.normal(0, 1, d)
    assert build_cluster(0.0, xp, tw, Xw, s) == ref.build_cluster(0.0, xp, tw, Xw, s)


def test_keys_decided_by_speculation(monkeypatch):
    """Most keys are decided in lockstep under the speculation that their
    previous repair is their raw predecessor: at most 10% of the keys reach
    the per-point rule."""
    calls = []
    per_point = MTCSC_C.ClusterCleaner._per_point

    def counted(self, band, k):
        calls.append(k)
        return per_point(self, band, k)

    monkeypatch.setattr(MTCSC_C.ClusterCleaner, "_per_point", counted)
    t, X, _, _ = gps_walk(3000, seed=901)
    _, changed = mtcsc_c(t, X, GPS)
    assert changed.sum() >= 50
    assert len(calls) <= 0.1 * len(t)


def test_local_keys_decided_by_speculation(monkeypatch):
    """MTCSC-L keeps the keys whose raw predecessor was kept and passes
    with it in one pass: at most 10% of the keys reach the per-point rule."""
    calls = []
    repair = LocalCleaner._repair

    def counted(self, *args):
        calls.append(args[2])
        return repair(self, *args)

    monkeypatch.setattr(LocalCleaner, "_repair", counted)
    t, X, _, _ = gps_walk(3000, seed=901)
    _, changed = mtcsc_l(t, X, GPS)
    assert changed.sum() >= 50
    assert len(calls) <= 0.1 * len(t)


def _fed(cleaner, t, X, rows):
    """The repair of ``(t, X)`` fed to ``cleaner`` in blocks of ``rows``
    rows (the whole series at once for ``None``), then flushed."""
    rows = rows or len(t)
    out = [cleaner.feed(t[lo : lo + rows], X[lo : lo + rows])[1] for lo in range(0, len(t), rows)]
    return np.concatenate(out + [cleaner.flush()[1]])


@pytest.mark.parametrize("rows", [37, pytest.param(None, id="whole")])
def test_adaptive_series_at_rest(rows):
    """A device at rest after moving: the 95% speed quantile of the newer
    monitor window is 0, which bounds no speed, so the constraint stays."""
    g = np.random.default_rng(0)
    t = np.arange(700.0)
    X = np.cumsum(g.normal(0, 0.5, (700, 2)), axis=0)
    X[350:] = X[349]
    s = SpeedConstraint(1.6, 10.0)
    got, want = AdaptiveCleaner(s), ref.AdaptiveCleaner(s)
    assert_bits_equal(_fed(got, t, X, rows), want.run(t, X))
    assert got.n_speed_updates == want.adaptive.n_updates
    assert got.current_speed == want.adaptive.s > 0


@pytest.mark.parametrize("rows", [1, 5, 37, pytest.param(None, id="whole")])
def test_stale_anchor_reset_equals_scalar_reference(rows):
    """A drift three times as fast as the constraint leaves no window point
    compatible with the carried repair: MTCSC-A re-anchors on the
    observation each time the carried repair is a window old."""
    g = np.random.default_rng(0)
    t = np.arange(400.0)
    X = np.column_stack([3.0 * t, np.zeros(400)]) + g.normal(0, 0.2, (400, 2))
    s = SpeedConstraint(1.0, 3.0)
    got, want = AdaptiveCleaner(s), ref.AdaptiveCleaner(s)
    assert_bits_equal(_fed(got, t, X, rows), want.run(t, X))
    assert want.n_resets >= 50


def test_pair_checks_linear_in_n(monkeypatch):
    """Pair checks are made once per pair, not once per key point: the
    scalar path made ~141.8k distance calls on this input."""
    calls = []
    distance = speed.distance

    def counted(a, b):
        calls.append(1)
        return distance(a, b)

    monkeypatch.setattr(speed, "distance", counted)
    t, X, _, _ = gps_walk(3000, seed=901)
    mtcsc_c(t, X, GPS)
    assert len(calls) <= 4 * len(t)
