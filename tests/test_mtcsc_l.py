"""MTCSC-L: soundness, incremental/batch agreement, the per-point
reference, edge cases."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LocalCleaner, SpeedConstraint, estimate_speed, mtcsc_l, series_satisfies
from repro.core.speed import EPS
from repro.datasets import ild
from repro.errors import inject_errors

from . import scalar_reference as ref
from .test_banded_cluster import DATASETS, assert_bits_equal


class TestBasics:
    def test_clean_series_untouched(self):
        t = np.arange(30.0)
        X = np.cumsum(np.full((30, 3), 0.2), axis=0)
        Xr, ch = mtcsc_l(t, X, SpeedConstraint(1.0, 5.0))
        np.testing.assert_allclose(Xr, X)
        assert not ch.any()

    def test_first_point_trusted(self):
        t = np.arange(5.0)
        X = np.array([[100.0], [0.0], [0.1], [0.2], [0.3]])
        Xr, ch = mtcsc_l(t, X, SpeedConstraint(1.0, 5.0))
        assert not ch[0] and Xr[0, 0] == 100.0

    def test_spike_repaired_by_interpolation(self):
        t = np.arange(7.0)
        X = np.array([[0.0], [0.1], [0.2], [50.0], [0.4], [0.5], [0.6]])
        Xr, ch = mtcsc_l(t, X, SpeedConstraint(1.0, 4.0))
        assert ch[3]
        # Interpolated between x2'=(0.2)@2 and x4=(0.4)@4 -> 0.3.
        assert Xr[3, 0] == pytest.approx(0.3)

    def test_no_satisfying_successor_carries_previous(self):
        t = np.arange(4.0)
        X = np.array([[0.0], [100.0], [101.0], [102.0]])
        Xr, ch = mtcsc_l(t, X, SpeedConstraint(1.0, 2.0))
        assert ch[1] and Xr[1, 0] == pytest.approx(0.0)  # fallback x'_{k-1}

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mtcsc_l(np.arange(3.0), np.zeros((2, 1)), SpeedConstraint(1, 1))

    def test_non_increasing_timestamps_raise(self):
        c = LocalCleaner(SpeedConstraint(1, 1))
        c.feed([0.0], [[0.0]])
        with pytest.raises(ValueError):
            c.feed([0.0], [[1.0]])

    def test_empty(self):
        Xr, ch = mtcsc_l(np.zeros(0), np.zeros((0, 1)), SpeedConstraint(1, 1))
        assert len(ch) == 0


class TestSoundness:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_repair_satisfies_constraint(self, seed, d):
        g = np.random.default_rng(seed)
        n = 60
        t = np.arange(n, dtype=float)
        X = np.cumsum(g.normal(0, 0.3, (n, d)), axis=0)
        idx = g.choice(np.arange(1, n), size=8, replace=False)
        X[idx] += g.normal(0, 12, (8, d))
        s = SpeedConstraint(1.0, 6.0)
        Xr, _ = mtcsc_l(t, X, s)
        assert series_satisfies(t, Xr, s)

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_soundness_1d(self, values):
        t = np.arange(len(values), dtype=float)
        X = np.array(values)[:, None]
        s = SpeedConstraint(1.0, 5.0)
        Xr, _ = mtcsc_l(t, X, s)
        assert series_satisfies(t, Xr, s)


class TestIncremental:
    @pytest.mark.parametrize("batch", [1, 3, 7, 50])
    def test_incremental_equals_batch(self, batch):
        g = np.random.default_rng(7)
        n = 80
        t = np.arange(n, dtype=float)
        X = np.cumsum(g.normal(0, 0.5, (n, 2)), axis=0)
        X[g.choice(np.arange(1, n), 10, replace=False)] += 20
        s = SpeedConstraint(1.0, 8.0)
        want, _ = mtcsc_l(t, X, s)

        cleaner = LocalCleaner(s)
        rows = [cleaner.feed(t[i : i + batch], X[i : i + batch])[1] for i in range(0, n, batch)]
        got = np.concatenate(rows + [cleaner.flush()[1]])
        np.testing.assert_array_equal(got, want)

    def test_emission_latency_bounded_by_window(self):
        # A key point must be emitted once data beyond t_k + w arrived.
        s = SpeedConstraint(1.0, 3.0)
        cleaner = LocalCleaner(s)
        out = [cleaner.feed([float(i)], [[0.0]])[0] for i in range(5)]
        # Points 0 (t+w=3 < 4 arrived) should be out; the rest buffered.
        assert np.concatenate(out).tolist() == [0.0]


S = SpeedConstraint(1.0, 5.0)


def _ild(rate):
    t, X = ild(800, seed=1)
    dirty, _ = inject_errors(X, rate, seed=3)
    return t, dirty, SpeedConstraint(estimate_speed(t, X, 0.995, scale=1.5), 10.0)


@st.composite
def series(draw):
    """A walk within ``S`` that mixes in gaps of exactly and of more than
    ``w``, steps exactly on the EPS bound of ``within_bound`` and runs of
    offset errors, whose ends give repaired-to-kept transitions.  Time
    steps are multiples of 1/8, so gaps and window ends are exact."""
    n = draw(st.integers(1, 60))
    d = draw(st.sampled_from([1, 2, 3, 10]))
    kinds = ["walk", "bound", "gap", "edge", "error"]
    kinds = draw(st.lists(st.sampled_from(kinds), min_size=n, max_size=n))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t, X = np.zeros(n), np.zeros((n, d))
    truth, offset = np.zeros(d), None
    for k, kind in enumerate(kinds):
        step = g.integers(1, 17) / 8
        if k:
            t[k] = t[k - 1] + {"gap": S.window + step, "edge": S.window}.get(kind, step)
        dt = t[k] - t[k - 1] if k else 1.0
        if kind == "bound":  # the raw pair to the previous point sits on the bound
            truth, offset = X[k - 1].copy() if k else truth, None
            truth[0] += S.smax * dt * (1.0 + EPS) + EPS
        else:
            truth = truth + g.normal(0, 0.4 * dt / np.sqrt(d), d)
        if kind == "error":  # consecutive errors share one offset
            offset = g.normal(0, 8, d) if offset is None else offset
        elif kind != "bound":
            offset = None
        X[k] = truth if offset is None else truth + offset
    return t, X


class TestScalarReference:
    """The vectorised MTCSC-L equals the per-point rule of
    ``tests/scalar_reference.py`` bit for bit."""

    @given(series())
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_equals_scalar_reference(self, tx):
        t, X = tx
        for got, want in zip(mtcsc_l(t, X, S), ref.mtcsc_l(t, X, S)):
            assert_bits_equal(got, want)

    @pytest.mark.parametrize("data", [*DATASETS, "ild-5%", "ild-20%", "ild-40%"])
    def test_datasets_equal_scalar_reference(self, data):
        rate = data.removeprefix("ild-").removesuffix("%")
        t, X, s = _ild(int(rate) / 100) if rate.isdigit() else DATASETS[data]()
        got, want = mtcsc_l(t, X, s), ref.mtcsc_l(t, X, s)
        for a, b in zip(got, want):
            assert_bits_equal(a, b)
        changed = got[1]
        assert np.any(changed[:-1] & ~changed[1:])  # repaired -> kept

    @pytest.mark.parametrize("rows", [1, 5, 37, pytest.param(None, id="whole")])
    def test_feeds_equal_scalar_reference(self, rows):
        """Each feed returns the points the per-point rule emits for that
        block, and the same repairs."""
        t, X, s = DATASETS["gps-mixed"]()
        got, want = LocalCleaner(s), ref.LocalCleaner(s)
        rows = rows or len(t)
        for lo in range(0, len(t), rows):
            block = t[lo : lo + rows], X[lo : lo + rows]
            for a, b in zip(got.feed(*block), want.feed(*block)):
                assert_bits_equal(a, b)
        for a, b in zip(got.flush(), want.flush()):
            assert_bits_equal(a, b)
