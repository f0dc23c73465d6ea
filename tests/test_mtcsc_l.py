"""MTCSC-L: soundness, incremental/batch agreement, edge cases."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LocalCleaner, SpeedConstraint, mtcsc_l, series_satisfies


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
        rows = []
        for start in range(0, n, batch):
            for i in range(start, min(start + batch, n)):
                rows.extend(cleaner.feed(t[i : i + 1], X[i : i + 1]))
        rows.extend(cleaner.flush())
        got = np.vstack([r[1] for r in rows])
        np.testing.assert_array_equal(got, want)

    def test_emission_latency_bounded_by_window(self):
        # A key point must be emitted once data beyond t_k + w arrived.
        s = SpeedConstraint(1.0, 3.0)
        cleaner = LocalCleaner(s)
        out = []
        for i in range(5):
            out += cleaner.feed([float(i)], [[0.0]])
        # Points 0 (t+w=3 < 4 arrived) should be out; the rest buffered.
        assert len(out) == 1 and out[0][0] == 0.0
