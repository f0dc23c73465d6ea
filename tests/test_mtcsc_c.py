"""MTCSC-C: BuildCluster semantics, soundness, consecutive-error regime."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ClusterCleaner,
    SpeedConstraint,
    build_cluster,
    mtcsc_c,
    mtcsc_l,
    series_satisfies,
)
from repro.core.mtcsc_c import largest_cluster_head


class TestBuildCluster:
    S = SpeedConstraint(1.0, 10.0)

    def test_empty_window(self):
        out = build_cluster(0.0, np.zeros(2), np.zeros(0), np.zeros((0, 2)), self.S)
        assert out == []

    def test_no_compatible_point(self):
        tw = np.array([1.0, 2.0])
        Xw = np.array([[100.0, 0], [100.0, 0]])
        assert build_cluster(0.0, np.zeros(2), tw, Xw, self.S) == []

    def test_single_cluster_clean_run(self):
        tw = np.arange(1.0, 6.0)
        Xw = np.stack([0.5 * tw, np.zeros(5)], axis=1)
        clusters = build_cluster(0.0, np.zeros(2), tw, Xw, self.S)
        assert len(clusters) == 1 and clusters[0] == [0, 1, 2, 3, 4]

    def test_outlier_isolated(self):
        tw = np.arange(1.0, 6.0)
        Xw = np.stack([0.5 * tw, np.zeros(5)], axis=1)
        Xw[2] = [100.0, 100.0]  # incompatible with everything incl. prev
        clusters = build_cluster(0.0, np.zeros(2), tw, Xw, self.S)
        sizes = sorted(len(c) for c in clusters)
        assert sizes == [4]  # outlier omitted entirely (Action 4)

    def test_dirty_run_forms_own_cluster(self):
        # A shifted-but-internally-consistent run forms its own cluster
        # when still compatible with the previous point (Action 2).
        tw = np.arange(1.0, 7.0)
        Xw = np.zeros((6, 2))
        Xw[:, 0] = 0.5 * tw
        # Offset run at t=4,5: distance to prev is sqrt(2^2+3^2)=3.6 over
        # dt=4 (speed 0.9 <= 1) so Action 2 creates a dirty cluster.
        Xw[3:5, 1] += 3.0
        clusters = build_cluster(0.0, np.zeros(2), tw, Xw, self.S)
        assert sorted(len(c) for c in clusters) == [1, 2, 3]

    def test_largest_head_tiebreak_oldest(self):
        assert largest_cluster_head([[0], [2], [4]]) == 0
        assert largest_cluster_head([[0], [1, 3], [2, 5]]) == 1
        assert largest_cluster_head([]) is None


class TestBasics:
    def test_clean_series_untouched(self):
        t = np.arange(30.0)
        X = np.cumsum(np.full((30, 2), 0.2), axis=0)
        Xr, ch = mtcsc_c(t, X, SpeedConstraint(1.0, 5.0))
        np.testing.assert_allclose(Xr, X)
        assert not ch.any()

    def test_spike_repaired(self):
        t = np.arange(9.0)
        X = np.zeros((9, 1))
        X[4] = 50.0
        Xr, ch = mtcsc_c(t, X, SpeedConstraint(1.0, 4.0))
        assert ch[4] and abs(Xr[4, 0]) < 1.0

    def test_small_error_repaired_despite_satisfying(self):
        # A point inside the speed budget of its predecessor but lagging
        # the moving trend is still repaired (the improvement over
        # MTCSC-L, which keeps any point compatible with the previous
        # repair).  Trend moves at 0.9/step; the error stalls with a
        # lateral offset: compatible with prev (d=0.9 <= 1) but
        # incompatible with the majority-cluster head one step later
        # (d=2.01 > 1).
        t = np.arange(8.0)
        X = np.stack([0.9 * t, np.zeros(8)], axis=1)
        X[3] = [0.9 * 2, 0.9]
        s = SpeedConstraint(1.0, 6.0)
        from repro.core import mtcsc_l, satisfy

        assert satisfy(t[2], X[2], t[3], X[3], s)  # MTCSC-L keeps it
        _, ch_l = mtcsc_l(t, X, s)
        assert not ch_l[3]
        Xr, ch = mtcsc_c(t, X, s)
        assert ch[3]
        assert Xr[3] == pytest.approx([2.7, 0.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mtcsc_c(np.arange(3.0), np.zeros((2, 1)), SpeedConstraint(1, 1))

    def test_non_increasing_timestamps_raise(self):
        c = ClusterCleaner(SpeedConstraint(1, 1))
        c.feed([1.0], [[0.0]])
        with pytest.raises(ValueError):
            c.feed([0.5], [[1.0]])


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
        Xr, _ = mtcsc_c(t, X, s)
        assert series_satisfies(t, Xr, s)

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_hypothesis_soundness_1d(self, values):
        t = np.arange(len(values), dtype=float)
        X = np.array(values)[:, None]
        s = SpeedConstraint(1.0, 5.0)
        Xr, _ = mtcsc_c(t, X, s)
        assert series_satisfies(t, Xr, s)


class TestConsecutiveErrors:
    def test_beats_local_on_consecutive_error_run(self):
        """The Table 4 regime: an offset run misleads MTCSC-L (it anchors
        on the first compatible successor, an error) while MTCSC-C anchors
        on the majority cluster of clean points."""
        from repro.datasets import gps_walk
        from repro.metrics import rmse

        t, dirty, truth, mask = gps_walk(3000, seed=1)
        s = SpeedConstraint(1.6, 45.0)
        Xl, _ = mtcsc_l(t, dirty, s)
        Xc, _ = mtcsc_c(t, dirty, s)
        assert rmse(Xc, truth) < rmse(Xl, truth)
        assert rmse(Xc, truth) < rmse(dirty, truth)

    def test_incremental_equals_batch(self):
        g = np.random.default_rng(11)
        n = 70
        t = np.arange(n, dtype=float)
        X = np.cumsum(g.normal(0, 0.4, (n, 2)), axis=0)
        X[g.choice(np.arange(1, n), 6, replace=False)] += 15
        s = SpeedConstraint(1.0, 8.0)
        want, _ = mtcsc_c(t, X, s)
        cleaner = ClusterCleaner(s)
        rows = [cleaner.feed(t[i : i + 1], X[i : i + 1])[1] for i in range(n)]
        got = np.concatenate(rows + [cleaner.flush()[1]])
        np.testing.assert_allclose(got, want)
