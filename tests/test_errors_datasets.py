"""Error injection (Section 5.1.1) and the synthetic dataset generators."""
import numpy as np
import pytest

from repro import datasets
from repro.errors import inject_errors


class TestInjectErrors:
    def _base(self, n=1000, d=3, seed=0):
        g = np.random.default_rng(seed)
        return np.cumsum(g.normal(0, 0.1, (n, d)), axis=0)

    @pytest.mark.parametrize("rate", [0.025, 0.05, 0.1, 0.2])
    def test_together_rate(self, rate):
        X = self._base()
        dirty, mask = inject_errors(X, rate, pattern="together", seed=1)
        rows = mask.any(axis=1)
        assert rows.sum() == pytest.approx(rate * len(X), abs=1)
        # Every hit row has all dimensions replaced.
        assert (mask[rows].sum(axis=1) == X.shape[1]).all()

    @pytest.mark.parametrize("rate", [0.05, 0.1, 0.2])
    def test_separate_rate(self, rate):
        X = self._base()
        dirty, mask = inject_errors(X, rate, pattern="separate", seed=2)
        # e% split across dims: total affected rows ~ rate * n.
        assert mask.any(axis=1).sum() == pytest.approx(rate * len(X), rel=0.1)
        # Each hit row has exactly one dimension replaced.
        assert (mask.sum(axis=1)[mask.any(axis=1)] == 1).all()

    def test_first_point_never_corrupted(self):
        X = self._base()
        for seed in range(5):
            _, mask = inject_errors(X, 0.5, seed=seed)
            assert not mask[0].any()

    def test_values_within_minmax(self):
        X = self._base()
        dirty, mask = inject_errors(X, 0.2, seed=3)
        for d in range(X.shape[1]):
            lo, hi = X[:, d].min(), X[:, d].max()
            assert dirty[mask[:, d], d].min() >= lo
            assert dirty[mask[:, d], d].max() <= hi

    def test_deterministic_in_seed(self):
        X = self._base()
        d1, m1 = inject_errors(X, 0.1, seed=7)
        d2, m2 = inject_errors(X, 0.1, seed=7)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_array_equal(m1, m2)

    def test_different_seeds_differ(self):
        X = self._base()
        d1, _ = inject_errors(X, 0.1, seed=8)
        d2, _ = inject_errors(X, 0.1, seed=9)
        assert not np.array_equal(d1, d2)

    def test_clean_cells_untouched(self):
        X = self._base()
        dirty, mask = inject_errors(X, 0.15, seed=10)
        np.testing.assert_array_equal(dirty[~mask], X[~mask])

    def test_bad_rate_raises(self):
        with pytest.raises(ValueError):
            inject_errors(self._base(), 1.5)

    def test_bad_pattern_raises(self):
        with pytest.raises(ValueError):
            inject_errors(self._base(), 0.1, pattern="both")


class TestLongSeries:
    @pytest.mark.parametrize(
        "gen,n,d",
        [
            pytest.param(datasets.stock, 500, 1, id="stock-500-1"),
            pytest.param(datasets.ild, 500, 3, id="ild-500-3"),
            pytest.param(datasets.tao, 500, 3, id="tao-500-3"),
        ],
    )
    def test_shapes(self, gen, n, d):
        t, X = gen(n)
        assert t.shape == (n,) and X.shape == (n, d)
        assert np.all(np.diff(t) > 0)

    def test_ecg_shape_and_dims(self):
        t, X = datasets.ecg(400, 8)
        assert X.shape == (400, 8)

    @pytest.mark.parametrize(
        "gen",
        [
            pytest.param(datasets.stock, id="stock"),
            pytest.param(datasets.ild, id="ild"),
            pytest.param(datasets.tao, id="tao"),
        ],
    )
    def test_deterministic(self, gen):
        t1, X1 = gen(200)
        t2, X2 = gen(200)
        np.testing.assert_array_equal(X1, X2)

    def test_ild_channels_correlated(self):
        t, X = datasets.ild(5000)
        c = np.corrcoef(X.T)
        assert abs(c[0, 1]) > 0.2  # diurnal phase shared

    def test_stock_bounded_moves(self):
        t, X = datasets.stock(2000)
        rel = np.abs(np.diff(X[:, 0])) / X[:-1, 0]
        assert rel.max() <= 0.0101


class TestGps:
    def test_walk_outputs(self):
        t, dirty, truth, mask = datasets.gps_walk(2000, seed=0)
        assert dirty.shape == truth.shape == (2000, 2)
        assert mask.dtype == bool and 0 < mask.sum() < 0.15 * 2000

    def test_walk_truth_within_speed(self):
        t, dirty, truth, mask = datasets.gps_walk(2000, seed=1)
        sp = np.sqrt(np.sum(np.diff(truth, axis=0) ** 2, axis=1)) / np.diff(t)
        assert sp.max() <= 1.4 + 1e-9

    def test_walk_errors_are_offsets(self):
        t, dirty, truth, mask = datasets.gps_walk(2000, seed=2)
        np.testing.assert_array_equal(dirty[~mask], truth[~mask])
        assert np.abs(dirty[mask] - truth[mask]).max() <= 25.0 + 1e-9

    def test_walk_has_consecutive_runs(self):
        t, dirty, truth, mask = datasets.gps_walk(11_000, seed=4)
        # Longest run of consecutive errors should be multi-point.
        runs, cur = [], 0
        for m in mask:
            cur = cur + 1 if m else 0
            runs.append(cur)
        assert max(runs) >= 8

    def test_mixed_outputs(self):
        t, dirty, truth, mask, mode = datasets.gps_mixed(1500, seed=0)
        assert set(np.unique(mode)) == {0, 1, 2}
        sp = np.sqrt(np.sum(np.diff(truth, axis=0) ** 2, axis=1)) / np.diff(t)
        # Fast segment really is faster than the walk segment.
        assert np.median(sp[mode[:-1] == 2]) > np.median(sp[mode[:-1] == 0])

    def test_walk_speed_constant(self):
        """The paper's walking constraint (Section 5.4.3), above the
        generator's 1.4 m/s cap (``test_walk_truth_within_speed``)."""
        assert datasets.GPS_WALK_SPEED == 1.6


class TestClassificationSets:
    @pytest.mark.parametrize(
        "fn,n,length,d,k",
        [
            (datasets.arrowhead, 211, 251, 1, 3),
            (datasets.atrialfib, 30, 640, 2, 3),
            (datasets.dsr, 16, 345, 1, 4),
            (datasets.swj, 27, 2500, 4, 3),
        ],
    )
    def test_shapes_match_table2(self, fn, n, length, d, k):
        X, y = fn()
        assert X.shape == (n, length, d)
        assert len(np.unique(y)) == k

    def test_classes_separable(self):
        # Same-class series must be closer than cross-class on average.
        X, y = datasets.arrowhead()
        A = X.reshape(len(X), -1)
        d0 = np.linalg.norm(A[y == 0][:5, None] - A[y == 0][None, :5], axis=2).mean()
        d01 = np.linalg.norm(A[y == 0][:5, None] - A[y == 1][None, :5], axis=2).mean()
        assert d01 > d0
