"""Baseline cleaners: interface contracts + method-specific behaviour."""
import importlib
import inspect

import numpy as np
import pytest

from repro import baselines
from repro.baselines import (
    caem_proxy,
    ewma,
    holoclean_lite,
    htd,
    lsgreedy,
    rcsws,
    screen,
    speed_acc,
    tranad_proxy,
)
from repro.core import SpeedConstraint, mtcsc_a, mtcsc_c, mtcsc_g, mtcsc_l, mtcsc_uni
from repro.metrics import evaluate

S = SpeedConstraint(1.0, 8.0)


def _spiky_series(n=60, d=2, seed=0, n_err=5, mag=20.0):
    g = np.random.default_rng(seed)
    t = np.arange(n, dtype=float)
    X = np.cumsum(g.normal(0, 0.2, (n, d)), axis=0)
    truth = X.copy()
    idx = g.choice(np.arange(1, n), n_err, replace=False)
    X[idx] += mag
    return t, X, truth, idx


ALL = [
    ("screen", lambda t, X: screen(t, X, S)),
    ("speed_acc", lambda t, X: speed_acc(t, X, S)),
    ("lsgreedy", lambda t, X: lsgreedy(t, X)),
    ("ewma", lambda t, X: ewma(t, X)),
    ("htd", lambda t, X: htd(t, X)),
    ("rcsws", lambda t, X: rcsws(t, X)),
    ("holoclean", lambda t, X: holoclean_lite(t, X, S)),
    ("tranad", lambda t, X: tranad_proxy(t, X)),
    ("caem", lambda t, X: caem_proxy(t, X)),
]


#: The MTCSC cleaners, so that the output contract is checked on all of
#: ``repro.methods.METHODS``.
MTCSC = [
    ("mtcsc_g", lambda t, X: mtcsc_g(t, X, S)),
    ("mtcsc_l", lambda t, X: mtcsc_l(t, X, S)),
    ("mtcsc_c", lambda t, X: mtcsc_c(t, X, S)),
    ("mtcsc_a", lambda t, X: mtcsc_a(t, X, S)),
    ("mtcsc_uni", lambda t, X: mtcsc_uni(t, X, S)),
]


class TestContracts:
    @pytest.mark.parametrize("name,fn", ALL + MTCSC)
    def test_shapes_and_mask(self, name, fn):
        t, X, truth, idx = _spiky_series()
        Xr, ch = fn(t, X)
        assert Xr.shape == X.shape
        assert ch.shape == (len(t),) and ch.dtype == bool
        # The mask marks exactly the modified points.
        moved = np.any(np.abs(Xr - X) > 1e-12, axis=1)
        np.testing.assert_array_equal(ch, moved)
        assert evaluate(Xr, X, truth)["repair_number"] == ch.sum()

    @pytest.mark.parametrize("name,fn", ALL)
    def test_input_not_mutated(self, name, fn):
        t, X, truth, idx = _spiky_series(seed=1)
        X0 = X.copy()
        fn(t, X)
        np.testing.assert_array_equal(X, X0)

    @pytest.mark.parametrize(
        "name,fn", [(n, f) for n, f in ALL if n not in ("rcsws",)]
    )
    def test_univariate_supported(self, name, fn):
        g = np.random.default_rng(2)
        t = np.arange(40.0)
        X = np.cumsum(g.normal(0, 0.2, (40, 1)), axis=0)
        X[10] += 15
        Xr, ch = fn(t, X)
        assert Xr.shape == (40, 1)


class TestScreen:
    def test_spike_repaired(self):
        t, X, truth, idx = _spiky_series(seed=3)
        Xr, ch = screen(t, X, S)
        assert np.sqrt(np.mean((Xr - truth) ** 2)) < np.sqrt(
            np.mean((X - truth) ** 2)
        )

    def test_border_repair_behaviour(self):
        # Min-change clamps the repair to the feasible border: the repaired
        # value sits exactly at prev + s*dt when the spike is far above.
        t = np.arange(5.0)
        x = np.array([0.0, 0.0, 30.0, 0.0, 0.0])[:, None]
        Xr, _ = screen(t, x, SpeedConstraint(1.0, 2.0))
        # Feasible border from x1'=0 is 0 + 1*1 = 1... median candidate
        # pulls to 1.0 (clamped), not to the interpolation 0.0.
        assert Xr[2, 0] == pytest.approx(1.0)

    def test_clean_series_untouched(self):
        t = np.arange(20.0)
        x = (0.3 * t)[:, None]
        Xr, ch = screen(t, x, S)
        assert not ch.any()

    def test_multivariate_blindspot(self):
        # The Example 2.4 motivation: per-dimension speeds all within s,
        # so SCREEN leaves the multivariate violation untouched.
        X = np.array(
            [(1, 1), (1.8, 1.8), (2.6, 1), (3.4, 1), (4.5, 1), (5.5, 1), (6.4, 1)],
            float,
        )
        t = np.arange(1.0, 8.0)
        Xr, ch = screen(t, X, SpeedConstraint(1.0, 1.0))
        assert not ch[1]  # x2 kept although multivariate speed is 1.13


class TestSpeedAcc:
    def test_spike_repaired(self):
        t, X, truth, idx = _spiky_series(seed=4)
        Xr, _ = speed_acc(t, X, S)
        assert np.sqrt(np.mean((Xr - truth) ** 2)) < np.sqrt(
            np.mean((X - truth) ** 2)
        )

    def test_acceleration_tightens_or_equals_screen(self):
        t, X, truth, idx = _spiky_series(seed=5)
        Xs, chs = screen(t, X, S)
        Xa, cha = speed_acc(t, X, S)
        assert cha.sum() >= chs.sum() - 2  # comparable repair activity


class TestLsGreedy:
    def test_spike_repaired(self):
        t = np.arange(30.0)
        x = np.zeros((30, 1))
        x[12] = 25.0
        Xr, ch = lsgreedy(t, x)
        assert ch[12] and abs(Xr[12, 0]) < 2.0

    def test_degrades_at_high_error_rate(self):
        """Figure 6 failure mode: with ~30% errors the fitted spread
        inflates and LsGreedy repairs proportionally fewer of the dirty
        points than at 5%."""
        g = np.random.default_rng(6)
        n = 400
        t = np.arange(n, dtype=float)

        def run(rate):
            x = np.cumsum(g.normal(0, 0.1, (n, 1)), axis=0)
            idx = g.choice(np.arange(1, n), int(rate * n), replace=False)
            x[idx] += g.normal(0, 15, (len(idx), 1))
            _, ch = lsgreedy(t, x)
            return ch.sum() / len(idx)

        assert run(0.30) < run(0.05) * 1.5

    def test_short_series_noop(self):
        t = np.arange(2.0)
        x = np.array([[0.0], [100.0]])
        Xr, ch = lsgreedy(t, x)
        assert not ch.any()


class TestEwma:
    def test_changes_almost_everything(self):
        t, X, truth, idx = _spiky_series(seed=7)
        _, ch = ewma(t, X)
        assert ch.mean() > 0.9  # the over-repair behaviour

    def test_first_point_kept(self):
        t, X, truth, idx = _spiky_series(seed=8)
        Xr, ch = ewma(t, X)
        assert not ch[0]

    def test_lambda_one_identity(self, monkeypatch):
        # The module, not the function re-exported under its name.
        monkeypatch.setattr(importlib.import_module("repro.baselines.ewma"), "LAM", 1.0)
        t, X, truth, idx = _spiky_series(seed=9)
        Xr, ch = ewma(t, X)
        assert not ch.any()


class TestHtd:
    def test_repairs_few_points(self):
        t, X, truth, idx = _spiky_series(n=300, seed=10, n_err=9)
        _, ch = htd(t, X)
        assert ch.sum() <= 3 * len(idx)  # conservative detector

    def test_labels_improve_detection(self):
        t, X, truth, idx = _spiky_series(n=300, seed=11, n_err=9)
        _, ch_blind = htd(t, X)
        _, ch_sup = htd(t, X, truth=truth)
        assert ch_sup.sum() >= ch_blind.sum()

    def test_interpolation_repair_value(self):
        t = np.arange(7.0)
        x = np.zeros((7, 1))
        x[3] = 50.0
        Xr, ch = htd(t, x)
        assert ch[3] and abs(Xr[3, 0]) < 1e-6

    def test_run_interpolated_between_unflagged_neighbours(self):
        # Clean data on a line: every nonzero residual is flagged.  The run
        # of errors at 3..5 also lifts the residuals of cells 2 and 6, so
        # cells 2..6 are flagged and each is interpolated between cells 1
        # and 7, which puts it back on the line (cells 2 and 6 do not move).
        t = np.arange(10.0)
        truth = np.column_stack([2 * t + 1, np.full(10, 4.0)])
        X = truth.copy()
        X[3:6, 0] += [10.0, 30.0, 20.0]
        Xr, ch = htd(t, X, truth=truth)
        np.testing.assert_array_equal(np.flatnonzero(ch), [3, 4, 5])
        np.testing.assert_allclose(Xr, truth, rtol=0, atol=1e-12)


class TestRcsws:
    def test_requires_2d(self):
        with pytest.raises(ValueError):
            rcsws(np.arange(5.0), np.zeros((5, 3)))

    def test_small_repair_distance(self):
        # Projection onto the range boundary moves points only slightly
        # (the paper's small repair-distance observation).
        t, X, truth, idx = _spiky_series(n=200, seed=12, n_err=6, mag=10)
        Xr, ch = rcsws(t, X)
        dist = np.mean(np.sqrt(np.sum((Xr - X) ** 2, axis=1)))
        assert dist < 2.0

    def test_outliers_flagged(self):
        t, X, truth, idx = _spiky_series(n=200, seed=13, n_err=6, mag=30)
        _, ch = rcsws(t, X)
        assert ch[idx].mean() > 0.5


class TestHoloCleanLite:
    def test_spike_repaired_to_bucket(self):
        g = np.random.default_rng(14)
        t = np.arange(100.0)
        x = np.cumsum(g.normal(0, 0.05, (100, 1)), axis=0)
        truth = x.copy()
        x[50] += 20
        Xr, ch = holoclean_lite(t, x, S)
        assert ch[50]
        assert abs(Xr[50, 0] - truth[50, 0]) < 5.0  # bucket-quantized repair

    def test_constant_dimension_no_crash(self):
        t = np.arange(10.0)
        x = np.ones((10, 2))
        Xr, ch = holoclean_lite(t, x, S)
        assert not ch.any()


class TestDlProxies:
    def test_tranad_overrepairs(self):
        t, X, truth, idx = _spiky_series(n=200, seed=15)
        _, ch = tranad_proxy(t, X)
        assert ch.mean() > 0.9

    def test_tranad_short_series_noop(self):
        t = np.arange(5.0)
        Xr, ch = tranad_proxy(t, np.zeros((5, 2)))
        assert not ch.any()

    def test_caem_overrepairs(self):
        t, X, truth, idx = _spiky_series(n=200, seed=16)
        _, ch = caem_proxy(t, X)
        assert ch.mean() > 0.9

    def test_caem_short_series_noop(self):
        t = np.arange(8.0)
        Xr, ch = caem_proxy(t, np.zeros((8, 2)))
        assert not ch.any()

    def test_caem_reconstruction_smooth(self):
        # PCA reconstruction from few components smooths the spike away.
        t, X, truth, idx = _spiky_series(n=300, seed=17, n_err=3, mag=40)
        Xr, _ = caem_proxy(t, X)
        assert np.abs(Xr[idx] - X[idx]).max() > 1.0  # spikes were altered


@pytest.mark.parametrize(
    "fn",
    [mtcsc_g, mtcsc_l, mtcsc_c, mtcsc_a, mtcsc_uni]
    + [getattr(baselines, name) for name in baselines.__all__],
    ids=lambda fn: fn.__name__,
)
def test_no_tuning_keywords(fn):
    """Every cleaner runs at its module's settings: it takes the series,
    the speed constraint and the labels, and nothing to tune."""
    assert set(inspect.signature(fn).parameters) <= {"t", "X", "s", "truth"}
