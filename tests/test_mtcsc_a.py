"""MTCSC-A: bucketing, KL, adaptive constraint updates, end-to-end."""
import importlib

import numpy as np
import pytest

from repro.core import AdaptiveCleaner, AdaptiveSpeed, SpeedConstraint, mtcsc_a
from repro.core.mtcsc_a import bucketize, kl_divergence
from repro.datasets import gps_mixed

# The module, not the function ``repro.core.mtcsc_a`` re-exported under its name.
MTCSC_A = importlib.import_module("repro.core.mtcsc_a")


def _set_constants(monkeypatch, **values):
    """Set Algorithm 5's module constants (``B``, ``TAU``, ``M``, ``BETA``)
    for one test; cleaners built afterwards read them."""
    for name, value in values.items():
        monkeypatch.setattr(MTCSC_A, name, value)


class TestBucketize:
    def test_counts_sum(self):
        g = np.random.default_rng(0)
        speeds = g.random(100) * 3
        assert bucketize(speeds, 6, 2.0).sum() == 100

    def test_overflow_bucket(self):
        counts = bucketize(np.array([5.0, 6.0]), 4, 2.0)
        assert counts[-1] == 2

    def test_zero_speeds_in_first(self):
        counts = bucketize(np.zeros(5), 6, 2.2)
        assert counts[0] == 5

    def test_min_buckets_raises(self):
        with pytest.raises(ValueError):
            bucketize(np.array([1.0]), 1, 2.0)

    @pytest.mark.parametrize("b", [2, 4, 6, 10, 20])
    def test_bucket_count(self, b):
        assert len(bucketize(np.array([0.5]), b, 2.0)) == b


class TestKL:
    def test_nonnegative(self):
        g = np.random.default_rng(1)
        for _ in range(10):
            p = g.random(6)
            q = g.random(6)
            assert kl_divergence(p, q) >= -1e-12

    def test_asymmetric(self):
        p = np.array([10, 0, 0, 0.0])
        q = np.array([5, 5, 0, 0.0])
        assert kl_divergence(p, q) != kl_divergence(q, p)

    def test_zero_q_smoothed_finite(self):
        p = np.array([1, 1.0])
        q = np.array([2, 0.0])
        v = kl_divergence(p, q)
        assert np.isfinite(v) and v > 1.0


class TestAdaptiveSpeed:
    def test_no_update_on_stationary_stream(self, monkeypatch):
        _set_constants(monkeypatch, M=50)
        a = AdaptiveSpeed(2.0)
        g = np.random.default_rng(2)
        for _ in range(500):
            a.observe(g.random() * 1.5)
        assert a.n_updates == 0
        assert a.s == 2.0

    def test_update_on_mode_change(self, monkeypatch):
        _set_constants(monkeypatch, M=50)
        a = AdaptiveSpeed(1.6)
        g = np.random.default_rng(3)
        for _ in range(200):
            a.observe(0.5 + g.random())  # walking speeds < 1.6
        for _ in range(200):
            a.observe(3.5 + g.random())  # cycling speeds >> 1.6
        assert a.n_updates >= 1
        assert a.s > 1.6

    def test_updated_speed_is_quantile_over_beta(self, monkeypatch):
        _set_constants(monkeypatch, M=20, TAU=0.1, BETA=0.5)
        a = AdaptiveSpeed(1.0)
        for _ in range(20):
            a.observe(0.5)
        for _ in range(21):
            a.observe(5.0)
        # After the KL trigger: s = q95(W2)/beta = 5.0/0.5 = 10.
        assert a.s == pytest.approx(10.0)


class TestMtcscA:
    @pytest.mark.parametrize("n_t, n_x", [(3, 2), (2, 3)])
    def test_shape_mismatch_raises(self, n_t, n_x):
        with pytest.raises(ValueError, match="rows but X has"):
            mtcsc_a(np.arange(float(n_t)), np.zeros((n_x, 1)), SpeedConstraint(1, 1))

    def test_matches_c_when_no_update_fires(self, monkeypatch):
        # With an unreachable KL threshold the constraint never updates,
        # so MTCSC-A degenerates to MTCSC-C exactly.
        from repro.core import mtcsc_c

        g = np.random.default_rng(4)
        n = 120
        t = np.arange(n, dtype=float)
        X = np.cumsum(g.normal(0, 0.2, (n, 2)), axis=0)
        X[40] += 10
        s = SpeedConstraint(1.0, 10.0)
        _set_constants(monkeypatch, M=30, TAU=1e9)
        Xa, cha = mtcsc_a(t, X, s)
        Xc, chc = mtcsc_c(t, X, s)
        np.testing.assert_array_equal(Xa, Xc)
        np.testing.assert_array_equal(cha, chc)

    def test_adapts_on_gps_mixed(self):
        """Figure 14 regime: starting with the walking constraint on
        mixed-transport data, the fixed-s cleaner mangles the fast
        segments while MTCSC-A recovers by raising s."""
        from repro.core import mtcsc_c
        from repro.metrics import rmse

        t, dirty, truth, mask, mode = gps_mixed(2400, seed=7)
        s_walk = SpeedConstraint(1.6, 45.0)
        Xc, _ = mtcsc_c(t, dirty, s_walk)
        Xa, _ = mtcsc_a(t, dirty, s_walk)
        assert rmse(Xa, truth) < rmse(Xc, truth)

    def test_speed_update_counter_exposed(self, monkeypatch):
        t, dirty, truth, mask, mode = gps_mixed(2400, seed=8)
        _set_constants(monkeypatch, M=100)
        cleaner = AdaptiveCleaner(SpeedConstraint(1.6, 45.0))
        for i in range(len(t)):
            cleaner.feed(t[i : i + 1], dirty[i : i + 1])
        cleaner.flush()
        assert cleaner.n_speed_updates >= 1
        assert cleaner.current_speed > 1.6
