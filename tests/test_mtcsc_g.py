"""MTCSC-G: optimality, soundness, pruned-DP equivalence (Hypothesis)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SpeedConstraint,
    exact_min_fix,
    fix_list,
    mtcsc_g,
    series_satisfies,
)
from repro.core.mtcsc_g import _chain_dp, _chain_dp_naive


def _random_series(seed, n, d, dirty_frac=0.2):
    g = np.random.default_rng(seed)
    t = np.arange(n, dtype=float)
    X = np.cumsum(g.normal(0, 0.3, (n, d)), axis=0)
    k = int(dirty_frac * n)
    idx = g.choice(n, size=k, replace=False)
    X[idx] += g.normal(0, 10, (k, d))
    return t, X


class TestBasics:
    def test_empty(self):
        Xr, ch = mtcsc_g(np.zeros(0), np.zeros((0, 2)), SpeedConstraint(1, 1))
        assert Xr.shape == (0, 2) and ch.shape == (0,)

    def test_single_point(self):
        Xr, ch = mtcsc_g(np.array([0.0]), np.array([[5.0, 5.0]]), SpeedConstraint(1, 1))
        assert Xr[0] == pytest.approx([5.0, 5.0]) and not ch.any()

    def test_clean_series_untouched(self):
        t = np.arange(50.0)
        X = np.cumsum(np.full((50, 2), 0.1), axis=0)
        Xr, ch = mtcsc_g(t, X, SpeedConstraint(1.0, 10.0))
        np.testing.assert_allclose(Xr, X)
        assert not ch.any()

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mtcsc_g(np.arange(3.0), np.zeros((4, 1)), SpeedConstraint(1, 1))

    def test_univariate_input_1d_promoted(self):
        t = np.arange(5.0)
        Xr, ch = mtcsc_g(t, np.zeros((5, 1)), SpeedConstraint(1, 5))
        assert Xr.shape == (5, 1)

    def test_single_spike_fixed(self):
        t = np.arange(9.0)
        X = np.zeros((9, 1))
        X[4] = 100.0
        Xr, ch = mtcsc_g(t, X, SpeedConstraint(1.0, 9.0))
        assert list(np.nonzero(ch)[0]) == [4]
        assert Xr[4, 0] == pytest.approx(0.0)

    def test_leading_error_uses_first_anchor(self):
        t = np.arange(5.0)
        X = np.array([[100.0], [0.0], [0.1], [0.2], [0.3]])
        Xr, ch = mtcsc_g(t, X, SpeedConstraint(1.0, 5.0))
        assert ch[0] and Xr[0, 0] == pytest.approx(0.0)

    def test_trailing_error_uses_last_anchor(self):
        t = np.arange(5.0)
        X = np.array([[0.0], [0.1], [0.2], [0.3], [100.0]])
        Xr, ch = mtcsc_g(t, X, SpeedConstraint(1.0, 5.0))
        assert ch[4] and Xr[4, 0] == pytest.approx(0.3)


class TestOptimality:
    @pytest.mark.parametrize("seed", range(8))
    def test_fix_count_matches_exact(self, seed):
        g = np.random.default_rng(seed)
        n = 10
        t = np.arange(n, dtype=float)
        X = g.random((n, 2)) * 6
        s = SpeedConstraint(1.0, float(n))
        fl = fix_list(t, X, s)
        assert len(fl) == exact_min_fix(t, X, s)

    @pytest.mark.parametrize("seed", range(8))
    def test_fix_count_matches_exact_short_window(self, seed):
        g = np.random.default_rng(100 + seed)
        n = 9
        t = np.arange(n, dtype=float)
        X = g.random((n, 1)) * 4
        s = SpeedConstraint(1.0, 3.0)
        assert len(fix_list(t, X, s)) == exact_min_fix(t, X, s)

    @given(
        st.lists(st.floats(-5, 5), min_size=3, max_size=10),
        st.floats(0.5, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_optimality_1d(self, values, smax):
        t = np.arange(len(values), dtype=float)
        X = np.array(values)[:, None]
        s = SpeedConstraint(smax, float(len(values)))
        assert len(fix_list(t, X, s)) == exact_min_fix(t, X, s)


class TestSoundness:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_full_window_repair_satisfies(self, seed, d):
        # With w = horizon there are no unconstrained pairs, so the
        # repaired series must fully satisfy the constraint.
        t, X = _random_series(seed, 40, d)
        s = SpeedConstraint(1.0, 40.0)
        Xr, _ = mtcsc_g(t, X, s)
        assert series_satisfies(t, Xr, s)

    @pytest.mark.parametrize("seed", range(4))
    def test_pruned_equals_naive(self, seed):
        t, X = _random_series(50 + seed, 30, 2)
        s = SpeedConstraint(1.0, 7.0)
        np.testing.assert_array_equal(_chain_dp(t, X, s), _chain_dp_naive(t, X, s))

    def test_gap_just_over_window_is_unconstrained(self):
        # t_1 - t_0 = w + 5e-10 > w: the pair is exempt, and x_1 -> x_2 is
        # within speed, so nothing needs repair.
        t = np.array([0.0, 3.0 + 5e-10, 4.0])
        X = np.array([[0.0], [100.0], [101.0]])
        s = SpeedConstraint(1.0, 3.0)
        Xr, ch = mtcsc_g(t, X, s)
        assert not ch.any()
        np.testing.assert_array_equal(Xr, X)
        assert len(fix_list(t, X, s)) == 0

    @given(
        st.lists(
            st.tuples(
                st.integers(1, 3),
                st.sampled_from([0.0, 5e-10, -5e-10, 1e-9]),
                st.floats(-4, 4),
            ),
            min_size=2,
            max_size=25,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_pruned_equals_naive_at_window_boundary(self, points):
        # Integer steps plus sub-EPS jitter put many pair gaps at exactly
        # w and in (w, w + 1e-9], where the prefix-max fold must agree with
        # satisfy()'s window exemption.
        steps, jitter, values = zip(*points)
        t = np.cumsum(steps).astype(float) + np.array(jitter)
        X = np.array(values)[:, None]
        s = SpeedConstraint(1.0, 3.0)
        np.testing.assert_array_equal(_chain_dp(t, X, s), _chain_dp_naive(t, X, s))

    def test_irregular_timestamps(self):
        t = np.array([0.0, 1.0, 1.5, 4.0, 10.0])
        X = np.array([[0.0], [50.0], [0.5], [1.0], [2.0]])
        s = SpeedConstraint(1.0, 10.0)
        Xr, ch = mtcsc_g(t, X, s)
        assert ch[1] and not ch[0]
        assert series_satisfies(t, Xr, s)
