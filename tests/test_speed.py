"""Unit tests for the speed-constraint primitives (repro.core.speed)."""
import numpy as np
import pytest

from repro.core.speed import (
    SpeedConstraint,
    distance,
    distances,
    estimate_speed,
    interpolate,
    satisfy,
    series_satisfies,
    violations,
)


class TestSpeedConstraint:
    def test_valid(self):
        s = SpeedConstraint(1.5, 10.0)
        assert s.smax == 1.5 and s.window == 10.0

    @pytest.mark.parametrize("smax", [0.0, -1.0, float("nan")])
    def test_invalid_smax(self, smax):
        with pytest.raises(ValueError):
            SpeedConstraint(smax, 1.0)

    @pytest.mark.parametrize("window", [0.0, -2.0, float("nan")])
    def test_invalid_window(self, window):
        with pytest.raises(ValueError):
            SpeedConstraint(1.0, window)

    def test_frozen(self):
        s = SpeedConstraint(1.0, 1.0)
        with pytest.raises(Exception):
            s.smax = 2.0


class TestDistance:
    def test_1d(self):
        assert distance(np.array([1.0]), np.array([4.0])) == 3.0

    def test_2d(self):
        assert distance(np.array([0, 0]), np.array([3, 4])) == 5.0

    def test_zero(self):
        assert distance(np.array([2.0, 2.0]), np.array([2.0, 2.0])) == 0.0

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 32])
    def test_dims(self, d):
        a = np.zeros(d)
        b = np.ones(d)
        assert distance(a, b) == pytest.approx(np.sqrt(d))

    def test_symmetry(self):
        g = np.random.default_rng(0)
        a, b = g.random(5), g.random(5)
        assert distance(a, b) == distance(b, a)

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 32, 100])
    def test_distances_are_distance_bit_for_bit(self, d):
        """The vectorised rows sum in the scalar order, so band checks
        decide exactly as scalar ones."""
        g = np.random.default_rng(d)
        W, x = g.normal(0, 10, (60, d)), g.normal(0, 10, d)
        assert distances(W, x).tolist() == [distance(w, x) for w in W]


class TestSatisfy:
    S = SpeedConstraint(1.0, 5.0)

    def test_paper_example_violation(self):
        # Example 2.4: x1=(1,1), x2=(1.8,1.8), speed ~1.13 > 1.
        assert not satisfy(1, np.array([1, 1]), 2, np.array([1.8, 1.8]), self.S)

    def test_paper_example_ok(self):
        # Repaired x2'=(1.8,1) is compatible with x1.
        assert satisfy(1, np.array([1, 1]), 2, np.array([1.8, 1.0]), self.S)

    def test_outside_window_unconstrained(self):
        assert satisfy(0, np.array([0.0]), 100, np.array([1e6]), self.S)

    def test_boundary_exact(self):
        # Distance exactly s*dt must satisfy (boundary repairs land here).
        assert satisfy(0, np.array([0.0]), 2, np.array([2.0]), self.S)

    def test_same_timestamp_equal(self):
        assert satisfy(1, np.array([3.0]), 1, np.array([3.0]), self.S)

    def test_same_timestamp_different(self):
        assert not satisfy(1, np.array([3.0]), 1, np.array([4.0]), self.S)

    def test_order_invariance(self):
        a, b = np.array([0.0, 0.0]), np.array([1.0, 1.0])
        assert satisfy(0, a, 3, b, self.S) == satisfy(3, b, 0, a, self.S)


class TestSeriesSatisfies:
    def test_clean_series(self):
        t = np.arange(5.0)
        X = np.linspace(0, 2, 5)[:, None]  # speed 0.5
        assert series_satisfies(t, X, SpeedConstraint(1.0, 5.0))

    def test_violating_series(self):
        t = np.arange(3.0)
        X = np.array([[0.0], [5.0], [0.0]])
        assert not series_satisfies(t, X, SpeedConstraint(1.0, 5.0))

    def test_nonconsecutive_violation_detected(self):
        # Consecutive pairs OK at speed 1, but x0 -> x2 violates a tighter
        # pairwise check is unnecessary on a line; construct a zigzag in 2-D
        # where consecutive pairs satisfy but a skip pair does not exist --
        # on a straight line it cannot; use differing directions.
        t = np.arange(3.0)
        X = np.array([[0, 0], [0.9, 0], [0.0, 0.9]], float)
        s = SpeedConstraint(1.0, 5.0)
        # d(x0,x2)=0.9 over dt=2 fine; d(x1,x2)=1.27 > 1 violates.
        assert not series_satisfies(t, X, s)
        assert (1, 2) in violations(t, X, s)

    def test_violations_lists_pairs(self):
        t = np.arange(3.0)
        X = np.array([[0.0], [5.0], [10.0]])
        v = violations(t, X, SpeedConstraint(1.0, 5.0))
        assert (0, 1) in v and (1, 2) in v and (0, 2) in v


class TestInterpolate:
    def test_midpoint(self):
        got = interpolate(0, np.array([0.0, 0.0]), 2, np.array([2.0, 4.0]), 1)
        assert got == pytest.approx([1.0, 2.0])

    def test_paper_formula(self):
        # Example 2.6: repair of x2 between x1=(1,1)@t1 and x3=(2.6,1)@t3.
        got = interpolate(1, np.array([1.0, 1.0]), 3, np.array([2.6, 1.0]), 2)
        assert got == pytest.approx([1.8, 1.0])

    def test_endpoint_left(self):
        p = np.array([1.0])
        m = np.array([5.0])
        assert interpolate(0, p, 4, m, 0) == pytest.approx([1.0])

    def test_endpoint_right(self):
        p = np.array([1.0])
        m = np.array([5.0])
        assert interpolate(0, p, 4, m, 4) == pytest.approx([5.0])


class TestEstimateSpeed:
    def test_constant_speed(self):
        t = np.arange(10.0)
        X = (2.0 * t)[:, None]
        assert estimate_speed(t, X, quantile=0.5) == pytest.approx(2.0)

    def test_quantile_and_scale(self):
        t = np.arange(11.0)
        X = np.concatenate([np.zeros(10), [100.0]])[:, None]
        s99 = estimate_speed(t, X, quantile=1.0)
        assert s99 == pytest.approx(100.0)
        assert estimate_speed(t, X, quantile=1.0, scale=0.5) == pytest.approx(50.0)

    def test_too_short(self):
        with pytest.raises(ValueError):
            estimate_speed(np.array([0.0]), np.zeros((1, 1)))
