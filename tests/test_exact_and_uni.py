"""Exact solver substitute and MTCSC-Uni."""
import numpy as np
import pytest

from repro.core import SpeedConstraint, exact_min_fix, mtcsc_c, mtcsc_uni


class TestExact:
    S = SpeedConstraint(1.0, 10.0)

    def test_clean_series_zero_fixes(self):
        t = np.arange(6.0)
        X = (0.5 * t)[:, None]
        assert exact_min_fix(t, X, self.S) == 0

    def test_single_outlier_one_fix(self):
        t = np.arange(6.0)
        X = (0.5 * t)[:, None]
        X[3] = 100.0
        assert exact_min_fix(t, X, self.S) == 1

    def test_two_outliers(self):
        t = np.arange(8.0)
        X = (0.5 * t)[:, None]
        X[2] = 100.0
        X[5] = -100.0
        assert exact_min_fix(t, X, self.S) == 2

    def test_majority_shifted(self):
        # 4 of 6 points shifted far away: keeping the shifted majority
        # needs only 2 fixes.
        t = np.arange(6.0)
        X = np.zeros((6, 1))
        X[2:] = 100.0
        assert exact_min_fix(t, X, self.S) == 2

    def test_too_large_raises(self):
        with pytest.raises(ValueError):
            exact_min_fix(np.arange(25.0), np.zeros((25, 1)), self.S)


class TestUni:
    def test_separate_dimension_error_fixed(self):
        # Error in one dimension only: Uni fixes it using that dim alone.
        t = np.arange(20.0)
        X = np.zeros((20, 3))
        X[:, 0] = 0.1 * t
        X[7, 2] = 50.0
        s = SpeedConstraint(1.0, 8.0)
        Xr, ch = mtcsc_uni(t, X, s)
        assert ch[7]
        assert abs(Xr[7, 2]) < 1.0
        # Other dimensions untouched.
        np.testing.assert_allclose(Xr[:, 0], X[:, 0])

    def test_changed_is_or_of_dimensions(self):
        t = np.arange(15.0)
        X = np.zeros((15, 2))
        X[4, 0] = 30.0
        X[9, 1] = 30.0
        Xr, ch = mtcsc_uni(t, X, SpeedConstraint(1.0, 6.0))
        assert ch[4] and ch[9]
