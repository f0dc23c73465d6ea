"""Every worked example in the paper, verified exactly.

Examples 2.4/2.5/2.6 (global), 2.7 (local optimal), 3.3 (MTCSC-L),
3.5 (MTCSC-C / BuildCluster), 4.1 (adaptive KL + bucket update).
"""
import numpy as np
import pytest

from repro.core import (
    SpeedConstraint,
    exact_min_fix,
    fix_list,
    mtcsc_c,
    mtcsc_g,
    mtcsc_l,
)
from repro.core.mtcsc_a import bucketize, kl_divergence
from repro.core.mtcsc_g import _chain_dp, _chain_dp_naive

from .test_banded_cluster import build_cluster

# Example 2.4 series (D=2, 7 points, t=1..7).
X24 = np.array(
    [(1, 1), (1.8, 1.8), (2.6, 1), (3.4, 1), (4.5, 1), (5.5, 1), (6.4, 1)], float
)
T24 = np.arange(1.0, 8.0)


class TestExample24Violations:
    """Example 2.4: which pairs violate with s=1, w=1."""

    S = SpeedConstraint(1.0, 1.0)

    def test_x1_x2_violate(self):
        from repro.core import satisfy

        assert not satisfy(T24[0], X24[0], T24[1], X24[1], self.S)

    def test_x2_x3_violate(self):
        from repro.core import satisfy

        assert not satisfy(T24[1], X24[1], T24[2], X24[2], self.S)

    def test_univariate_dims_each_satisfy(self):
        # Per-dimension speeds are 0.8 in both x and y: a univariate
        # method sees no violation (the paper's core motivation).
        for d in range(2):
            assert abs(X24[1][d] - X24[0][d]) / (T24[1] - T24[0]) <= 1.0
            assert abs(X24[2][d] - X24[1][d]) / (T24[2] - T24[1]) <= 1.0


class TestExample26GlobalDP:
    """Example 2.6: MTCSC-G fixes {x2, x4} and interpolates."""

    S = SpeedConstraint(1.0, 7.0)

    def test_fixlist(self):
        assert list(fix_list(T24, X24, self.S)) == [1, 3]  # 0-indexed

    def test_repair_values(self):
        Xr, changed = mtcsc_g(T24, X24, self.S)
        assert Xr[1] == pytest.approx([1.8, 1.0])
        assert Xr[3] == pytest.approx([3.55, 1.0])
        assert list(np.nonzero(changed)[0]) == [1, 3]

    def test_unchanged_points(self):
        Xr, _ = mtcsc_g(T24, X24, self.S)
        for i in (0, 2, 4, 5, 6):
            assert Xr[i] == pytest.approx(X24[i])

    def test_matches_solver_optimum(self):
        # Example 2.5: the Gurobi solution also repairs exactly 2 points.
        assert exact_min_fix(T24, X24, self.S) == 2

    def test_naive_dp_agrees(self):
        np.testing.assert_array_equal(
            _chain_dp(T24, X24, self.S), _chain_dp_naive(T24, X24, self.S)
        )


class TestExample33LocalStreaming:
    """Example 3.3: MTCSC-L with w=2 repairs x2, x5, x6."""

    S = SpeedConstraint(1.0, 2.0)

    def test_repair_number(self):
        _, changed = mtcsc_l(T24, X24, self.S)
        assert changed.sum() == 3  # paper: repair number is 3

    def test_repaired_indices(self):
        _, changed = mtcsc_l(T24, X24, self.S)
        assert list(np.nonzero(changed)[0]) == [1, 4, 5]

    def test_repair_values(self):
        Xr, _ = mtcsc_l(T24, X24, self.S)
        assert Xr[1] == pytest.approx([1.8, 1.0])
        assert Xr[4] == pytest.approx([4.4, 1.0])
        assert Xr[5] == pytest.approx([5.4, 1.0])

    def test_local_fix_at_least_global(self):
        # Delta(x, x_global) <= Delta(x, x_local) (Section 3 invariant).
        s_full = SpeedConstraint(1.0, 7.0)
        _, ch_g = mtcsc_g(T24, X24, s_full)
        _, ch_l = mtcsc_l(T24, X24, self.S)
        assert ch_g.sum() <= ch_l.sum()


# Example 3.5 series (D=2, 8 points, t=0..7).
X35 = np.array(
    [(1, 1), (1.8, 1.8), (2.6, 2), (3.5, 1), (4.5, 1), (5.5, 0.5), (6.5, 1), (7.5, 1)],
    float,
)
T35 = np.arange(0.0, 8.0)


class TestExample35Cluster:
    S = SpeedConstraint(1.0, 6.0)

    def test_build_cluster_structure(self):
        # Key point x1; window successors are x2..x7; prev fixed x0.
        tw = T35[2:]
        Xw = X35[2:]
        clusters = build_cluster(T35[0], X35[0], tw, Xw, self.S)
        # Paper: three clusters {x2}, {x3,x4,x6,x7}, {x5} (indices into tw).
        sizes = sorted(len(c) for c in clusters)
        assert sizes == [1, 1, 4]
        big = max(clusters, key=len)
        assert big == [1, 2, 4, 5]  # x3, x4, x6, x7 relative to tw

    def test_repair_values(self):
        Xr, changed = mtcsc_c(T35, X35, self.S)
        assert Xr[1] == pytest.approx([1.8333333, 1.0], abs=1e-4)
        assert Xr[2] == pytest.approx([2.6666667, 1.0], abs=1e-4)
        assert Xr[5] == pytest.approx([5.5, 1.0])
        assert list(np.nonzero(changed)[0]) == [1, 2, 5]

    def test_small_error_repaired(self):
        # x5=(5.5,0.5) satisfies the constraint with x4 only marginally
        # violated; the cluster check still fixes it to the trend.
        Xr, _ = mtcsc_c(T35, X35, self.S)
        assert Xr[5][1] == pytest.approx(1.0)


class TestExample41Adaptive:
    def test_bucket_edges(self):
        # s=2.2, b=6: buckets [0,.44],(.44,.88],...,(1.76,2.2],(2.2,inf].
        speeds = np.array([0.0, 0.44, 0.45, 2.2, 2.21, 10.0])
        counts = bucketize(speeds, 6, 2.2)
        assert counts.sum() == 6
        assert counts[0] == 2  # 0.0 and 0.44
        assert counts[1] == 1  # 0.45
        assert counts[4] == 1  # 2.2
        assert counts[5] == 2  # 2.21 and 10.0

    def test_kl_value(self):
        w1 = np.array([0, 0, 0, 90, 60, 0], float)
        w2 = np.array([3, 4, 1, 44, 25, 73], float)
        assert kl_divergence(w1, w2) == pytest.approx(0.7794, abs=2e-3)

    def test_kl_threshold_triggers_update(self):
        # In the example KL=0.779 > tau=0.75 so s updates to q95(W2)/beta.
        assert kl_divergence(
            np.array([0, 0, 0, 90, 60, 0]), np.array([3, 4, 1, 44, 25, 73])
        ) > 0.75

    def test_kl_identical_is_zero(self):
        c = np.array([1, 2, 3, 4.0])
        assert kl_divergence(c, c) == pytest.approx(0.0)


class TestExample27LocalOptimal:
    """Example 2.7: with w=7 and key x1, only x2 violates locally."""

    def test_single_local_violation(self):
        from repro.core import satisfy

        s = SpeedConstraint(1.0, 7.0)
        bad = [
            j
            for j in range(1, 7)
            if not satisfy(T24[0], X24[0], T24[j], X24[j], s)
        ]
        assert bad == [1]  # only x2

    def test_local_repair_value(self):
        # Repairing x2 between x1 and x3 gives (1.8, 1).
        from repro.core import interpolate

        got = interpolate(T24[0], X24[0], T24[2], X24[2], T24[1])
        assert got == pytest.approx([1.8, 1.0])
