"""MTCSC-C: BuildCluster semantics, soundness, consecutive-error regime,
the scalar reference."""
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AdaptiveCleaner,
    ClusterCleaner,
    SpeedConstraint,
    mtcsc_a,
    mtcsc_c,
    mtcsc_l,
    mtcsc_uni,
    series_satisfies,
)
from repro.core.cluster import largest_head

from . import scalar_reference as ref
from .test_banded_cluster import DATASETS, assert_bits_equal, build_cluster
from .test_mtcsc_l import S, _ild, series

ONLINE = importlib.import_module("repro.core.online")
# The module, not the function re-exported under its name.
MTCSC_A = importlib.import_module("repro.core.mtcsc_a")
#: Blocks of keys small enough that a feed ends some blocks, or the runs
#: of keys between MTCSC-A's constraint moves, on fewer keys than the
#: cleaner speculates on, and right after a run of speculatively kept keys.
SMALL_BLOCKS = [9, 10, 17]
#: The cleaners that go through the online loop in runs of ``BLOCK`` keys,
#: with their scalar references.
CLEANERS = [(mtcsc_l, ref.mtcsc_l), (mtcsc_c, ref.mtcsc_c),
            (mtcsc_a, ref.mtcsc_a), (mtcsc_uni, ref.mtcsc_uni)]


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
        # Each point's cluster head (-1: omitted) for the clusters
        # [[0], [2], [4]], [[0], [1, 3], [2, 5]] and none.
        heads = np.array([[0, -1, 2, -1, 4, -1], [0, 1, 2, 1, -1, 2], [-1] * 6])
        keys, offsets = np.indices(heads.shape).reshape(2, -1)
        runs = keys, offsets, heads.ravel()  # one run per point
        assert largest_head(runs, np.full(3, 6)).tolist() == [0, 1, -1]
        assert ref.largest_cluster_head([[0], [2], [4]]) == 0
        assert ref.largest_cluster_head([[0], [1, 3], [2, 5]]) == 1
        assert ref.largest_cluster_head([]) is None


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


class TestScalarReference:
    """The lockstep MTCSC-C equals the per-point rule of
    ``tests/scalar_reference.py`` bit for bit, and so do MTCSC-A and
    MTCSC-Uni, which share its scan, and MTCSC-L, which shares its loop."""

    @given(series(), st.sampled_from([*SMALL_BLOCKS, ONLINE.BLOCK]))
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_equals_scalar_reference(self, tx, block):
        t, X = tx
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ONLINE, "BLOCK", block)
            for fn, ref_fn in CLEANERS:
                for got, want in zip(fn(t, X, S), ref_fn(t, X, S)):
                    assert_bits_equal(got, want)

    @pytest.mark.parametrize("block", SMALL_BLOCKS)
    @pytest.mark.parametrize("data", ["gps-mixed", "ild-20%"])
    def test_small_blocks_equal_scalar_reference(self, data, block, monkeypatch):
        """Each block starts from the previous repair the last one left,
        also when the last one ended on keys kept under the speculation."""
        t, X, s = DATASETS[data]() if data in DATASETS else _ild(0.2)
        monkeypatch.setattr(ONLINE, "BLOCK", block)
        for fn, ref_fn in CLEANERS:
            for got, want in zip(fn(t, X, s), ref_fn(t, X, s)):
                assert_bits_equal(got, want)

    @pytest.mark.parametrize("rows", [37, pytest.param(None, id="whole")])
    @pytest.mark.parametrize("data", ["gps-walk", "ild"])
    def test_adaptive_moves_on_consecutive_keys(self, data, rows, monkeypatch):
        """MTCSC-A under a monitor that moves the constraint every few
        keys, often on consecutive ones: each run of keys between moves
        starts from the actual previous repair and anchor."""
        t, X, s = DATASETS[data]()
        monkeypatch.setattr(MTCSC_A, "M", 10)
        monkeypatch.setattr(MTCSC_A, "TAU", 0.05)
        got, want = AdaptiveCleaner(s), ref.AdaptiveCleaner(s, m=10, tau=0.05)
        keys, decided, moves = [], [0], got.moves

        def record(ts, xs, m):  # the stream index of each move
            out = moves(ts, xs, m)
            keys.extend(decided[0] + k for k in out)
            decided[0] += m
            return out

        monkeypatch.setattr(got, "moves", record)
        rows = rows or len(t)
        out = [got.feed(t[lo : lo + rows], X[lo : lo + rows])[1] for lo in range(0, len(t), rows)]
        assert_bits_equal(np.concatenate(out + [got.flush()[1]]), want.run(t, X))
        assert got.n_speed_updates == want.adaptive.n_updates
        assert np.any(np.diff(keys) == 1)

    @pytest.mark.parametrize("data", [*DATASETS, "ild-5%", "ild-20%", "ild-40%"])
    def test_datasets_equal_scalar_reference(self, data):
        rate = data.removeprefix("ild-").removesuffix("%")
        t, X, s = _ild(int(rate) / 100) if rate.isdigit() else DATASETS[data]()
        got, want = mtcsc_c(t, X, s), ref.mtcsc_c(t, X, s)
        for a, b in zip(got, want):
            assert_bits_equal(a, b)
        changed = got[1]
        assert np.any(changed[:-1] & ~changed[1:])  # repaired -> kept

    @pytest.mark.parametrize("rows", [1, 5, 37, pytest.param(None, id="whole")])
    def test_feeds_equal_scalar_reference(self, rows):
        """Each feed returns the points the per-point rule emits for that
        block, and the same repairs."""
        t, X, s = DATASETS["gps-mixed"]()
        got, want = ClusterCleaner(s), ref.ClusterCleaner(s)
        rows = rows or len(t)
        for lo in range(0, len(t), rows):
            block = t[lo : lo + rows], X[lo : lo + rows]
            for a, b in zip(got.feed(*block), want.feed(*block)):
                assert_bits_equal(a, b)
        for a, b in zip(got.flush(), want.flush()):
            assert_bits_equal(a, b)
