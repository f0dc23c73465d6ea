"""Synthetic equivalents of the paper's datasets (Table 2).

The container is offline, so every real dataset is replaced with a
deterministic generator that preserves its size, dimensionality and the
signal character the experiments depend on (see DESIGN.md Section 2.2).
All generators return numpy arrays ``(t, X)`` with ``t`` of shape
``(n,)`` (unit-spaced) and ``X`` of shape ``(n, D)``; classification
sets return ``(X_3d, y)`` with ``X_3d`` of shape
``(n_series, length, D)``.
"""
from __future__ import annotations

import numpy as np


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Long single-series datasets


def stock(n: int = 12_000, *, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Stock-like 1-D price series: geometric random walk, bounded daily move."""
    g = _rng(seed)
    steps = np.clip(g.normal(0.0, 0.004, n), -0.01, 0.01)
    price = 100.0 * np.exp(np.cumsum(steps))
    return np.arange(n, dtype=float), price[:, None]


def ild(n: int = 43_000, *, seed: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Intel-Lab-like 3-D sensor series (temperature/humidity/light scale).

    Slow diurnal sinusoid + AR(1) noise; channels share the diurnal
    phase so they are correlated, with comparable per-channel scales
    (the paper's observation that similar scaling is what matters).
    """
    g = _rng(seed)
    t = np.arange(n, dtype=float)
    day = np.sin(2 * np.pi * t / 2880.0)  # ~one period per "day"

    def chan(base: float, amp: float, ar_scale: float, phase: float) -> np.ndarray:
        noise = np.empty(n)
        noise[0] = 0.0
        eps = g.normal(0.0, ar_scale, n)
        for i in range(1, n):
            noise[i] = 0.95 * noise[i - 1] + eps[i]
        return base + amp * np.sin(2 * np.pi * t / 2880.0 + phase) + noise

    X = np.stack(
        [
            chan(20.0, 3.0, 0.02, 0.0),  # temperature-like
            chan(40.0, 5.0, 0.03, 0.4),  # humidity-like
            chan(30.0, 6.0, 0.03, 0.9),  # light-like (rescaled)
        ],
        axis=1,
    )
    return t, X


def tao(n: int = 568_000, *, seed: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """TAO-like 3-D ocean sensor series: slow drift + tide harmonics."""
    g = _rng(seed)
    t = np.arange(n, dtype=float)
    drift = np.cumsum(g.normal(0.0, 0.001, n))
    X = np.stack(
        [
            25.0 + 0.5 * np.sin(2 * np.pi * t / 7200.0) + drift,
            24.0 + 0.4 * np.sin(2 * np.pi * t / 7200.0 + 0.5) + 0.8 * drift,
            26.0 + 0.6 * np.sin(2 * np.pi * t / 14400.0 + 1.0) + 0.5 * drift,
        ],
        axis=1,
    )
    return t, X


def ecg(
    n: int = 94_000, d: int = 32, *, seed: int = 3
) -> tuple[np.ndarray, np.ndarray]:
    """ECG-like high-dimensional series: QRS-ish pulse train, 32 leads.

    Each lead is a scaled, phase-shifted projection of the same pulse
    source plus lead-local noise — highly correlated, like real leads.
    """
    g = _rng(seed)
    t = np.arange(n, dtype=float)
    period = 160.0
    phase = (t % period) / period
    # QRS-like narrow spike + P/T-like slow bumps.
    source = (
        1.2 * np.exp(-0.5 * ((phase - 0.5) / 0.02) ** 2)
        - 0.3 * np.exp(-0.5 * ((phase - 0.44) / 0.02) ** 2)
        + 0.25 * np.exp(-0.5 * ((phase - 0.75) / 0.06) ** 2)
    )
    leads = []
    for ell in range(d):
        scale = 0.5 + g.random()
        shift = int(g.integers(0, 8))
        leads.append(scale * np.roll(source, shift) + g.normal(0, 0.01, n))
    return t, np.stack(leads, axis=1)


# ---------------------------------------------------------------------------
# GPS trajectories with embedded (labeled) real-style errors


def _walk_trajectory(
    n: int, g: np.random.Generator, cap: float | np.ndarray
) -> np.ndarray:
    """2-D trajectory: heading random walk, speed <= cap (1 Hz).

    ``cap`` is one speed bound or one per step.
    """
    heading = np.cumsum(g.normal(0.0, 0.15, n))
    speed = np.clip(cap * (0.6 + 0.3 * g.random(n)), 0.0, cap)
    vx = speed * np.cos(heading)
    vy = speed * np.sin(heading)
    return np.stack([np.cumsum(vx), np.cumsum(vy)], axis=1)


def _embed_error_runs(
    X: np.ndarray,
    g: np.random.Generator,
    *,
    n_runs: int,
    max_run: int,
    offset_lo: float,
    offset_hi: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Shift contiguous runs of points by a constant offset (building shadow).

    Returns ``(dirty, error_mask)``.  Run lengths are 1..max_run with the
    paper's 'longest error sequence contains 17 points' regime reachable.
    """
    n = len(X)
    dirty = X.copy()
    mask = np.zeros(n, dtype=bool)
    for _ in range(n_runs):
        run = int(g.integers(1, max_run + 1))
        start = int(g.integers(1, n - run))
        if mask[max(0, start - 2) : start + run + 2].any():
            continue  # keep runs disjoint and separated
        angle = g.random() * 2 * np.pi
        mag = offset_lo + g.random() * (offset_hi - offset_lo)
        offset = mag * np.array([np.cos(angle), np.sin(angle)])
        dirty[start : start + run] += offset
        mask[start : start + run] = True
    return dirty, mask


def gps_walk(
    n: int = 11_000, *, seed: int = 4
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """GPS(Walk): 1 Hz walking trajectory with embedded consecutive errors.

    Returns ``(t, dirty, truth, error_mask)``.  Walking speed <= 1.4 m/s;
    error runs are constant offsets of 5-25 m lasting up to 17 points
    (the regime reported in Section 5.4.1 that defeats MTCSC-L).  Run
    density scales with ``n`` so the dirty fraction (~2-3%) matches the
    Table 4 regime at any size.
    """
    g = _rng(seed)
    truth = _walk_trajectory(n, g, 1.4)
    dirty, mask = _embed_error_runs(
        truth, g, n_runs=max(3, n // 250), max_run=17, offset_lo=5.0, offset_hi=25.0
    )
    return np.arange(n, dtype=float), dirty, truth, mask


#: The walking speed constraint (m/s) the paper sets on GPS(Walk) from
#: domain knowledge (Section 5.4.3).
GPS_WALK_SPEED = 1.6


def gps_mixed(
    n: int = 8_000, *, seed: int = 5
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """GPS(Mixed): walk -> run -> cycle segments with embedded errors.

    Returns ``(t, dirty, truth, error_mask, mode)`` where ``mode`` is
    0/1/2 for walking (<=1.4), running (<=3.33), cycling (<=5.0 m/s).
    Used by the MTCSC-A adaptive-speed experiment (Figure 14).
    """
    g = _rng(seed)
    seg = n // 3
    speeds = [1.4, 3.33, 5.0]
    mode = np.minimum(np.arange(n) // seg, 2)
    # Per-step speed cap: piecewise constant per mode with a linear ramp
    # over the first `ramp` points of each segment — people accelerate
    # gradually, and the gradual change is what the paper's KL monitor
    # (m=150 speeds per window) is designed to track.
    ramp = max(1, min(300, seg // 4))
    cap = np.array([speeds[m] for m in mode], dtype=float)
    for k in (1, 2):
        start = k * seg
        if start < n:
            run = min(ramp, n - start)
            cap[start : start + run] = np.linspace(
                speeds[k - 1], speeds[k], run
            )
    truth = _walk_trajectory(n, g, cap)
    dirty, mask = _embed_error_runs(
        truth, g, n_runs=max(3, n // 250), max_run=10, offset_lo=8.0, offset_hi=30.0
    )
    return np.arange(n, dtype=float), dirty, truth, mask, mode


# ---------------------------------------------------------------------------
# Classification/clustering datasets (UCR/UEA-like, Figure 16)


def _wave(
    g: np.random.Generator, length: int, cls: int, d: int
) -> np.ndarray:
    """One series of class ``cls``: class-specific bump/harmonic mixture.

    Class differences are deliberately subtle (small center/width shifts,
    shared harmonic base) so that the Figure 16 protocol — 10% injected
    errors in the training split — measurably degrades classification and
    clustering, as it does on the real UCR/UEA archives.
    """
    t = np.linspace(0, 1, length)
    out = np.empty((length, d))
    for ell in range(d):
        # Class information lives in a narrow bump (center/width shift);
        # the harmonic base is shared by all classes.  The margin is a
        # handful of points wide, so replacement errors landing on or
        # near the bump destroy the discriminative signal.
        center = 0.35 + 0.05 * cls + 0.02 * ell
        width = 0.04 + 0.01 * cls
        bump = 0.18 * np.exp(-0.5 * ((t - center) / width) ** 2)
        harm = 0.3 * np.sin(2 * np.pi * 2 * t + ell)
        out[:, ell] = bump + harm + g.normal(0, 0.04, length)
    return out


def _class_dataset(
    n_series: int, length: int, d: int, n_classes: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    g = _rng(seed)
    y = np.arange(n_series) % n_classes
    g.shuffle(y)
    X = np.stack([_wave(g, length, int(c), d) for c in y])
    return X, y


def arrowhead(*, seed: int = 6) -> tuple[np.ndarray, np.ndarray]:
    """ArrowHead-like: 211 series x 251 points, 1-D, 3 classes."""
    return _class_dataset(211, 251, 1, 3, seed)


def atrialfib(*, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    """AtrialFibrillation-like: 30 series x 640 points, 2-D, 3 classes."""
    return _class_dataset(30, 640, 2, 3, seed)


def dsr(*, seed: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """DiatomSizeReduction-like: 16 series x 345 points, 1-D, 4 classes."""
    return _class_dataset(16, 345, 1, 4, seed)


def swj(*, seed: int = 9) -> tuple[np.ndarray, np.ndarray]:
    """StandWalkJump-like: 27 series x 2500 points, 4-D, 3 classes."""
    return _class_dataset(27, 2500, 4, 3, seed)


# ---------------------------------------------------------------------------
# Registry

CLASSIFICATION = {
    "arrowhead": arrowhead,
    "atrialfib": atrialfib,
    "dsr": dsr,
    "swj": swj,
}
