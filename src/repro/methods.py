"""Uniform method registry used by every experiment harness.

Each entry maps a paper method name to a callable
``fn(t, X, ctx) -> (X_repaired, changed_mask)`` where ``ctx`` carries the
speed constraint and, optionally, the ground truth for HTD's labels.
Methods that cannot run on a dataset (RCSWS on D != 2) raise
``SkipMethod`` and harnesses report them as not-applicable, matching the
paper's per-dataset method lists.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

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
from repro.core import mtcsc_a, mtcsc_c, mtcsc_g, mtcsc_l, mtcsc_uni
from repro.core.speed import SpeedConstraint


class SkipMethod(Exception):
    """Raised when a method is not applicable to the dataset."""


@dataclass
class Context:
    """Per-experiment knobs passed to every method."""

    s: SpeedConstraint
    truth: np.ndarray | None = None  # labels for HTD's extra supervision


MethodFn = Callable[[np.ndarray, np.ndarray, Context], tuple[np.ndarray, np.ndarray]]


def _need_2d(t, X, ctx):
    if np.atleast_2d(X).shape[1] != 2:
        raise SkipMethod("RCSWS is defined on 2-D GPS data only")
    return rcsws(t, X)


METHODS: dict[str, MethodFn] = {
    "MTCSC-G": lambda t, X, ctx: mtcsc_g(t, X, ctx.s),
    "MTCSC-L": lambda t, X, ctx: mtcsc_l(t, X, ctx.s),
    "MTCSC-C": lambda t, X, ctx: mtcsc_c(t, X, ctx.s),
    "MTCSC-A": lambda t, X, ctx: mtcsc_a(t, X, ctx.s),
    "MTCSC-Uni": lambda t, X, ctx: mtcsc_uni(t, X, ctx.s),
    "SCREEN": lambda t, X, ctx: screen(t, X, ctx.s),
    "SpeedAcc": lambda t, X, ctx: speed_acc(t, X, ctx.s),
    "LsGreedy": lambda t, X, ctx: lsgreedy(t, X),
    "EWMA": lambda t, X, ctx: ewma(t, X),
    "RCSWS": _need_2d,
    "HTD": lambda t, X, ctx: htd(t, X, truth=ctx.truth),
    "HoloClean": lambda t, X, ctx: holoclean_lite(t, X, ctx.s),
    "TranAD": lambda t, X, ctx: tranad_proxy(t, X),
    "CAE-M": lambda t, X, ctx: caem_proxy(t, X),
}

#: Order used in Table 4 of the paper.
TABLE4_ORDER = [
    "MTCSC-G",
    "MTCSC-L",
    "MTCSC-C",
    "MTCSC-Uni",
    "RCSWS",
    "SCREEN",
    "SpeedAcc",
    "LsGreedy",
    "EWMA",
    "HTD",
    "HoloClean",
    "CAE-M",
    "TranAD",
]
