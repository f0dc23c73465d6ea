"""Competing baselines from Table 3 of the paper.

Each cleaner has the uniform signature ``fn(t, X, ...) ->
(X_repaired, changed_mask)`` so the experiment harnesses can sweep over
methods generically: its body computes only the repair, and
:func:`repro.core.speed.as_cleaner` validates the input, handles the
empty series and derives the mask.  Each method's tuning constants are
module constants at the values the experiments use.  See DESIGN.md
Section 2.1 for which baselines are faithful reimplementations and which
are documented proxies.
"""
from .dl_proxies import caem_proxy, tranad_proxy
from .ewma import ewma
from .holoclean_lite import holoclean_lite
from .htd import htd
from .lsgreedy import lsgreedy
from .rcsws import rcsws
from .screen import screen
from .speed_acc import speed_acc

__all__ = [
    "caem_proxy",
    "ewma",
    "holoclean_lite",
    "htd",
    "lsgreedy",
    "rcsws",
    "screen",
    "speed_acc",
    "tranad_proxy",
]
