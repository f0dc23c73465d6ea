"""Every cleaner takes its input through one contract (``as_series``)."""
import numpy as np
import pytest

from repro.core import SpeedConstraint, estimate_speed, exact_min_fix, fix_list
from repro.core.speed import as_series
from repro.methods import METHODS, Context

S = SpeedConstraint(1.0, 3.0)

KERNELS = {
    **{name: (lambda t, X, fn=fn: fn(t, X, Context(s=S))) for name, fn in METHODS.items()},
    "fix_list": lambda t, X: fix_list(t, X, S),
    "exact_min_fix": lambda t, X: exact_min_fix(t, X, S),
    "estimate_speed": lambda t, X: estimate_speed(t, X),
}


def _bad_inputs():
    # Two dimensions, so that RCSWS runs; 12 points, so that the
    # exhaustive search accepts the size.
    t = np.arange(12, dtype=float)
    X = np.cumsum(np.full((12, 2), 0.1), axis=0)
    dup, dec, inf = t.copy(), t.copy(), t.copy()
    dup[5] = dup[4]
    dec[5] = 3.5
    inf[-1] = np.inf
    nan = X.copy()
    nan[3, 1] = np.nan
    return {
        "duplicate-t": (dup, X, "strictly increasing"),
        "decreasing-t": (dec, X, "strictly increasing"),
        "nan-in-X": (t, nan, "finite"),
        "inf-in-t": (inf, X, "finite"),
        "row-mismatch": (t, X[:-1], "t has 12 rows but X has 11"),
    }


BAD = _bad_inputs()


@pytest.mark.parametrize("case", sorted(BAD))
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_bad_input_raises(name, case):
    t, X, msg = BAD[case]
    with pytest.raises(ValueError, match=msg):
        KERNELS[name](t, X)


def test_as_series_shapes():
    t, X = as_series([0, 1, 2], [[1], [2], [3]])
    assert t.dtype == X.dtype == float and X.shape == (3, 1)
    with pytest.raises(ValueError, match="1-D"):
        as_series(np.zeros((3, 1)), np.zeros((3, 1)))
