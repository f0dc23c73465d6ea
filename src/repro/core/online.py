"""The online contract shared by MTCSC-L, MTCSC-C and MTCSC-A.

Points arrive in strictly increasing time order, in blocks of any size.
A key point ``x_k`` is decided once its lookahead window ``(t_k, t_k + w]``
has fully arrived (or at :meth:`OnlineCleaner.flush`), from the previous
repaired point and the buffered successors only (Section 1.3).  The first
point of a stream is trusted (the algorithms start at k=2).  A cleaner
implements one hook, :meth:`OnlineCleaner.emit`, which decides all the
key points a feed completes at once; :func:`run` feeds a whole series as
one block, and the Structured Streaming job feeds each micro-batch as
one, to the very same objects, so batch and streaming agree.
"""
from __future__ import annotations

import numpy as np

from .speed import SpeedConstraint, as_series


class OnlineCleaner:
    """Window, previous repair and emission for one stream.

    Feed blocks of points with :meth:`feed`; it returns the points whose
    lookahead window the block completed as arrays ``(t, Xr)``, and
    :meth:`flush` returns the rest.  Each feed builds one read-only array
    of the window followed by the block; the window kept for the next
    feed, ``emit``'s inputs and a kept previous repair are views of it,
    and the repairs are written into a new array per call, so an emitted
    repair never changes.  Between feeds the cleaner holds the window and
    the previous repair: views that keep the arrays of at most two feeds
    alive, each the window plus one block, so its space is constant in
    the stream length.
    """

    def __init__(self, s: SpeedConstraint):
        self.s = s
        self._t = np.empty(0)  # the window: points not yet emitted
        self._X = np.empty((0, 0))
        self._prev_t: float | None = None  # timestamp of last emitted repair
        self._prev_x: np.ndarray | None = None  # value of last emitted repair

    def emit(self, ts: np.ndarray, xs: np.ndarray, m: int) -> np.ndarray:
        """Return the repairs of the first ``m`` points of the read-only
        window ``(ts, xs)``, in a new ``(m, D)`` array, and leave the
        previous repair at the last one's.

        Key point ``h`` is decided from the previous repair
        (``self._prev_t``, ``self._prev_x``; ``None`` before the stream's
        first point, which is kept as it is) and its successors, the
        window points after it up to ``ts[h] + w``, which are all the
        window points after it at :meth:`flush`.  A kept point's repair is
        its raw value; whether a point changed is decided once, by
        :func:`repro.core.speed.moved`.
        """
        raise NotImplementedError

    def feed(self, t, X) -> tuple[np.ndarray, np.ndarray]:
        """Add a block of points; return the points ``(t, Xr)`` it completes.

        The block passes :func:`~repro.core.speed.as_series`, must start
        after the last point fed and must have as many dimensions as the
        points fed before it, also across :meth:`flush`; a rejected block
        leaves no trace.
        """
        t, X = as_series(t, X)
        last = self._t[-1] if len(self._t) else self._prev_t
        if last is not None and X.shape[1] != self._X.shape[1]:
            raise ValueError(
                f"X has {X.shape[1]} dimensions but the stream has {self._X.shape[1]}"
            )
        if last is not None and len(t) and t[0] <= last:
            raise ValueError("timestamps must be strictly increasing")
        ts = np.concatenate((self._t, t))
        xs = np.concatenate((self._X, X)) if len(self._t) else X.copy()
        ts.setflags(write=False)
        xs.setflags(write=False)
        # The key points whose window the last point completes.
        m = int(np.searchsorted(ts + self.s.window, ts[-1])) if len(ts) else 0
        out = ts[:m], self.emit(ts, xs, m)
        self._t, self._X = ts[m:], xs[m:]
        return out

    def flush(self) -> tuple[np.ndarray, np.ndarray]:
        """End of stream: decide and return every point left in the window."""
        ts, xs, n = self._t, self._X, len(self._t)
        out = ts, self.emit(ts, xs, n)
        self._t, self._X = ts[n:], xs[n:]
        return out


def run(cleaner: OnlineCleaner, t: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Clean a whole non-empty series with a fresh ``cleaner``; return the repair.

    The body of the batch online cleaners, under
    :func:`repro.core.speed.as_cleaner`.
    """
    return np.concatenate((cleaner.feed(t, X)[1], cleaner.flush()[1]))
