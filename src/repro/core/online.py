"""The online contract shared by MTCSC-L, MTCSC-C and MTCSC-A.

Points arrive in strictly increasing time order, in blocks of any size.
A key point ``x_k`` is decided once its lookahead window ``(t_k, t_k + w]``
has fully arrived (or at :meth:`OnlineCleaner.flush`), from the previous
repaired point and the buffered successors only (Section 1.3).  The first
point of a stream is trusted (the algorithms start at k=2).  A cleaner
implements one hook, :meth:`OnlineCleaner.decide`; :func:`run` feeds a
whole series as one block, and the Structured Streaming job feeds each
micro-batch as one, to the very same objects, so batch and streaming agree.
"""
from __future__ import annotations

import numpy as np

from .speed import SpeedConstraint, as_series


class OnlineCleaner:
    """Window, previous repair and emission for one stream.

    Feed blocks of points with :meth:`feed`; it returns the repairs whose
    lookahead window the block completed, and :meth:`flush` returns the
    rest.  Each feed builds one read-only array of the window followed by
    the block, and the window kept for the next feed, ``decide``'s inputs
    and every kept point's repair are views of it.  Since no such array is
    ever written, a repair stays valid without a copy.  Between feeds the
    cleaner holds the window and the previous repair: views that keep the
    arrays of at most two feeds alive, each the window plus one block, so
    its space is constant in the stream length.  A cleaner that keeps state
    per window point implements :meth:`admit`.
    """

    def __init__(self, s: SpeedConstraint):
        self.s = s
        self._t = np.empty(0)  # the window: points not yet emitted
        self._X = np.empty((0, 0))
        self._prev_t: float | None = None  # timestamp of last emitted repair
        self._prev_x: np.ndarray | None = None  # value of last emitted repair

    def decide(self, ts: np.ndarray, xs: np.ndarray, hi: int) -> np.ndarray:
        """Return the repair of the key point ``(ts[0], xs[0])``.

        ``ts``/``xs`` are read-only views of the window, key point first;
        ``ts[1:hi]``/``xs[1:hi]`` are its successors inside the lookahead
        window.  Called for every point but the first, so the previous
        repair (``self._prev_t``, ``self._prev_x``) is always set.  A kept
        point is returned as ``xs[0]`` itself; whether a point changed is
        decided once, by :func:`repro.core.speed.moved`.
        """
        raise NotImplementedError

    def admit(self, ts: np.ndarray, xs: np.ndarray) -> None:
        """Hook run when a point joins the window ``(ts, xs)`` as its last
        point, before any emission."""

    def _emit(self, ts, xs, hi: int) -> tuple[float, np.ndarray]:
        xr = xs[0] if self._prev_x is None else self.decide(ts, xs, hi)
        self._prev_t, self._prev_x = float(ts[0]), xr
        return self._prev_t, xr

    def feed(self, t, X) -> list[tuple[float, np.ndarray]]:
        """Add a block of points; return the ``(t, x_repaired)`` pairs it completes.

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
        out, h, w = [], 0, self.s.window
        for n in range(len(self._t) + 1, len(ts) + 1):
            self.admit(ts[h:n], xs[h:n])
            # Emit every key point whose lookahead window is complete.
            # Every other window point lies inside it: it arrived when an
            # older (or the same) key was the first of the window.
            while ts[n - 1] > ts[h] + w:
                out.append(self._emit(ts[h:n], xs[h:n], n - h - 1))
                h += 1
        self._t, self._X = ts[h:], xs[h:]
        return out

    def flush(self) -> list[tuple[float, np.ndarray]]:
        """End of stream: decide and return every point left in the window."""
        ts, xs, n = self._t, self._X, len(self._t)
        out = [self._emit(ts[h:], xs[h:], n - h) for h in range(n)]
        self._t, self._X = ts[n:], xs[n:]
        return out


def run(cleaner: OnlineCleaner, t: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Clean a whole non-empty series with a fresh ``cleaner``; return the repair.

    The body of the batch online cleaners, under
    :func:`repro.core.speed.as_cleaner`.
    """
    return np.vstack([x for _, x in cleaner.feed(t, X) + cleaner.flush()])
