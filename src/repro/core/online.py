"""The online contract shared by MTCSC-L, MTCSC-C and MTCSC-A.

Points arrive in strictly increasing time order, in blocks of any size.
A key point ``x_k`` is decided once its lookahead window ``(t_k, t_k + w]``
has fully arrived (or at :meth:`OnlineCleaner.flush`), from the previous
repaired point and the buffered successors only (Section 1.3).  The first
point of a stream is trusted (the algorithms start at k=2).

One loop, :meth:`OnlineCleaner.emit`, decides all the key points a feed
completes, for every cleaner.  While key ``k - 1`` was kept, key ``k``'s
previous repair is its raw predecessor ``x_{k-1}``, so a check against
the previous repair reads raw data only: a cleaner decides the keys of a
run under that speculation at once in its one hook,
:meth:`OnlineCleaner.speculate`, and the loop skips the keys kept so.
From the first key not kept the cleaner's per-point rule runs until a key
is kept again.  :func:`run` feeds a whole series as one block, and the
Structured Streaming job feeds each micro-batch as one, to the very same
objects, so batch and streaming agree.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from .speed import SpeedConstraint, as_series

#: Keys decided per run: a run's scratch arrays take O(BLOCK * w) space,
#: whatever the feed length.
BLOCK = 512


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

    def moves(self, ts: np.ndarray, xs: np.ndarray, m: int) -> dict[int, float]:
        """The keys among the first ``m`` at which the constraint moves,
        each with its new ``smax``: none, unless the cleaner adapts it."""
        return {}

    def speculate(self, ts, xs, ends, a, lo, hi):
        """Decide keys ``lo .. hi-1`` of the read-only window ``(ts, xs)``
        under the speculation that each key's previous repair is its raw
        predecessor; return ``(kept, decide)``.

        ``kept[j]`` tells whether key ``lo + j`` is kept when key
        ``lo + j - 1`` was.  ``decide(k, raw)`` is the cleaner's rule for
        key ``k``, given whether key ``k - 1`` was kept (``raw``) and
        against the previous repair (``self._prev_t``, ``self._prev_x``):
        ``None`` when the key is kept, else its repair.  Key ``k``'s
        successors are the window points after it before ``ends[k]``.
        Keys from ``a`` up to ``hi`` share the current constraint.
        """
        raise NotImplementedError

    def emit(self, ts: np.ndarray, xs: np.ndarray, m: int) -> np.ndarray:
        """Return the repairs of the first ``m`` points of the read-only
        window ``(ts, xs)``, in a new ``(m, D)`` array, and leave the
        previous repair at the last one's.

        Key point ``h`` is decided from the previous repair (the stream's
        first point is kept as it is) and its successors, the window
        points after it up to ``ts[h] + w``, which are all the window
        points after it at :meth:`flush`.  Keys go in runs of at most
        :data:`BLOCK`, each under one constraint.  A kept point's repair
        is its raw value; whether a point changed is decided once, by
        :func:`repro.core.speed.moved`.
        """
        Xr = xs[:m].copy()  # every kept point is its raw value
        if not m:
            return Xr
        w = self.s.window
        moves = self.moves(ts, xs, m)
        at = sorted(moves)
        ends = ts.searchsorted(ts[:m] + w, side="right")
        # raw: the last key decided was kept, so its raw value is the next
        # key's previous repair.  The stream's first point is kept.
        raw = self._prev_x is None
        if raw:
            self._prev_t, self._prev_x = float(ts[0]), xs[0]
        k = int(raw)  # the next key to decide
        for k0 in range(0, m, BLOCK):
            k1 = min(k0 + BLOCK, m)
            # A run ends at the block's end and where the constraint moves.
            cuts = [k0, *at[bisect_right(at, k0) : bisect_left(at, k1)], k1]
            for a, b in zip(cuts, cuts[1:]):
                if a in moves:
                    self.s = SpeedConstraint(moves[a], w)
                k = max(k, a)
                first = k + (not raw)  # key k's previous repair is not raw
                kept, decide = self.speculate(ts, xs, ends, a, first, b)
                fails = (first + np.flatnonzero(~kept)).tolist()
                while k < b:
                    if raw:  # keys up to the next failure are kept
                        i = bisect_left(fails, k)
                        k = fails[i] if i < len(fails) else b
                        self._prev_t, self._prev_x = float(ts[k - 1]), xs[k - 1]
                        if k == b:
                            break
                    xr = decide(k, raw)
                    raw = xr is None
                    if not raw:
                        Xr[k] = xr
                    self._prev_t, self._prev_x = float(ts[k]), xs[k] if raw else xr
                    k += 1
        return Xr

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
