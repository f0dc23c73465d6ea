"""The buffered online contract shared by MTCSC-L, MTCSC-C and MTCSC-A.

Points arrive in strictly increasing time order.  A key point ``x_k`` is
decided once its lookahead window ``(t_k, t_k + w]`` has fully arrived
(or at :meth:`OnlineCleaner.flush`), from the previous repaired point and
the buffered successors only: constant space beyond the window
(Section 1.3).  The first point of a stream is trusted (the algorithms
start at k=2).  A cleaner implements one hook, :meth:`OnlineCleaner.decide`;
:func:`run` is the batch form of every online cleaner, and the Structured
Streaming job drives the very same objects, so batch and streaming agree.
"""
from __future__ import annotations

import numpy as np

from .speed import SpeedConstraint

#: Slots a window buffer starts with; a full buffer doubles when at least
#: half its slots are live, and is compacted in place otherwise.
MIN_SLOTS = 64


class OnlineCleaner:
    """Window buffer, previous repair and emission for one stream.

    Feed points with :meth:`push`; repairs are emitted once their
    lookahead window has fully arrived, or at :meth:`flush`, and are
    collected with :meth:`drain`.

    The window lives in two numpy arrays, ``_t`` and ``_X``, whose live
    slots are ``[_h, _n)``: emitting a point advances the head ``_h``, and
    a push into a full buffer moves the live slots to the front (or into
    a buffer twice the size).  So a slot is overwritten once its point has
    left the window, and a view into the buffer must not outlive it: a
    repair that is such a view (a kept point) is copied when it is
    emitted.  A cleaner that keeps state per buffered point implements
    :meth:`admit`.
    """

    def __init__(self, s: SpeedConstraint):
        self.s = s
        self._t = np.empty(0)
        self._X = np.empty((0, 0))
        self._h = self._n = 0  # live buffer slots are [_h, _n)
        self._prev_t: float | None = None  # timestamp of last emitted repair
        self._prev_x: np.ndarray | None = None  # value of last emitted repair
        self._out: list[tuple[float, np.ndarray]] = []

    def decide(self, ts: np.ndarray, xs: np.ndarray, hi: int) -> np.ndarray:
        """Return the repair of the key point ``(ts[0], xs[0])``.

        ``ts``/``xs`` are views of the buffered points, key point first;
        ``ts[1:hi]``/``xs[1:hi]`` are its successors inside the lookahead
        window.  Called for every point but the first, so the previous
        repair (``self._prev_t``, ``self._prev_x``) is always set.  A kept
        point is returned as ``xs[0]`` itself; whether a point changed is
        decided once, by :func:`repro.core.speed.moved`.
        """
        raise NotImplementedError

    def admit(self) -> None:
        """Hook run when a point joins the buffer, before any emission.

        The new point is the last of :meth:`buffered`.
        """

    def buffered(self) -> tuple[np.ndarray, np.ndarray]:
        """Views ``(ts, xs)`` of the buffered points, oldest first."""
        return self._t[self._h:self._n], self._X[self._h:self._n]

    def _emit_first_buffered(self, hi: int) -> None:
        ts, xs = self.buffered()
        xr = xs[0] if self._prev_x is None else self.decide(ts, xs, hi)
        if xr.base is self._X:  # a kept point: its slot will be reused
            xr = xr.copy()
        tk = float(ts[0])
        self._h += 1
        self._out.append((tk, xr))
        self._prev_t, self._prev_x = tk, xr

    def _make_room(self, dim: int) -> None:
        live = self._n - self._h
        if 2 * live >= len(self._t):
            cap = max(MIN_SLOTS, 2 * len(self._t))
            t, X = np.empty(cap), np.empty((cap, dim))
        else:
            t, X = self._t, self._X
        if live:
            t[:live] = self._t[self._h:self._n]
            X[:live] = self._X[self._h:self._n]
        self._t, self._X, self._h, self._n = t, X, 0, live

    def push(self, t: float, x: np.ndarray) -> None:
        t, n = float(t), self._n
        if n > self._h and t <= self._t[n - 1]:
            raise ValueError("timestamps must be strictly increasing")
        if n == len(self._t):
            self._make_room(np.size(x))
            n = self._n
        self._t[n] = t
        self._X[n] = x
        self._n = n + 1
        self.admit()
        # Emit every buffered key point whose lookahead window is complete.
        # Every other buffered point lies inside that window: it arrived
        # when an older (or the same) key was the head.
        while t > self._t[self._h] + self.s.window:
            self._emit_first_buffered(self._n - self._h - 1)

    def flush(self) -> None:
        """End of stream: decide all remaining buffered points."""
        while self._n > self._h:
            self._emit_first_buffered(self._n - self._h)

    def drain(self) -> list[tuple[float, np.ndarray]]:
        """Return and clear the ``(t, x_repaired)`` pairs emitted so far."""
        out, self._out = self._out, []
        return out


def run(cleaner: OnlineCleaner, t: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Clean a whole non-empty series with a fresh ``cleaner``; return the repair.

    The body of the batch online cleaners, under
    :func:`repro.core.speed.as_cleaner`.
    """
    for i in range(len(t)):
        cleaner.push(t[i], X[i])
    cleaner.flush()
    return np.vstack([x for _, x in cleaner.drain()])
