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

from bisect import bisect_right

import numpy as np

from .speed import SpeedConstraint


class OnlineCleaner:
    """Window buffer, previous repair and emission for one stream.

    Feed points with :meth:`push`; repairs are emitted once their
    lookahead window has fully arrived, or at :meth:`flush`, and are
    collected with :meth:`drain`.
    """

    def __init__(self, s: SpeedConstraint):
        self.s = s
        self._tbuf: list[float] = []
        self._xbuf: list[np.ndarray] = []
        self._prev_t: float | None = None  # timestamp of last emitted repair
        self._prev_x: np.ndarray | None = None  # value of last emitted repair
        self._out: list[tuple[float, np.ndarray]] = []

    def decide(self, ts: list[float], xs: list[np.ndarray], hi: int) -> np.ndarray:
        """Return the repair of the key point ``(ts[0], xs[0])``.

        ``ts[1:hi]``/``xs[1:hi]`` are its successors inside the lookahead
        window.  Called for every point but the first, so the previous
        repair (``self._prev_t``, ``self._prev_x``) is always set.  A kept
        point is returned as ``xs[0]`` itself; whether a point changed is
        decided once, by :func:`repro.core.speed.moved`.
        """
        raise NotImplementedError

    def _emit_first_buffered(self) -> None:
        ts, xs = self._tbuf, self._xbuf
        if self._prev_x is None:
            xr = xs[0]
        else:
            xr = self.decide(ts, xs, bisect_right(ts, ts[0] + self.s.window))
        tk = ts.pop(0)
        xs.pop(0)
        self._out.append((tk, xr))
        self._prev_t, self._prev_x = tk, xr

    def push(self, t: float, x: np.ndarray) -> None:
        if self._tbuf and t <= self._tbuf[-1]:
            raise ValueError("timestamps must be strictly increasing")
        self._tbuf.append(float(t))
        self._xbuf.append(np.asarray(x, float))
        # Emit every buffered key point whose lookahead window is complete.
        while self._tbuf and t > self._tbuf[0] + self.s.window:
            self._emit_first_buffered()

    def flush(self) -> None:
        """End of stream: decide all remaining buffered points."""
        while self._tbuf:
            self._emit_first_buffered()

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
