"""Algorithm 3 (BuildCluster) over a lag band, for many key points at once
or for one.

A *lag band* (:func:`lag_band`) holds the pair checks of each point of a
block against each of its predecessors inside a window: row ``p``, column
``l`` compares ``x_p`` with ``x_{p-1-l}``.  The checks compare raw
observations only, so the cleaners make each of them once per feed.
:func:`cluster_runs` runs Algorithm 3 for many keys in lockstep over the
band, :func:`cluster_scan` for one key, one successor at a time, and
:func:`largest_head` picks each key's largest cluster.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .speed import within_bound

#: Rows of a lag band computed at once, each with O(w * D) scratch space.
ROWS = 64


def norms(diffs: list[np.ndarray]) -> np.ndarray:
    """Euclidean norms of the differences ``diffs`` (one array per
    dimension), each summed as :func:`repro.core.speed.distances` sums one
    point's squares, so the norms equal its distances bit for bit.

    numpy adds fewer than 8 numbers in order, so adding the squares in
    order gives the same sums without a reduction per point.
    """
    if len(diffs) >= 8:
        sq = np.stack(diffs, axis=-1)
        return np.sqrt((sq * sq).sum(axis=-1))
    total = diffs[0] * diffs[0]
    for c in diffs[1:]:
        total += c * c
    return np.sqrt(total, out=total)


def lag_band(
    ts: np.ndarray, xs: np.ndarray, lo: int, hi: int, width: int, smax: float
) -> np.ndarray:
    """The pair checks of points ``lo .. hi-1`` with their ``width``
    predecessors under the bound ``smax``, as a ``(hi - lo, width)`` array.

    Row ``p - lo``, column ``l`` tells whether point ``p`` is within
    ``smax`` of point ``p - 1 - l`` (of point 0 where that lies before the
    first point; such entries are never read), bit for bit as the scalar
    check.  Rows go :data:`ROWS` at a time, to bound the scratch arrays.
    """
    ok = np.empty((hi - lo, width), bool)
    for r0 in range(lo, hi, ROWS):
        r1 = min(r0 + ROWS, hi)
        pad = max(width - r0, 0)

        def lagged(v):  # v[p - 1 - l] at row p - r0, column l (last axis)
            u = v[r0 + pad - width : r1 - 1]
            if pad:
                u = np.concatenate((np.repeat(v[:1], pad, axis=0), u))
            # A read-only view: entry l of row r is u[width - 1 + r - l].
            step = u.strides[0]
            return as_strided(u[width - 1 :], (r1 - r0, *u.shape[1:], width),
                              (step, *u.strides[1:], -step), writeable=False)

        xl = lagged(xs)
        d = norms([xl[:, j] - xs[r0:r1, j, None] for j in range(xs.shape[1])])
        ok[r0 - lo : r1 - lo] = within_bound(d, ts[r0:r1, None] - lagged(ts), smax)
    return ok


def lines(a: np.ndarray, starts: np.ndarray, step: int, n: int) -> np.ndarray:
    """``a.ravel()[starts[k] + step * i]`` at ``[k, i]`` for ``i < n`` (False
    past the end of ``a``), gathered from a read-only strided view of ``a``.

    On the lag band ``ok`` of width ``W``, ``step = W`` walks down a
    column and ``step = W + 1`` down a diagonal.
    """
    flat = np.concatenate((a.ravel(), np.zeros(step * n, a.dtype)))
    size = flat.itemsize
    view = as_strided(flat, (len(flat) - step * (n - 1), n), (size, step * size),
                      writeable=False)
    return view[starts]


def cluster_runs(
    P: np.ndarray, cnt: np.ndarray, ok: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Algorithm 3 (BuildCluster) for ``K`` key points in lockstep.

    Key ``k`` has ``cnt[k]`` successors, ``i = 0 .. cnt[k]-1``.
    ``P[k, i]`` tells whether successor ``i`` is compatible with the key's
    previous repair (``False`` from ``cnt[k]`` on); successor ``i``'s row of
    the lag band ``ok`` is ``rows[k] + i``, whose column ``l`` compares it
    with successor ``i - 1 - l``.

    Returns ``(k, i, head)``, ordered by key, then offset: the successors
    of key ``k`` from offset ``i`` up to the next offset returned for that
    key (or ``cnt[k]``) belong to the cluster whose first point is
    successor ``head``, or are omitted (dirty) where ``head`` is -1.  A
    key's first offset is ``ell``, its first successor compatible with the
    previous repair; none before it joins a cluster.
    """
    K, L = P.shape
    off = np.arange(L, dtype=np.int32)
    has = P.any(axis=1)
    ell = P.argmax(axis=1).astype(np.int32)
    # From ell on, a successor compatible with its predecessor stops its
    # back-scan there: it joins the predecessor's cluster (or is omitted
    # with it).  The others scan back, one per key per round, in order.
    scans = lines(ok, rows * ok.shape[1], ok.shape[1], L)  # against i - 1
    np.logical_not(scans, out=scans)
    scans &= off > ell[:, None]
    scans &= off < cnt[:, None]
    scans &= has[:, None]
    scans[has, ell[has]] = True
    kk, ii = (a.astype(np.int32) for a in np.nonzero(scans))
    rank = np.arange(len(kk)) - np.searchsorted(kk, kk)
    head = np.where(rank == 0, ii, -1)  # ell starts the first cluster
    pos = kk * L + ii
    back = np.flatnonzero(rank)
    back = back[np.argsort(rank[back], kind="stable")]
    lo = 0
    for hi in np.cumsum(np.bincount(rank[back] - 1)).tolist():
        run, lo = back[lo:hi], hi
        k, i = kk[run], ii[run]
        span = i - ell[k]  # lag l reaches back to j = i - 1 - l >= ell
        lag = np.arange(span.max(), dtype=np.int32)
        j = np.maximum(i[:, None] - 1 - lag, ell[k][:, None])
        near = ok[rows[k] + i, : len(lag)]
        # The head of j's cluster: that of the scanning point at or before j.
        hj = head[pos.searchsorted((k * L)[:, None] + j, side="right") - 1]
        # Stop at a compatible point (join its cluster) or at ell, or at a
        # member that is not a head (then Action 2: a new cluster iff
        # compatible with the previous repair, else omitted); pass omitted
        # points and unsatisfied heads (Action 3).
        stop = near | (lag == span[:, None] - 1) | ((hj >= 0) & (hj != j))
        a, l = np.arange(len(run)), stop.argmax(axis=1)
        head[run] = np.where(near[a, l], hj[a, l], np.where(P[k, i], i, -1))
    return kk, ii, head


def cluster_scan(prev_ok: list[bool], band: list[list[bool]]) -> int:
    """Algorithm 3 for one key point, one successor at a time: the offset
    of the first point of its largest cluster, or -1 when it has none.

    ``prev_ok[i]`` tells whether successor ``i`` is compatible with the
    previous repair, ``band[i][l]`` whether it is compatible with successor
    ``i - 1 - l``.  Ties break towards the earliest head.  The per-point
    rule runs this scan: on one key it costs a fraction of
    :func:`cluster_runs`, whose numpy calls cost about as much for one key
    as for a block.
    """
    if True not in prev_ok:
        return -1
    # Start from the first point compatible with the previous repair.
    ell = prev_ok.index(True)
    head: list[int | None] = [None] * len(prev_ok)  # None: omitted
    head[ell] = ell
    size = {ell: 1}
    for i in range(ell + 1, len(prev_ok)):
        row = band[i]
        j = i - 1
        while True:
            if row[i - 1 - j]:
                # Join j's cluster; a point compatible with an omitted
                # point is itself omitted.
                if head[j] is not None:
                    head[i] = head[j]
                    size[head[j]] += 1
                break
            if j == ell or head[j] not in (None, j):
                # Action 2: start a new cluster iff compatible with the
                # previous repair; otherwise omit (Action 4).
                if prev_ok[i]:
                    head[i] = i
                    size[i] = 1
                break
            # Action 3 (j is an unsatisfied head or omitted): keep
            # scanning towards older points.
            j -= 1
    return max(size, key=size.get)  # the first of the largest, in creation order


def largest_head(runs: tuple[np.ndarray, ...], cnt: np.ndarray) -> np.ndarray:
    """Per key, the offset of the first point of its largest cluster, from
    the ``runs`` of :func:`cluster_runs` of keys with ``cnt`` successors,
    or -1 when it has none.

    Ties break towards the earliest-created (smallest) head.
    """
    kk, ii, head = runs
    last = np.append(kk[1:] != kk[:-1], True)  # the last run of its key
    size = np.where(last, cnt[kk], np.append(ii[1:], 0)) - ii
    live = head >= 0
    sizes = np.zeros((len(cnt), int(cnt.max(initial=0)) + 1), np.int32)
    np.add.at(sizes, (kk[live], head[live]), size[live])
    return np.where(sizes.any(axis=1), sizes.argmax(axis=1), -1)
