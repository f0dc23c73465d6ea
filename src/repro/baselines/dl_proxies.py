"""Deep-learning baseline proxies: TranAD [35] and CAE-M [39].

Neither PyTorch nor pretrained models are available offline, so each is
replaced with the closest classical model exercising the same code path
(documented in DESIGN.md):

- **TranAD proxy** — TranAD is a transformer *prediction*-based anomaly
  detector whose predicted values the MTCSC paper uses as repairs.  The
  proxy is a windowed linear autoregressive predictor fitted by least
  squares on the (dirty) input — the paper's setting provides no clean
  training data — and its one-step predictions are the repairs for
  every point.

- **CAE-M proxy** — CAE-M is an autoencoder *reconstruction*-based
  detector.  The proxy fits a PCA autoencoder on sliding windows of the
  dirty series and uses the reconstructions as repairs.

Both proxies share the documented behaviour of the originals in this
benchmark: trained on dirty data without labels they over-repair and
achieve poor RMSE on error (not anomaly) cleaning, particularly on GPS
trajectories.
"""
from __future__ import annotations

import numpy as np

from repro.core.speed import as_cleaner

#: TranAD proxy: the number of lags of the autoregressive predictor.
ORDER = 8
#: CAE-M proxy: points per sliding window, and the principal components
#: kept by the PCA autoencoder.
WINDOW = 16
N_COMPONENTS = 3


def _lagged_matrix(x: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix of ``order`` lags (all dimensions) and the targets."""
    n, D = x.shape
    rows = n - order
    A = np.empty((rows, order * D + 1))
    A[:, 0] = 1.0
    for k in range(order):
        A[:, 1 + k * D : 1 + (k + 1) * D] = x[k : k + rows]
    y = x[order:]
    return A, y


@as_cleaner
def tranad_proxy(t: np.ndarray, X: np.ndarray) -> np.ndarray:
    """AR(:data:`ORDER`) least-squares predictor; predictions are the repairs.

    The first ``ORDER`` points (no history) are kept as observed.
    Returns ``(X_repaired, changed_mask)`` (see :func:`as_cleaner`).
    """
    if len(X) <= ORDER + 1:
        return X.copy()
    A, y = _lagged_matrix(X, ORDER)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    Xr = X.copy()
    Xr[ORDER:] = A @ coef
    return Xr


@as_cleaner
def caem_proxy(t: np.ndarray, X: np.ndarray) -> np.ndarray:
    """PCA autoencoder over sliding windows; reconstructions are repairs.

    Windows of :data:`WINDOW` points (flattened over dimensions) are
    projected onto the top :data:`N_COMPONENTS` principal components and
    reconstructed; overlapping reconstructions are averaged per point.
    Returns ``(X_repaired, changed_mask)`` (see :func:`as_cleaner`).
    """
    n, D = X.shape
    if n < WINDOW + 1:
        return X.copy()
    # Build the window matrix (stride 1).
    W = np.empty((n - WINDOW + 1, WINDOW * D))
    for i in range(n - WINDOW + 1):
        W[i] = X[i : i + WINDOW].ravel()
    mu = W.mean(axis=0)
    Wc = W - mu
    # PCA via SVD on the (possibly large) window matrix.
    _, _, Vt = np.linalg.svd(Wc, full_matrices=False)
    V = Vt[: min(N_COMPONENTS, Vt.shape[0])]
    recon = (Wc @ V.T) @ V + mu
    # Average the overlapping reconstructions per original point.
    acc = np.zeros((n, D))
    cnt = np.zeros(n)
    for i in range(n - WINDOW + 1):
        acc[i : i + WINDOW] += recon[i].reshape(WINDOW, D)
        cnt[i : i + WINDOW] += 1
    return acc / cnt[:, None]
