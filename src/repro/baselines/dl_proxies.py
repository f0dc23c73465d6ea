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

from repro.core.speed import as_series


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


def tranad_proxy(
    t: np.ndarray, X: np.ndarray, *, order: int = 8
) -> tuple[np.ndarray, np.ndarray]:
    """AR(order) least-squares predictor; predictions are the repairs.

    The first ``order`` points (no history) are kept as observed.
    Returns ``(X_repaired, changed_mask)``.
    """
    t, X = as_series(t, X)
    n, D = X.shape
    if n <= order + 1:
        return X.copy(), np.zeros(n, dtype=bool)
    A, y = _lagged_matrix(X, order)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    Xr = X.copy()
    Xr[order:] = A @ coef
    changed = np.any(~np.isclose(Xr, X, rtol=0, atol=1e-12), axis=1)
    return Xr, changed


def caem_proxy(
    t: np.ndarray, X: np.ndarray, *, window: int = 16, n_components: int = 3
) -> tuple[np.ndarray, np.ndarray]:
    """PCA autoencoder over sliding windows; reconstructions are repairs.

    Windows of ``window`` points (flattened over dimensions) are
    projected onto the top ``n_components`` principal components and
    reconstructed; overlapping reconstructions are averaged per point.
    Returns ``(X_repaired, changed_mask)``.
    """
    t, X = as_series(t, X)
    n, D = X.shape
    if n < window + 1:
        return X.copy(), np.zeros(n, dtype=bool)
    # Build the window matrix (stride 1).
    W = np.empty((n - window + 1, window * D))
    for i in range(n - window + 1):
        W[i] = X[i : i + window].ravel()
    mu = W.mean(axis=0)
    Wc = W - mu
    # PCA via SVD on the (possibly large) window matrix.
    _, _, Vt = np.linalg.svd(Wc, full_matrices=False)
    V = Vt[: min(n_components, Vt.shape[0])]
    recon = (Wc @ V.T) @ V + mu
    # Average the overlapping reconstructions per original point.
    acc = np.zeros((n, D))
    cnt = np.zeros(n)
    for i in range(n - window + 1):
        acc[i : i + window] += recon[i].reshape(window, D)
        cnt[i : i + window] += 1
    Xr = acc / cnt[:, None]
    changed = np.any(~np.isclose(Xr, X, rtol=0, atol=1e-12), axis=1)
    return Xr, changed
