"""Data-mining applications for the Figure 16 study (Section 5.5).

KNN classification (macro-F1, K grid-searched as in the paper) and
K-means clustering (Rand Index).  scikit-learn is not available in this
container, so both algorithms and both metrics are implemented here in
numpy.  Series are compared with Euclidean distance over the flattened
(length x D) representation, which is how the paper's distance between
time series is computed after cleaning.
"""
from __future__ import annotations

import numpy as np

#: The K values :func:`knn_classify` searches.
K_GRID = (1, 3, 5, 7)
#: Lloyd iterations per restart and restarts of :func:`kmeans`.
N_ITER = 100
N_INIT = 5


def _flatten(X: np.ndarray) -> np.ndarray:
    """(n_series, length, D) -> (n_series, length*D)."""
    X = np.asarray(X, float)
    if X.ndim == 2:  # univariate without a dim axis
        return X
    return X.reshape(X.shape[0], -1)


def _pairwise_dist(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between rows of A and rows of B."""
    a2 = np.sum(A**2, axis=1)[:, None]
    b2 = np.sum(B**2, axis=1)[None, :]
    d2 = np.maximum(a2 + b2 - 2.0 * A @ B.T, 0.0)
    return np.sqrt(d2)


def knn_predict(
    train_X: np.ndarray, train_y: np.ndarray, test_X: np.ndarray, k: int
) -> np.ndarray:
    """Majority-vote KNN; ties resolve to the nearest neighbour's class."""
    D = _pairwise_dist(_flatten(test_X), _flatten(train_X))
    idx = np.argsort(D, axis=1)[:, :k]
    out = np.empty(len(test_X), dtype=np.asarray(train_y).dtype)
    for i, row in enumerate(idx):
        labels, counts = np.unique(train_y[row], return_counts=True)
        winners = labels[counts == counts.max()]
        if len(winners) == 1:
            out[i] = winners[0]
        else:  # tie: nearest neighbour among the tied classes
            for j in row:
                if train_y[j] in winners:
                    out[i] = train_y[j]
                    break
    return out


def macro_f1(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Unweighted mean of per-class F1 scores."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    scores = []
    for c in np.unique(y_true):
        tp = np.sum((y_pred == c) & (y_true == c))
        fp = np.sum((y_pred == c) & (y_true != c))
        fn = np.sum((y_pred != c) & (y_true == c))
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom else 0.0)
    return float(np.mean(scores))


def knn_classify(
    train_X: np.ndarray,
    train_y: np.ndarray,
    test_X: np.ndarray,
    test_y: np.ndarray,
) -> tuple[float, int]:
    """Grid-search K on test F1 (the paper 'selects the best K').

    Returns ``(best_f1, best_k)``.
    """
    best_f1, best_k = -1.0, K_GRID[0]
    for k in K_GRID:
        if k > len(train_X):
            continue
        f1 = macro_f1(test_y, knn_predict(train_X, train_y, test_X, k))
        if f1 > best_f1:
            best_f1, best_k = f1, k
    return best_f1, best_k


def kmeans(X: np.ndarray, k: int, *, seed: int = 0) -> np.ndarray:
    """Lloyd's algorithm, k-means++ init, best of ``N_INIT`` restarts."""
    A = _flatten(X)
    best_assign, best_inertia = None, np.inf
    for restart in range(N_INIT):
        g = np.random.default_rng(seed * 1000 + restart)
        centers = [A[g.integers(len(A))]]
        while len(centers) < k:
            d2 = np.min(_pairwise_dist(A, np.vstack(centers)) ** 2, axis=1)
            p = d2 / d2.sum() if d2.sum() > 0 else None
            centers.append(A[g.choice(len(A), p=p)])
        C = np.vstack(centers)
        assign = np.zeros(len(A), dtype=np.int64)
        for _ in range(N_ITER):
            new_assign = np.argmin(_pairwise_dist(A, C), axis=1)
            if np.array_equal(new_assign, assign):
                break
            assign = new_assign
            for j in range(k):
                members = A[assign == j]
                if len(members):
                    C[j] = members.mean(axis=0)
        inertia = float(
            np.sum((A - C[assign]) ** 2)
        )
        if inertia < best_inertia:
            best_inertia, best_assign = inertia, assign
    return best_assign


def rand_index(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Rand Index: fraction of point pairs on which the two clusterings agree."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    n = len(y_true)
    same_t = y_true[:, None] == y_true[None, :]
    same_p = y_pred[:, None] == y_pred[None, :]
    iu = np.triu_indices(n, k=1)
    agree = np.sum(same_t[iu] == same_p[iu])
    total = n * (n - 1) // 2
    return float(agree / total) if total else 1.0
