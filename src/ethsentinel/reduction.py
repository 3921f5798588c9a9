"""Dimensionality-reduction detector bank: PCA reconstruction error,
isolation forest, and a windowed dense autoencoder.

PCA uses a cyclic Jacobi eigendecomposition of the covariance matrix
(no LAPACK dependency, and it doubles as a cross-check against the
test-side polynomial-root oracle). The autoencoder is a single tanh
bottleneck trained by full-batch gradient descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DataError, NumericError


def jacobi_eigh(A: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors) sorted descending; eigenvectors
    are the columns. Iterates until the off-diagonal Frobenius norm
    drops below ``tol`` times the matrix norm.
    """
    A = np.array(A, dtype=np.float64)
    n = A.shape[0]
    if A.shape != (n, n):
        raise DataError("jacobi_eigh expects a square matrix")
    V = np.eye(n)
    scale = max(float(np.linalg.norm(A)), 1e-300)
    for _ in range(max_sweeps):
        off = math.sqrt(max(0.0, float(np.sum(A * A) - np.sum(np.diag(A) ** 2))))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if A[p, q] == 0.0:
                    continue
                # classic 2x2 rotation annihilating A[p, q]
                diff = A[q, q] - A[p, p]
                if abs(diff) > 1e150 * abs(A[p, q]):
                    # rotation angle below machine precision
                    A[p, q] = A[q, p] = 0.0
                    continue
                theta = diff / (2.0 * A[p, q])
                if abs(theta) > 1e150:  # theta^2 would overflow; use the limit
                    t = 1.0 / (2.0 * theta)
                else:
                    t = math.copysign(1.0, theta) / (
                        abs(theta) + math.sqrt(theta * theta + 1.0)
                    )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * A[:, p] - s * A[:, q]
                rot_q = s * A[:, p] + c * A[:, q]
                A[:, p], A[:, q] = rot_p, rot_q
                rot_p = c * A[p, :] - s * A[q, :]
                rot_q = s * A[p, :] + c * A[q, :]
                A[p, :], A[q, :] = rot_p, rot_q
                rot_p = c * V[:, p] - s * V[:, q]
                rot_q = s * V[:, p] + c * V[:, q]
                V[:, p], V[:, q] = rot_p, rot_q
    eigenvalues = np.diag(A).copy()
    order = np.argsort(eigenvalues, kind="stable")[::-1]
    return eigenvalues[order], V[:, order]


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray
    components: np.ndarray = field(repr=False)  # orthonormal rows
    eigenvalues: np.ndarray
    explained_fraction: float


def pca_fit(X: np.ndarray, explained: float = 0.90) -> PcaModel:
    """Keep the fewest leading principal directions reaching the
    requested eigenvalue mass."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if len(X) < 2:
        raise DataError("PCA needs at least 2 rows")
    if not 0 < explained <= 1:
        raise DataError("explained fraction must be in (0, 1]")
    if not np.all(np.isfinite(X)):
        raise NumericError("non-finite input to PCA")
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / len(X)
    eigenvalues, vectors = jacobi_eigh(cov)
    eigenvalues = np.maximum(eigenvalues, 0.0)
    total = float(eigenvalues.sum())
    if total == 0.0:
        m = 1
    else:
        mass = np.cumsum(eigenvalues) / total
        m = int(np.searchsorted(mass, explained - 1e-12) + 1)
        m = min(m, len(eigenvalues))
    return PcaModel(
        mean=mean,
        components=vectors[:, :m].T.copy(),
        eigenvalues=eigenvalues,
        explained_fraction=explained,
    )


def pca_score(model: PcaModel, x: np.ndarray) -> np.ndarray | float:
    """Distance from a point to its projection onto the kept subspace."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    centered = np.atleast_2d(x) - model.mean
    proj = centered @ model.components.T
    recon = proj @ model.components
    err = np.sqrt(np.sum((centered - recon) ** 2, axis=1))
    return float(err[0]) if single else err


@lru_cache(maxsize=None)
def average_path_length(n: int) -> float:
    """c(n) = 2 H(n-1) - 2(n-1)/n; expected isolation path length."""
    if n <= 1:
        return 0.0
    harmonic = float(np.sum(1.0 / np.arange(1, n)))
    return 2.0 * harmonic - 2.0 * (n - 1) / n


@dataclass(frozen=True)
class _IsoNode:
    feature: int = -1  # -1 marks a leaf
    threshold: float = 0.0
    size: int = 0
    left: "_IsoNode | None" = None
    right: "_IsoNode | None" = None


@dataclass(frozen=True)
class IsolationForest:
    trees: list = field(repr=False)
    subsample_size: int
    tree_count: int
    seed: int


def _grow_iso(X: np.ndarray, depth: int, limit: int, rng: np.random.Generator) -> _IsoNode:
    n = len(X)
    if n <= 1 or depth >= limit:
        return _IsoNode(size=n)
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    usable = np.flatnonzero(hi > lo)
    if len(usable) == 0:  # all points identical
        return _IsoNode(size=n)
    f = int(rng.choice(usable))
    threshold = float(rng.uniform(lo[f], hi[f]))
    mask = X[:, f] < threshold
    if not mask.any() or mask.all():
        return _IsoNode(size=n)
    return _IsoNode(
        feature=f,
        threshold=threshold,
        size=n,
        left=_grow_iso(X[mask], depth + 1, limit, rng),
        right=_grow_iso(X[~mask], depth + 1, limit, rng),
    )


def iforest_fit(
    X: np.ndarray, tree_count: int = 100, subsample_size: int = 256, seed: int = 0
) -> IsolationForest:
    """Build seeded random isolation trees on subsamples of the data."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n = len(X)
    subsample_size = min(subsample_size, n)
    if subsample_size < 2:
        raise DataError("need at least 2 rows per subsample")
    if tree_count < 1:
        raise DataError("need at least one tree")
    limit = int(math.ceil(math.log2(subsample_size)))
    # independent per-tree streams derived from the master seed
    seeds = np.random.SeedSequence(seed).spawn(tree_count)
    trees = []
    for ss in seeds:
        rng = np.random.default_rng(ss)
        idx = rng.choice(n, size=subsample_size, replace=False)
        trees.append(_grow_iso(X[idx], 0, limit, rng))
    return IsolationForest(
        trees=trees, subsample_size=subsample_size, tree_count=tree_count, seed=seed
    )


def _path_lengths_batch(root: _IsoNode, X: np.ndarray) -> np.ndarray:
    """Per-row path length for one tree, computed by index partitioning."""
    out = np.empty(len(X))
    stack = [(root, np.arange(len(X)), 0)]
    while stack:
        node, idx, depth = stack.pop()
        if len(idx) == 0:
            continue
        if node.feature < 0:
            out[idx] = depth + average_path_length(node.size)
            continue
        left = X[idx, node.feature] < node.threshold
        stack.append((node.left, idx[left], depth + 1))
        stack.append((node.right, idx[~left], depth + 1))
    return out


def iforest_score(forest: IsolationForest, x: np.ndarray) -> np.ndarray | float:
    """Anomaly score 2^(-E[h(x)] / c(subsample)); higher is more anomalous."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    c = average_path_length(forest.subsample_size)
    mean_path = np.zeros(len(X))
    for tree in forest.trees:
        mean_path += _path_lengths_batch(tree, X)
    mean_path /= forest.tree_count
    scores = 2.0 ** (-mean_path / c)
    return float(scores[0]) if single else scores


@dataclass(frozen=True)
class AutoencoderModel:
    """One tanh bottleneck: input w -> hidden h -> output w."""

    W1: np.ndarray = field(repr=False)
    b1: np.ndarray = field(repr=False)
    W2: np.ndarray = field(repr=False)
    b2: np.ndarray = field(repr=False)
    training_error_mean: float
    training_error_std: float
    loss_history: np.ndarray = field(repr=False, compare=False, default=None)


def _ae_forward(W1, b1, W2, b2, X):
    hidden = np.tanh(X @ W1.T + b1)
    return hidden, hidden @ W2.T + b2


def ae_gradients(W1, b1, W2, b2, X):
    """Mean-squared-reconstruction-error gradients by backprop."""
    n, w = X.shape
    hidden, out = _ae_forward(W1, b1, W2, b2, X)
    delta_out = 2.0 * (out - X) / (n * w)
    gW2 = delta_out.T @ hidden
    gb2 = delta_out.sum(axis=0)
    delta_hidden = (delta_out @ W2) * (1.0 - hidden**2)
    gW1 = delta_hidden.T @ X
    gb1 = delta_hidden.sum(axis=0)
    return gW1, gb1, gW2, gb2


def ae_loss(W1, b1, W2, b2, X):
    _, out = _ae_forward(W1, b1, W2, b2, X)
    return float(np.mean((out - X) ** 2))


def ae_train(
    windows: np.ndarray,
    hidden: int,
    epochs: int = 200,
    learning_rate: float = 0.01,
    seed: int = 0,
) -> AutoencoderModel:
    X = np.atleast_2d(np.asarray(windows, dtype=np.float64))
    n, w = X.shape
    if hidden >= w:
        raise DataError("hidden size must be smaller than the window (bottleneck)")
    if n < 10:
        raise DataError("need at least 10 training windows")
    rng = np.random.default_rng(seed)
    r = math.sqrt(6.0 / (w + hidden))
    W1 = rng.uniform(-r, r, size=(hidden, w))
    b1 = np.zeros(hidden)
    W2 = rng.uniform(-r, r, size=(w, hidden))
    b2 = np.zeros(w)
    history = np.empty(epochs)
    for epoch in range(epochs):
        gW1, gb1, gW2, gb2 = ae_gradients(W1, b1, W2, b2, X)
        W1 -= learning_rate * gW1
        b1 -= learning_rate * gb1
        W2 -= learning_rate * gW2
        b2 -= learning_rate * gb2
        loss = ae_loss(W1, b1, W2, b2, X)
        if not math.isfinite(loss):
            raise NumericError(f"non-finite training loss at epoch {epoch}")
        history[epoch] = loss
    _, out = _ae_forward(W1, b1, W2, b2, X)
    errors = np.mean((out - X) ** 2, axis=1)
    return AutoencoderModel(
        W1=W1,
        b1=b1,
        W2=W2,
        b2=b2,
        training_error_mean=float(errors.mean()),
        training_error_std=float(errors.std()),
        loss_history=history,
    )


def ae_score(model: AutoencoderModel, window: np.ndarray) -> np.ndarray | float:
    """Mean squared reconstruction error of a window."""
    x = np.asarray(window, dtype=np.float64)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    _, out = _ae_forward(model.W1, model.b1, model.W2, model.b2, X)
    err = np.mean((out - X) ** 2, axis=1)
    return float(err[0]) if single else err


def score_threshold(train_scores: np.ndarray, multiplier: float = 3.0) -> float:
    """mean + multiplier * std of training scores (population std).

    The isolation forest does not use this; its scores are already
    normalized, so it takes a fixed cutoff (``iforest_cutoff``).
    """
    scores = np.asarray(train_scores, dtype=np.float64)
    if len(scores) == 0:
        raise DataError("need at least one training score")
    return float(scores.mean() + multiplier * scores.std())
