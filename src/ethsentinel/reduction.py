"""Dimensionality-reduction detector bank: PCA reconstruction error,
isolation forest, and a windowed dense autoencoder.

PCA uses a cyclic Jacobi eigendecomposition of the covariance matrix.
It stays although numpy's LAPACK is at hand: acceptance criterion 7
pins it against the test-side polynomial-root oracle, and a LAPACK
solver in its place would move the PCA scores in their last digits,
which makes the swap a change of outputs, not a refactor. The
autoencoder is a single tanh bottleneck trained by full-batch gradient
descent.
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
class IsolationForest:
    """Isolation trees stored as flat arrays, the nodes of all trees in
    one set. Node k has the two slots 2k and 2k + 1, and a node is named
    by its first slot; tree t's root is ``roots[t]``. ``feature``,
    ``threshold`` and ``path_length`` hold node k's values at both of its
    slots. A row at node s moves to ``child[s + below]``, where below is
    1 when its ``feature`` value is below ``threshold``: slot 2k + 1
    holds the left child and 2k the right one. A leaf has threshold +inf
    and points to itself from both slots, and its ``path_length`` is its
    depth plus c(size), the expected path length of the rows it did not
    separate."""

    feature: np.ndarray = field(repr=False)
    threshold: np.ndarray = field(repr=False)
    child: np.ndarray = field(repr=False)
    path_length: np.ndarray = field(repr=False)
    roots: np.ndarray = field(repr=False)
    depth_limit: int
    subsample_size: int
    tree_count: int
    seed: int


def _grow_iso(X: np.ndarray, depth: int, limit: int, rng: np.random.Generator, nodes: list) -> int:
    """Append the tree of ``X`` to ``nodes`` in preorder as (feature,
    threshold, left, right, path length) entries; returns its root."""
    n = len(X)
    index = len(nodes)
    nodes.append((0, math.inf, index, index, depth + average_path_length(n)))  # a leaf
    if n <= 1 or depth >= limit:
        return index
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    usable = np.flatnonzero(hi > lo)
    if len(usable) == 0:  # all points identical
        return index
    f = int(rng.choice(usable))
    threshold = float(rng.uniform(lo[f], hi[f]))
    mask = X[:, f] < threshold
    if not mask.any() or mask.all():
        return index
    left = _grow_iso(X[mask], depth + 1, limit, rng, nodes)
    right = _grow_iso(X[~mask], depth + 1, limit, rng, nodes)
    nodes[index] = (f, threshold, left, right, 0.0)
    return index


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
    nodes: list = []
    roots = []
    for ss in seeds:
        rng = np.random.default_rng(ss)
        idx = rng.choice(n, size=subsample_size, replace=False)
        roots.append(_grow_iso(X[idx], 0, limit, rng, nodes))
    feature, threshold, left, right, path_length = (np.array(a) for a in zip(*nodes))
    return IsolationForest(
        feature=np.repeat(feature.astype(np.intp), 2),
        threshold=np.repeat(threshold, 2),
        child=2 * np.column_stack((right, left)).astype(np.intp).ravel(),
        path_length=np.repeat(path_length, 2),
        roots=2 * np.array(roots, dtype=np.intp),
        depth_limit=limit,
        subsample_size=subsample_size,
        tree_count=tree_count,
        seed=seed,
    )


def iforest_score(forest: IsolationForest, x: np.ndarray) -> np.ndarray | float:
    """Anomaly score 2^(-E[h(x)] / c(subsample)); higher is more anomalous."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    rows, width = X.shape
    values = X.ravel()
    # one entry per (tree, row), trees outer: every tree and row moves
    # down one level per step; no tree is deeper than the depth limit,
    # and leaves point to themselves
    row_start = np.tile(np.arange(0, rows * width, width), forest.tree_count)
    node = np.repeat(forest.roots, rows)
    for _ in range(forest.depth_limit):
        below = values.take(forest.feature.take(node) + row_start) < forest.threshold.take(node)
        node = forest.child.take(node + below)
    paths = forest.path_length.take(node).reshape(forest.tree_count, rows)
    # a running total, tree by tree in order: np.sum may add pairwise,
    # and the order sets the rounding of the mean
    mean_path = np.cumsum(paths, axis=0)[-1] / forest.tree_count
    scores = 2.0 ** (-mean_path / average_path_length(forest.subsample_size))
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


def _ae_backward(W2, X, hidden, out):
    n, w = X.shape
    delta_out = 2.0 * (out - X) / (n * w)
    gW2 = delta_out.T @ hidden
    gb2 = delta_out.sum(axis=0)
    delta_hidden = (delta_out @ W2) * (1.0 - hidden**2)
    gW1 = delta_hidden.T @ X
    gb1 = delta_hidden.sum(axis=0)
    return gW1, gb1, gW2, gb2


def ae_gradients(W1, b1, W2, b2, X):
    """Mean-squared-reconstruction-error gradients by backprop."""
    return _ae_backward(W2, X, *_ae_forward(W1, b1, W2, b2, X))


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
    # one forward pass per epoch: the pass after an update gives that
    # update's loss and the next update's gradients
    hidden, out = _ae_forward(W1, b1, W2, b2, X)
    for epoch in range(epochs):
        gW1, gb1, gW2, gb2 = _ae_backward(W2, X, hidden, out)
        W1 -= learning_rate * gW1
        b1 -= learning_rate * gb1
        W2 -= learning_rate * gW2
        b2 -= learning_rate * gb2
        hidden, out = _ae_forward(W1, b1, W2, b2, X)
        loss = float(np.mean((out - X) ** 2))
        if not math.isfinite(loss):
            raise NumericError(f"non-finite training loss at epoch {epoch}")
        history[epoch] = loss
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
