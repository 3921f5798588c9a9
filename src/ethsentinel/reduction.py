"""Dimensionality-reduction detector bank: PCA reconstruction error,
isolation forest, and a windowed dense autoencoder.

The isolation forest grows all its trees together, a depth level at a
time: each subsample entry keeps its row and its node, the entries
sorted by node, and one pair of ``reduceat`` calls per column finds
the columns that vary within each node, so no tree's subsample matrix
is copied out. Its nodes are numbered in level order, the roots first
(see ``IsolationForest``). Scoring walks each distinct row
(``kernels.DistinctRows``) through the trees once and gives every copy
that row's score: a row's path depends on its values only, and the
windows of a mostly-zero account repeat. It walks the distinct rows a
block at a time (``kernels.by_row_blocks``, one entry per tree and
row), so a level's node arrays hold trees x 128 entries at most, not
trees x rows: 0.1 MB each for 100 trees, where 5757 rows took 4.6 MB
apiece.

PCA uses a cyclic Jacobi eigendecomposition of the covariance matrix.
It stays although numpy's LAPACK is at hand: acceptance criterion 7
pins it against the test-side polynomial-root oracle, and a LAPACK
solver in its place would move the PCA scores in their last digits,
which makes the swap a change of outputs, not a refactor.

The autoencoder is a single tanh bottleneck trained by full-batch
gradient descent on the mean squared reconstruction error. It starts
from the principal subspace of the training windows, where the optimum
of a linear autoencoder lies (Baldi & Hornik 1989): the top
eigenvectors V of their count-weighted covariance (``np.linalg.eigh``;
``jacobi_eigh`` costs more than the whole fit here and stays pinned to
PCA) give W1 = s V', b1 = -W1 mu, W2 = V / s and b2 = mu, with s small
enough (0.1 / sqrt of the top eigenvalue) that tanh stays near-linear,
so the start reconstructs nearly as the rank-``hidden`` projection
does. Each epoch is one backtracking step that meets the Armijo
condition (Nocedal & Wright 2006, Alg. 3.1), tried first at the
learning rate and halved until it does, so the loss never rises.
Training stops at the first epoch that improves the loss by at most a
relative ``AE_TOLERANCE``, which on the engine's windows is the first
few; the epoch count is a cap. A pass works in the bottleneck space,
over the distinct training windows (``kernels.DistinctRows``), each
weighted by its count: one product of the distinct windows with
[W1; W2'] gives the pre-activation and W2'x, and the count-weighted
Gram terms H'H, H'X and the sum of H give the gradients and the loss,
with the float weights and the sums of x and of |x|^2 taken once per
fit (``_ae_sums``). The pass that tests a trial step gives the next
epoch's gradients. No pass builds the n x w output or its residual;
one forward pass over the distinct windows after the last epoch gives
the per-window training errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DataError, NumericError
from .kernels import DistinctRows, by_row_blocks

JACOBI_TOLERANCE = 1e-12
JACOBI_MAX_SWEEPS = 100

# the autoencoder's start and step rule (see ``ae_train``)
AE_START_SCALE = 0.1  # tanh input std along the top principal direction
AE_TOLERANCE = 1e-4  # stop once an epoch improves the loss by at most this share
ARMIJO_C = 1e-4  # the sufficient-decrease constant
ARMIJO_HALVINGS = 30  # trial steps an epoch tries before it keeps its weights


def jacobi_eigh(A: np.ndarray):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors) sorted descending; eigenvectors
    are the columns. Sweeps, at most ``JACOBI_MAX_SWEEPS`` of them, until
    the off-diagonal Frobenius norm drops below ``JACOBI_TOLERANCE`` times
    the matrix norm.
    """
    A = np.array(A, dtype=np.float64)
    n = A.shape[0]
    if A.shape != (n, n):
        raise DataError("jacobi_eigh expects a square matrix")
    V = np.eye(n)
    scale = max(float(np.linalg.norm(A)), 1e-300)
    for _ in range(JACOBI_MAX_SWEEPS):
        off = math.sqrt(max(0.0, float(np.sum(A * A) - np.sum(np.diag(A) ** 2))))
        if off <= JACOBI_TOLERANCE * scale:
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
    return PcaModel(mean=mean, components=vectors[:, :m].T.copy(), eigenvalues=eigenvalues)


def pca_score(model: PcaModel, X: np.ndarray) -> np.ndarray:
    """Distance from each row of an (n, d) matrix to its projection onto
    the kept subspace."""
    centered = np.asarray(X, dtype=np.float64) - model.mean
    proj = centered @ model.components.T
    recon = proj @ model.components
    return np.sqrt(np.sum((centered - recon) ** 2, axis=1))


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
    one set, numbered in level order: the roots are nodes 0 to
    ``tree_count`` - 1, tree t's root node t, and the k-th node that
    splits has the left child ``tree_count`` + 2k and the right child
    ``tree_count`` + 2k + 1, so each depth level's nodes follow the
    level above in order of their parents. Node k has the two slots
    2k and 2k + 1, and a node is named by its first slot; tree t's root
    is ``roots[t]``. ``feature``, ``threshold`` and ``path_length`` hold
    node k's values at both of its slots. A row at node s moves to
    ``child[s + below]``, where below is 1 when its ``feature`` value is
    below ``threshold``: slot 2k + 1 holds the left child and 2k the
    right one. A leaf has threshold +inf and points to itself from both
    slots, and its ``path_length`` is its depth plus c(size), the
    expected path length of the rows it did not separate."""

    feature: np.ndarray = field(repr=False)
    threshold: np.ndarray = field(repr=False)
    child: np.ndarray = field(repr=False)
    path_length: np.ndarray = field(repr=False)
    roots: np.ndarray = field(repr=False)
    depth_limit: int
    subsample_size: int
    tree_count: int


def iforest_fit(
    X: np.ndarray, tree_count: int = 100, subsample_size: int = 256, seed: int = 0
) -> IsolationForest:
    """Build seeded random isolation trees on subsamples of the data,
    all trees a depth level at a time (Liu, Ting & Zhou 2008).

    One generator draws each tree's subsample in tree order, then, level
    by level, the feature of every node that can split, uniform over the
    columns that vary within it, in one call, and their thresholds,
    uniform in [min, max) of that column, in a second. A node is a leaf
    if it lies at the depth limit, if no column varies within it or if
    its threshold leaves one side empty."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n, d = X.shape
    subsample_size = min(subsample_size, n)
    if subsample_size < 2:
        raise DataError("need at least 2 rows per subsample")
    if tree_count < 1:
        raise DataError("need at least one tree")
    limit = int(math.ceil(math.log2(subsample_size)))
    c = np.array([average_path_length(size) for size in range(subsample_size + 1)])
    rng = np.random.default_rng(seed)
    # one entry per subsample row of each tree: its row of X and its
    # node, sorted by node; an entry leaves both once its node is a leaf
    rows = np.concatenate(
        [rng.choice(n, size=subsample_size, replace=False) for _ in range(tree_count)]
    )
    node = np.repeat(np.arange(tree_count), subsample_size)
    first = 0  # the level's first node; its nodes hold runs of entries in order
    splits = 0  # the nodes split on the levels above
    levels = []
    for depth in range(limit + 1):
        starts = np.flatnonzero(np.diff(node, prepend=-1))
        sizes = np.diff(starts, append=len(node))
        local = node - first  # an entry's node among the level's
        # the columns that vary within each node; none at the depth limit
        varies = np.zeros((len(starts), d), dtype=bool)
        if depth < limit:
            for j in range(d):
                column = X[:, j].take(rows)
                varies[:, j] = np.maximum.reduceat(column, starts) > np.minimum.reduceat(
                    column, starts
                )
        drawn = varies.any(axis=1)
        varies = varies[drawn]
        # a drawn node's feature is its rank-th varying column
        rank = rng.integers(varies.sum(axis=1))
        feature = np.zeros(len(starts), dtype=np.intp)
        feature[drawn] = (np.cumsum(varies, axis=1) <= rank[:, None]).sum(axis=1)
        values = X[rows, feature[local]]
        threshold = np.full(len(starts), np.inf)
        threshold[drawn] = rng.uniform(
            np.minimum.reduceat(values, starts)[drawn], np.maximum.reduceat(values, starts)[drawn]
        )
        below = values < threshold[local]
        left = np.add.reduceat(below, starts)
        split = drawn & (left > 0) & (left < sizes)
        threshold[~split] = np.inf
        feature[~split] = 0
        levels.append((split, feature, threshold, np.where(split, 0.0, depth + c[sizes])))
        # each split node's children, left then right, in node order
        children = tree_count + 2 * (splits + np.cumsum(split) - 1)
        keep = split[local]
        node = (children[local] + ~below)[keep]
        order = np.argsort(node, kind="stable")
        node, rows = node[order], rows[keep][order]
        first += len(starts)
        splits += int(np.count_nonzero(split))
        if len(node) == 0:
            break
    split, feature, threshold, path_length = (np.concatenate(a) for a in zip(*levels))
    ids = np.arange(len(split))
    left = np.where(split, tree_count + 2 * (np.cumsum(split) - 1), ids)
    right = np.where(split, left + 1, ids)
    return IsolationForest(
        feature=np.repeat(feature, 2),
        threshold=np.repeat(threshold, 2),
        child=2 * np.column_stack((right, left)).ravel(),
        path_length=np.repeat(path_length, 2),
        roots=2 * np.arange(tree_count, dtype=np.intp),
        depth_limit=limit,
        subsample_size=subsample_size,
        tree_count=tree_count,
    )


def iforest_score(forest: IsolationForest, X: np.ndarray) -> np.ndarray:
    """Anomaly score 2^(-E[h(x)] / c(subsample)) of each row x of an
    (n, d) matrix; higher is more anomalous. A row's path depends on its
    values only, so each distinct row walks the forest once."""
    distinct = DistinctRows.of(np.asarray(X, dtype=np.float64))
    trees = forest.tree_count

    def mean_path(block, lo):
        rows, width = block.shape
        values = block.ravel()
        # one entry per (tree, row), trees outer: every tree and row moves
        # down one level per step; no tree is deeper than the depth limit,
        # and leaves point to themselves
        row_start = np.tile(np.arange(0, rows * width, width), trees)
        node = np.repeat(forest.roots, rows)
        for _ in range(forest.depth_limit):
            below = values.take(forest.feature.take(node) + row_start) < forest.threshold.take(node)
            node = forest.child.take(node + below)
        paths = forest.path_length.take(node).reshape(trees, rows)
        # a running total, tree by tree in order: np.sum may add pairwise,
        # and the order sets the rounding of the mean. The division copies
        # the last row out, so no (trees x rows) total outlives its block
        return np.cumsum(paths, axis=0)[-1] / trees

    mean = by_row_blocks(mean_path, distinct.rows, trees)
    scores = 2.0 ** (-mean / average_path_length(forest.subsample_size))
    return scores[distinct.inverse]


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


def _ae_sums(windows: DistinctRows):
    """What every ``_ae_pass`` over ``windows`` takes as fixed: the
    counts as float weights, the column sums of the input rows and the
    sum of their squares."""
    weights = windows.counts.astype(np.float64)
    return weights, weights @ windows.rows, float(windows.sq @ weights)


def _ae_pass(W1, b1, W2, b2, windows: DistinctRows, sums):
    """Mean squared reconstruction error over the distinct windows, each
    weighted by its count, and its gradients in the bottleneck space (see
    the module docstring); ``sums`` is ``_ae_sums(windows)``. The h x n_d
    quantities hold one window per column. Returns (loss, (gW1, gb1,
    gW2, gb2))."""
    X = windows.rows
    counts, x_sum, x_sq = sums
    total = len(windows.inverse)
    h, w = W1.shape
    product = np.vstack((W1, W2.T)) @ X.T
    hidden = np.tanh(product[:h] + b1[:, None])
    weighted = hidden * counts
    gram = weighted @ hidden.T
    h_sum = hidden @ counts
    scale = 2.0 / (total * w)
    W2tW2 = W2.T @ W2
    # the hidden delta: W2'(out - x) = W2'W2 H + W2'b2 - W2'x, through tanh
    delta = (W2tW2 @ hidden + (b2 @ W2)[:, None] - product[h:]) * (1.0 - hidden * hidden)
    delta *= scale * counts
    cross = np.vstack((weighted, delta)) @ X
    hx = cross[:h]
    gW1 = cross[h:]
    gb1 = delta.sum(axis=1)
    gW2 = scale * (W2 @ gram + np.outer(b2, h_sum) - hx.T)
    gb2 = scale * (W2 @ h_sum + total * b2 - x_sum)
    # the sum of |W2 H + b2 - x|^2 over the rows, expanded into the same terms
    squares = (
        np.sum(gram * W2tW2)
        + 2.0 * (h_sum @ (W2.T @ b2) - np.sum(hx * W2.T) - b2 @ x_sum)
        + total * (b2 @ b2)
        + x_sq
    )
    return float(squares) / (total * w), (gW1, gb1, gW2, gb2)


def ae_gradients(W1, b1, W2, b2, X):
    """Mean-squared-reconstruction-error gradients, in the form that
    ``ae_train`` runs."""
    windows = DistinctRows.of(np.asarray(X, dtype=np.float64))
    return _ae_pass(W1, b1, W2, b2, windows, _ae_sums(windows))[1]


def ae_loss(W1, b1, W2, b2, X):
    """Mean squared reconstruction error, in the form that ``ae_train``
    records."""
    windows = DistinctRows.of(np.asarray(X, dtype=np.float64))
    return _ae_pass(W1, b1, W2, b2, windows, _ae_sums(windows))[0]


def _ae_start(windows: DistinctRows, sums, hidden: int):
    """Weights whose reconstruction is the rank-``hidden`` principal
    projection of the windows, up to tanh's curvature: W1 = s V', b1 =
    -W1 mu, W2 = V / s and b2 = mu, where V holds the top ``hidden``
    eigenvectors of the count-weighted covariance and s puts the tanh
    input along the top direction at a standard deviation of
    ``AE_START_SCALE``."""
    weights, x_sum, _ = sums
    total = len(windows.inverse)
    mean = x_sum / total
    centred = windows.rows - mean
    eigenvalues, vectors = np.linalg.eigh((centred.T * weights) @ centred / total)
    top = vectors[:, : -hidden - 1 : -1]
    # a constant set of windows has no spread to scale by
    scale = AE_START_SCALE / math.sqrt(eigenvalues[-1]) if eigenvalues[-1] > 0.0 else 1.0
    W1 = scale * top.T
    return W1, -(W1 @ mean), top / scale, mean


def _ae_descend(params, windows: DistinctRows, sums, epochs: int, learning_rate: float):
    """Full-batch gradient descent from ``params``, one Armijo step an
    epoch: the trial step starts at ``learning_rate`` and halves until
    the loss falls by ``ARMIJO_C`` times the step times the squared
    gradient norm. The pass that tests a trial step gives the next
    epoch's gradients. Stops after ``epochs`` epochs, or after the first
    that improves the loss by at most ``AE_TOLERANCE`` of it, or that
    finds no such step in ``ARMIJO_HALVINGS`` halvings and keeps its
    weights. Returns the weights and the loss after each epoch."""
    loss, grads = _ae_pass(*params, windows, sums)
    if not math.isfinite(loss):
        raise NumericError("non-finite training loss at the start")
    history = []
    for _ in range(epochs):
        slope = sum(float(np.sum(g * g)) for g in grads)
        step = learning_rate
        new_loss = loss
        for _ in range(ARMIJO_HALVINGS):
            trial = [p - step * g for p, g in zip(params, grads)]
            trial_loss, trial_grads = _ae_pass(*trial, windows, sums)
            if trial_loss <= loss - ARMIJO_C * step * slope:
                params, grads, new_loss = trial, trial_grads, trial_loss
                break
            step /= 2.0
        history.append(new_loss)
        # the expanded loss can round below zero on a perfect fit
        if loss - new_loss <= AE_TOLERANCE * max(loss, 0.0):
            break
        loss = new_loss
    return params, np.array(history)


def ae_train(
    windows: np.ndarray, hidden: int, epochs: int = 200, learning_rate: float = 0.01
) -> AutoencoderModel:
    """Fit the autoencoder from the principal-subspace start
    (``_ae_start``) by Armijo steps (``_ae_descend``); ``epochs`` caps
    the steps and ``learning_rate`` is each one's first trial step."""
    X = np.atleast_2d(np.asarray(windows, dtype=np.float64))
    n, w = X.shape
    if hidden >= w:
        raise DataError("hidden size must be smaller than the window (bottleneck)")
    if n < 10:
        raise DataError("need at least 10 training windows")
    if not np.all(np.isfinite(X)):
        raise NumericError("non-finite input to the autoencoder")
    train = DistinctRows.of(X)
    sums = _ae_sums(train)
    start = _ae_start(train, sums, hidden)
    (W1, b1, W2, b2), history = _ae_descend(start, train, sums, epochs, learning_rate)
    _, out = _ae_forward(W1, b1, W2, b2, train.rows)
    errors = np.mean((out - train.rows) ** 2, axis=1)[train.inverse]
    return AutoencoderModel(
        W1=W1,
        b1=b1,
        W2=W2,
        b2=b2,
        training_error_mean=float(errors.mean()),
        training_error_std=float(errors.std()),
        loss_history=history,
    )


def ae_score(model: AutoencoderModel, windows: np.ndarray) -> np.ndarray:
    """Mean squared reconstruction error of each row of an (n, w)
    matrix of windows."""
    X = np.asarray(windows, dtype=np.float64)
    _, out = _ae_forward(model.W1, model.b1, model.W2, model.b2, X)
    return np.mean((out - X) ** 2, axis=1)


def score_threshold(train_scores: np.ndarray, multiplier: float = 3.0) -> float:
    """mean + multiplier * std of training scores (population std).

    The isolation forest does not use this; its scores are already
    normalized, so it takes a fixed cutoff (``iforest_cutoff``).
    """
    scores = np.asarray(train_scores, dtype=np.float64)
    if len(scores) == 0:
        raise DataError("need at least one training score")
    return float(scores.mean() + multiplier * scores.std())
