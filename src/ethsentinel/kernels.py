"""Kernel matrices, kernel ridge regression and the nu-one-class kernel
machine behind the OCSVM detector. The kernel is RBF only: no detector
uses another, so a kernel is its gamma. The kernel functions take it as
a float; the fits take an optional one, by default 1/(d * var)
(``resolve_gamma``). ``sq_dists`` is the package's one pairwise
squared-distance helper, and ``by_row_blocks`` builds a (rows x
reference) matrix a block of rows at a time, each block at most 128
rows and 2^17 entries whatever the width of the reference, so that no
distance matrix grows with the square of a series; ``nearest`` selects
the smallest entries of each row of such a block. ``DistinctRows`` is
the one form of a matrix's distinct rows, found by a lexsort: k-NN,
DBSCAN, its eps estimate and the autoencoder fit on them, and the
isolation forest scores them. Scores take an (n, d) row matrix.

Both kernel machines evaluate sum_i w_i k(r_i, x) in blocks of query
rows. Kernel ridge fits on ``kernel_matrix(X, X, gamma)``, which is
exactly symmetric as computed, and keeps every training row; the
one-class machine keeps its support, the rows whose alpha is positive.

The one-class dual (minimize 0.5*a'Ga s.t. 0 <= a_i <= 1/(nu*n),
sum a = 1) is solved by most-violating-pair coordinate descent
(``smo_solve``; Platt 1998, Chang & Lin 2011) with no Gram matrix: a
fit reads row i of G only where alpha_i starts non-zero or the solver
moves it, and each row is one single-row ``kernel_matrix`` call,
computed once per fit and kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericError

SMO_TOLERANCE = 1e-4
SMO_MAX_ITER = 100_000
_EPS = 1e-12

# the most rows and entries in one block of ``by_row_blocks``; 2^17
# entries are 1 MB of float64
_BLOCK_ROWS = 128
_BLOCK_ENTRIES = 1 << 17

# entries in one step of an in-place pass over a distance matrix
_STEP_ENTRIES = 1 << 20


def resolve_gamma(X: np.ndarray, gamma: float | None = None) -> float:
    """The gamma of the RBF kernel exp(-gamma * |x - y|^2): a given one,
    which must be positive, or by default 1/(d * var), var the mean
    per-column variance of X."""
    if gamma is not None:
        if gamma <= 0:
            raise DataError("RBF gamma must be positive")
        return gamma
    X = np.atleast_2d(X)
    var = float(np.mean(np.var(X, axis=0)))
    if var <= 0:
        var = 1.0
    return 1.0 / (X.shape[1] * var)


def sq_dists(A: np.ndarray, B: np.ndarray, B_sq: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between the rows of A and B, clamped
    at zero: the expanded form rounds below it for near-duplicate rows.

    ``B_sq`` is ``np.sum(B * B, axis=1)``, computed once by a caller
    that measures many row sets against the same fixed B. The result is
    built in the buffer of ``A @ B.T``, a step of rows at a time, so its
    temporaries stay near ``_STEP_ENTRIES`` entries.
    """
    return _distance_steps(A, B, B_sq, None)


def _distance_steps(A, B, B_sq, gamma: float | None) -> np.ndarray:
    """``sq_dists(A, B, B_sq)``, or with a gamma the RBF kernel of those
    distances: each step of rows is doubled, subtracted from the norms,
    clamped and, with a gamma, scaled and exponentiated before the next
    step, while it is still in cache."""
    if B_sq is None:
        B_sq = np.sum(B * B, axis=1)
    A_sq = np.sum(A * A, axis=1)
    sq = A @ B.T
    step = max(1, _STEP_ENTRIES // max(1, len(B)))
    for lo in range(0, len(A), step):
        rows = slice(lo, lo + step)
        block = sq[rows]
        block *= 2.0
        np.subtract(A_sq[rows, None] + B_sq, block, out=block)
        np.maximum(block, 0.0, out=block)
        if gamma is not None:
            block *= -gamma
            np.exp(block, out=block)
    return sq


def nearest(dist: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``width`` smallest entries of each row of a distance block, as
    (column indices, values), each row in ascending (value, column)
    order, so that no result depends on how the selection orders ties."""
    idx = np.argpartition(dist, width - 1, axis=1)[:, :width]
    row = np.arange(len(dist))[:, None]
    values = dist[row, idx]
    order = np.lexsort((idx, values))
    return idx[row, order], values[row, order]


@dataclass(frozen=True, eq=False)
class DistinctRows:
    """The distinct rows of an (n, d) matrix X in lexicographic order,
    column 0 first: row j of X is ``rows[inverse[j]]``, distinct row i
    stands for ``counts[i]`` rows of X, and ``sq`` holds the squared
    norms of the distinct rows, the ``B_sq`` of ``sq_dists``. A
    permutation of X's rows changes only ``inverse``.

    ``of`` gives the rows, counts and inverse of ``np.unique(X, axis=0,
    return_inverse=True, return_counts=True)`` from one stable
    ``np.lexsort`` over the columns and a comparison of neighbours in
    that order. Rows equal as numbers are one distinct row, so rows that
    differ only in the sign of a zero are one, and the first of them in
    X stands for them all, where ``np.unique``'s quicksort keeps any."""

    rows: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)  # int
    inverse: np.ndarray = field(repr=False)  # 1-D
    sq: np.ndarray = field(repr=False)

    @classmethod
    def of(cls, X: np.ndarray) -> DistinctRows:
        n = len(X)
        order = np.lexsort(X.T[::-1])  # lexsort's last key sorts first
        ordered = X[order]
        first = np.empty(n, dtype=bool)  # the first row of each run of equal rows
        first[:1] = True
        (ordered[1:] != ordered[:-1]).any(axis=1, out=first[1:])
        group = first.cumsum() - 1  # the distinct row of each row of ``ordered``
        inverse = np.empty(n, dtype=np.intp)
        inverse[order] = group
        rows = ordered[first]
        return cls(rows, np.bincount(group), inverse, (rows * rows).sum(axis=1))


def by_row_blocks(fn, A: np.ndarray, width: int) -> np.ndarray:
    """``fn(block, lo)`` on the rows [lo, lo + step) of A in turn, the
    results joined along the first axis, where ``width`` is the number
    of entries that ``fn`` builds for each row (the rows of a distance
    reference, the trees of a forest). The step is the largest power of
    two of rows, at most ``_BLOCK_ROWS`` and at least 2, whose entries
    fit in ``_BLOCK_ENTRIES``: 16 rows against a 5760-row reference, so
    no fit's blocks stay resident beneath a later fit's peak, and 128
    against one of 1024 rows or fewer: the cap keeps a narrow
    reference's blocks as they were, since longer ones scored the
    isolation forest no faster.

    A row's result does not depend on the blocks. BLAS's matrix-vector
    product (``_expansion``) takes rows in groups of a few and rounds a
    row by its place in a group; every block but the last is a power of
    two of rows, so a row has the same place under any such step. And a
    lone last row joins the block before it: numpy takes a one-row
    product through its vector routine, which rounds differently from
    the matrix product of a larger block."""
    fit = min(_BLOCK_ROWS, max(2, _BLOCK_ENTRIES // max(1, width)))
    step = 1 << (fit.bit_length() - 1)
    los = list(range(0, len(A) - 1, step)) or [0]
    parts = [fn(A[lo:hi], lo) for lo, hi in zip(los, [*los[1:], len(A)])]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def kernel_matrix(
    X: np.ndarray, Y: np.ndarray, gamma: float, Y_sq: np.ndarray | None = None
) -> np.ndarray:
    """Cross-kernel matrix K_ij = exp(-gamma * |X_i - Y_j|^2), built in
    the buffer of the distances a step of rows at a time; ``Y_sq``, the
    squared row norms of a fixed Y, is the ``B_sq`` of ``sq_dists``."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    if X.shape[1] != Y.shape[1]:
        raise DataError("kernel arguments must share a dimension")
    return _distance_steps(X, Y, Y_sq, gamma)


def _expansion(X, rows, rows_sq, weights, gamma: float) -> np.ndarray:
    """sum_i weights_i k(rows_i, x) for each row x of an (n, d) matrix,
    a block of rows at a time; ``rows_sq`` holds the squared norms of
    ``rows``."""

    def expand(block, lo):
        return kernel_matrix(block, rows, gamma, rows_sq) @ weights

    return by_row_blocks(expand, np.atleast_2d(np.asarray(X, dtype=np.float64)), len(rows))


@dataclass(frozen=True)
class KernelRidge:
    """Dual-form kernel ridge regressor."""

    X: np.ndarray = field(repr=False)
    X_sq: np.ndarray = field(repr=False)  # squared row norms of X
    dual_weights: np.ndarray = field(repr=False)
    gamma: float


def kernel_ridge_fit(
    X: np.ndarray, y: np.ndarray, lam: float, gamma: float | None = None
) -> KernelRidge:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if len(X) != len(y) or len(X) < 1:
        raise DataError("need matching, non-empty X and y")
    if lam <= 0:
        raise DataError("ridge penalty must be positive")
    gamma = resolve_gamma(X, gamma)
    G = kernel_matrix(X, X, gamma)
    try:
        weights = np.linalg.solve(G + lam * np.eye(len(X)), y)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"ridge system could not be solved: {exc}") from exc
    if not np.all(np.isfinite(weights)):
        raise NumericError("non-finite dual weights in kernel ridge fit")
    return KernelRidge(X=X, X_sq=np.sum(X * X, axis=1), dual_weights=weights, gamma=gamma)


def kernel_ridge_predict(model: KernelRidge, X: np.ndarray) -> np.ndarray:
    """Predictions for the rows of an (n, d) matrix."""
    return _expansion(X, model.X, model.X_sq, model.dual_weights, model.gamma)


@dataclass(frozen=True)
class OneClassModel:
    """Fitted nu-one-class machine over its support, the training rows
    whose alpha is positive. Decision < 0 means anomaly."""

    support_vectors: np.ndarray = field(repr=False)
    support_sq: np.ndarray = field(repr=False)  # squared row norms of the support vectors
    alphas: np.ndarray = field(repr=False)
    rho: float
    gamma: float
    converged: bool
    iterations: int


def _initial_alphas(n: int, C: float) -> np.ndarray:
    # libsvm-style feasible start: fill the box from the front.
    a = np.zeros(n)
    full = int(1.0 / C)
    a[:full] = C
    if full < n:
        a[full] = 1.0 - full * C
    return a


def _kernel_rows(X: np.ndarray, gamma: float):
    """Row i of the RBF Gram matrix of X, on demand: each row is one
    single-row ``kernel_matrix`` call, so its bits do not depend on which
    rows came before it, and it is kept for the rest of the fit."""
    X_sq = np.sum(X * X, axis=1)
    rows: dict[int, np.ndarray] = {}

    def row(i: int) -> np.ndarray:
        if i not in rows:
            rows[i] = kernel_matrix(X[i : i + 1], X, gamma, X_sq)[0]
        return rows[i]

    return row


def smo_solve(row, diag, g, a, C, tol, max_iter):
    """Minimize 0.5 a'Qa s.t. 0 <= a_i <= C, sum(a) = 1, in place on ``a``
    and on ``g``, the gradient Qa at the start. Q is symmetric: ``row(i)``
    returns its row i and ``diag`` its diagonal, and only the rows of the
    pairs the solver moves are read.

    Returns (iterations, converged).
    """
    a = np.asarray(a, dtype=np.float64)
    it = 0
    converged = False
    while it < max_iter:
        gi = np.where(a < C - _EPS, g, np.inf)
        gj = np.where(a > _EPS, g, -np.inf)
        if not np.isfinite(gi).any() or not np.isfinite(gj).any():
            converged = True  # every alpha pinned to a bound: vertex optimum
            break
        i = int(np.argmin(gi))
        j = int(np.argmax(gj))
        violation = g[j] - g[i]
        if violation < tol:
            converged = True
            break
        Q_i, Q_j = row(i), row(j)
        eta = diag[i] + diag[j] - 2.0 * Q_i[j]
        if eta < _EPS:
            eta = _EPS
        t = violation / eta
        t = min(t, C - a[i], a[j])
        a[i] += t
        a[j] -= t
        g += t * (Q_i - Q_j)
        it += 1
    return it, converged


def one_class_fit(X: np.ndarray, nu: float, gamma: float | None = None) -> OneClassModel:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n = len(X)
    if n < 2:
        raise DataError("one-class fit needs at least 2 points")
    if not (1.0 / n <= nu <= 1.0):
        raise DataError("nu must lie in [1/n, 1]")
    gamma = resolve_gamma(X, gamma)
    C = 1.0 / (nu * n)
    a = _initial_alphas(n, C)
    row = _kernel_rows(X, gamma)
    start = np.flatnonzero(a)  # the about nu*n alphas that start non-zero
    g = a[start] @ np.array([row(k) for k in start])  # the gradient Ga
    # k(x, x) = 1 exactly for the RBF kernel
    iters, converged = smo_solve(row, np.ones(n), g, a, C, SMO_TOLERANCE, SMO_MAX_ITER)
    keep = a > 0.0  # the solver zeroes an alpha exactly; a zero adds nothing
    support = X[keep]
    support_sq = np.sum(support * support, axis=1)
    # the sum that ``one_class_decision`` computes, so that the margin SV
    # that anchors rho decides exactly 0 there
    g = _expansion(X, support, support_sq, a[keep], gamma)
    margin = (a > 1e-10) & (a < C - 1e-10)
    if np.any(margin):
        # Margin SVs should sit exactly at 0; the solver leaves them
        # spread by up to its tolerance, so anchor at the minimum to
        # keep them non-negative (a mean would flag half of them).
        rho = float(np.min(g[margin]))
    else:
        sv = a > 1e-10
        rho = float(np.mean(g[sv]))
    return OneClassModel(
        support_vectors=support,
        support_sq=support_sq,
        alphas=a[keep],
        rho=rho,
        gamma=gamma,
        converged=converged,
        iterations=iters,
    )


def one_class_decision(model: OneClassModel, X: np.ndarray) -> np.ndarray:
    """Sum_i a_i k(sv_i, x) - rho for each row x of an (n, d) matrix;
    negative flags an anomaly."""
    expansion = _expansion(X, model.support_vectors, model.support_sq, model.alphas, model.gamma)
    return expansion - model.rho
