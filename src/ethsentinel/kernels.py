"""Kernel functions, Gram matrices, kernel ridge regression and the
nu-one-class kernel machine behind the OCSVM detector. ``sq_dists`` is
the package's one pairwise squared-distance helper, and
``by_row_blocks`` builds a (rows x reference) matrix a block of rows at
a time, so that no distance matrix grows with the square of a series.

The one-class dual (minimize 0.5*a'Ga s.t. 0 <= a_i <= 1/(nu*n),
sum a = 1) is solved by most-violating-pair coordinate descent
(``_hot.smo_solve``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericError

from ._hot import smo_solve

LINEAR = "linear"
POLYNOMIAL = "polynomial"
RBF = "rbf"

SMO_TOLERANCE = 1e-4
SMO_MAX_ITER = 100_000

_ROW_BLOCK = 512


@dataclass(frozen=True)
class KernelSpec:
    """Linear, polynomial or RBF kernel with its parameters."""

    kind: str = RBF
    degree: int = 3
    coef0: float = 0.0
    gamma: float | None = None  # None: 1/(d * mean column variance) at fit

    def __post_init__(self):
        if self.kind not in (LINEAR, POLYNOMIAL, RBF):
            raise DataError(f"unknown kernel kind {self.kind!r}")
        if self.kind == POLYNOMIAL and self.degree < 1:
            raise DataError("polynomial degree must be >= 1")
        if self.kind == RBF and self.gamma is not None and self.gamma <= 0:
            raise DataError("RBF gamma must be positive")


def resolve_gamma(spec: KernelSpec, X: np.ndarray) -> float:
    """Default gamma 1/(d * var), var the mean per-column variance."""
    if spec.gamma is not None:
        return spec.gamma
    X = np.atleast_2d(X)
    var = float(np.mean(np.var(X, axis=0)))
    if var <= 0:
        var = 1.0
    return 1.0 / (X.shape[1] * var)


def sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of A and B, clamped
    at zero: the expanded form rounds below it for near-duplicate rows."""
    sq = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * (A @ B.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return sq


def by_row_blocks(fn, A: np.ndarray) -> np.ndarray:
    """``fn(block, lo)`` on the rows [lo, lo + 512) of A in turn, the
    results joined along the first axis. A lone last row joins the block
    before it: numpy takes a one-row product through its vector routine,
    which rounds differently from the matrix product of a larger block."""
    los = list(range(0, len(A) - 1, _ROW_BLOCK)) or [0]
    parts = [fn(A[lo:hi], lo) for lo, hi in zip(los, [*los[1:], len(A)])]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def kernel_matrix(spec: KernelSpec, X: np.ndarray, Y: np.ndarray, gamma: float | None = None) -> np.ndarray:
    """Cross-kernel matrix K_ij = k(X_i, Y_j), vectorized."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    if X.shape[1] != Y.shape[1]:
        raise DataError("kernel arguments must share a dimension")
    if spec.kind == LINEAR:
        return X @ Y.T
    if spec.kind == POLYNOMIAL:
        return (X @ Y.T + spec.coef0) ** spec.degree
    if gamma is None:
        gamma = spec.gamma if spec.gamma is not None else 1.0 / X.shape[1]
    return np.exp(-gamma * sq_dists(X, Y))


def gram(spec: KernelSpec, X: np.ndarray, gamma: float | None = None) -> np.ndarray:
    """Symmetric Gram matrix; symmetry is enforced exactly."""
    G = kernel_matrix(spec, X, X, gamma=gamma)
    return (G + G.T) / 2.0


@dataclass(frozen=True)
class KernelRidge:
    """Dual-form kernel ridge regressor."""

    X: np.ndarray = field(repr=False)
    dual_weights: np.ndarray = field(repr=False)
    spec: KernelSpec
    gamma: float
    lam: float


def kernel_ridge_fit(X: np.ndarray, y: np.ndarray, spec: KernelSpec, lam: float) -> KernelRidge:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if len(X) != len(y) or len(X) < 1:
        raise DataError("need matching, non-empty X and y")
    if lam <= 0:
        raise DataError("ridge penalty must be positive")
    gamma = resolve_gamma(spec, X)
    G = gram(spec, X, gamma=gamma)
    try:
        weights = np.linalg.solve(G + lam * np.eye(len(X)), y)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"ridge system could not be solved: {exc}") from exc
    if not np.all(np.isfinite(weights)):
        raise NumericError("non-finite dual weights in kernel ridge fit")
    return KernelRidge(X=X, dual_weights=weights, spec=spec, gamma=gamma, lam=lam)


def kernel_ridge_predict(model: KernelRidge, x: np.ndarray) -> np.ndarray | float:
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    K = kernel_matrix(model.spec, np.atleast_2d(x), model.X, gamma=model.gamma)
    pred = K @ model.dual_weights
    return float(pred[0]) if single else pred


@dataclass(frozen=True)
class OneClassModel:
    """Fitted nu-one-class machine. Decision < 0 means anomaly."""

    support_vectors: np.ndarray = field(repr=False)
    alphas: np.ndarray = field(repr=False)
    rho: float
    spec: KernelSpec
    gamma: float
    nu: float
    converged: bool
    iterations: int
    objective_history: list = field(default_factory=list, repr=False, compare=False)


def _initial_alphas(n: int, C: float) -> np.ndarray:
    # libsvm-style feasible start: fill the box from the front.
    a = np.zeros(n)
    full = int(1.0 / C)
    a[:full] = C
    if full < n:
        a[full] = 1.0 - full * C
    return a


def one_class_fit(
    X: np.ndarray,
    spec: KernelSpec,
    nu: float,
    tol: float = SMO_TOLERANCE,
    max_iter: int = SMO_MAX_ITER,
    record_objective: bool = False,
) -> OneClassModel:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n = len(X)
    if n < 2:
        raise DataError("one-class fit needs at least 2 points")
    if not (1.0 / n <= nu <= 1.0):
        raise DataError("nu must lie in [1/n, 1]")
    gamma = resolve_gamma(spec, X)
    G = gram(spec, X, gamma=gamma)
    C = 1.0 / (nu * n)
    a = _initial_alphas(n, C)
    iters, converged, history = smo_solve(
        np.ascontiguousarray(G), a, C, tol, max_iter, record_objective
    )
    g = G @ a
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
        support_vectors=X,
        alphas=a,
        rho=rho,
        spec=spec,
        gamma=gamma,
        nu=nu,
        converged=converged,
        iterations=iters,
        objective_history=history,
    )


def one_class_decision(model: OneClassModel, x: np.ndarray) -> np.ndarray | float:
    """Sum_i a_i k(sv_i, x) - rho; negative flags an anomaly."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1

    def decide(block, lo):
        K = kernel_matrix(model.spec, block, model.support_vectors, gamma=model.gamma)
        return K @ model.alphas - model.rho

    dec = by_row_blocks(decide, np.atleast_2d(x))
    return float(dec[0]) if single else dec
