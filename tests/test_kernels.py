"""Kernel machinery: RBF evaluation, kernel ridge regression, and the
one-class SMO solver checked against an independent dense-grid dual
oracle on tiny problems."""

import itertools
import math

import numpy as np
import pytest

from ethsentinel.errors import DataError
from ethsentinel.kernels import (
    KernelSpec,
    gram,
    kernel_matrix,
    kernel_ridge_fit,
    kernel_ridge_predict,
    one_class_decision,
    one_class_fit,
    resolve_gamma,
    sq_dists,
)


def dual_objective(G, a):
    return 0.5 * float(a @ G @ a)


def test_kernel_matrix_matches_closed_form():
    spec = KernelSpec(gamma=0.3)
    x = np.array([[1.0, 2.0]])
    y = np.array([[-1.0, 0.5]])
    expected = math.exp(-0.3 * ((1 + 1) ** 2 + 1.5**2))
    assert kernel_matrix(spec, x, y)[0, 0] == pytest.approx(expected, rel=1e-15)
    assert kernel_matrix(spec, x, x)[0, 0] == 1.0


def test_squared_distances_non_negative_on_near_duplicates():
    rng = np.random.default_rng(5)
    A = 1e3 + rng.standard_normal((40, 4))
    B = A + 1e-9 * rng.standard_normal(A.shape)
    # the expanded form |a|^2 + |b|^2 - 2ab cancels to rounding noise here
    raw = np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :] - 2.0 * (A @ B.T)
    assert raw.min() < 0.0
    sq = sq_dists(A, B)
    assert sq.min() >= 0.0
    off = ~np.eye(len(A), dtype=bool)
    assert np.array_equal(sq[off], raw[off])


def test_gram_symmetry_and_unit_diagonal():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 3))
    G = gram(KernelSpec(), X)
    assert np.allclose(G, G.T)
    assert np.allclose(np.diag(G), 1.0)
    assert np.all(G > 0)


def test_resolve_gamma_libsvm_default():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((50, 4)) * 2.0
    gamma = resolve_gamma(KernelSpec(), X)
    mean_var = float(np.mean(np.var(X, axis=0)))
    assert gamma == pytest.approx(1.0 / (4 * mean_var), rel=1e-12)
    assert resolve_gamma(KernelSpec(gamma=2.5), X) == 2.5


def test_kernel_ridge_matches_linear_solve_oracle():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((30, 2))
    y = rng.standard_normal(30)
    spec = KernelSpec(gamma=0.5)
    lam = 0.1
    model = kernel_ridge_fit(X, y, spec, lam)
    # oracle: alpha = (G + lam I)^-1 y via numpy
    G = gram(spec, X)
    alpha = np.linalg.solve(G + lam * np.eye(30), y)
    preds = np.array([kernel_ridge_predict(model, x) for x in X])
    assert np.allclose(preds, G @ alpha, atol=1e-8)


def test_kernel_ridge_interpolates_at_tiny_lambda():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((15, 2))
    y = rng.standard_normal(15)
    model = kernel_ridge_fit(X, y, KernelSpec(gamma=1.0), 1e-10)
    preds = kernel_ridge_predict(model, X)
    assert np.allclose(preds, y, atol=1e-5)


def test_smo_matches_dense_grid_oracle_n3():
    # n=3, nu=1/2 -> C=2/3; exhaustive grid over the constrained simplex
    rng = np.random.default_rng(4)
    X = rng.standard_normal((3, 2))
    spec = KernelSpec()
    model = one_class_fit(X, spec, nu=0.5)
    G = gram(spec, X, gamma=model.gamma)
    C = 1.0 / (0.5 * 3)
    best = None
    steps = 2000
    for i in range(steps + 1):
        a0 = C * i / steps
        for j in range(steps + 1):
            a1 = C * j / steps
            a2 = 1.0 - a0 - a1
            if not (0.0 <= a2 <= C):
                continue
            val = dual_objective(G, np.array([a0, a1, a2]))
            if best is None or val < best:
                best = val
    assert dual_objective(G, model.alphas) <= best + 1e-6


def test_smo_dual_feasibility_exact():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((40, 3))
    for nu in (0.05, 0.2, 0.5):
        model = one_class_fit(X, KernelSpec(), nu=max(nu, 1.0 / 40))
        C = 1.0 / (max(nu, 1.0 / 40) * 40)
        assert abs(model.alphas.sum() - 1.0) < 1e-12
        assert np.all(model.alphas >= -1e-15)
        assert np.all(model.alphas <= C + 1e-15)
        assert model.converged


def test_nu_property_quick():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((100, 2))
    nu = 0.1
    model = one_class_fit(X, KernelSpec(), nu)
    decisions = one_class_decision(model, X)
    outlier_fraction = float(np.mean(decisions < 0.0))
    assert outlier_fraction <= nu + 2.0 / 100


def test_decision_single_vs_batch():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((30, 2))
    model = one_class_fit(X, KernelSpec(), 0.1)
    batch = one_class_decision(model, X[:5])
    singles = [one_class_decision(model, x) for x in X[:5]]
    assert np.allclose(batch, singles)


def test_one_class_rejects_bad_nu():
    X = np.zeros((10, 2))
    with pytest.raises(DataError):
        one_class_fit(X, KernelSpec(), 0.01)  # below 1/n
    with pytest.raises(DataError):
        one_class_fit(X, KernelSpec(), 1.5)
