"""Kernel machinery: RBF evaluation, kernel ridge regression, and the
one-class SMO solver checked against an independent dense-grid dual
oracle on tiny problems."""

import itertools
import math

import numpy as np
import pytest

from ethsentinel import kernels
from ethsentinel.errors import DataError
from ethsentinel.kernels import (
    by_row_blocks,
    gram,
    kernel_matrix,
    kernel_ridge_fit,
    kernel_ridge_predict,
    one_class_decision,
    one_class_fit,
    resolve_gamma,
    sq_dists,
)
from oracles import naive_gram, naive_kernel_matrix, naive_sq_dists, traced_peak


def dual_objective(G, a):
    return 0.5 * float(a @ G @ a)


def test_kernel_matrix_matches_closed_form():
    x = np.array([[1.0, 2.0]])
    y = np.array([[-1.0, 0.5]])
    expected = math.exp(-0.3 * ((1 + 1) ** 2 + 1.5**2))
    assert kernel_matrix(x, y, 0.3)[0, 0] == pytest.approx(expected, rel=1e-15)
    assert kernel_matrix(x, x, 0.3)[0, 0] == 1.0


@pytest.mark.parametrize(
    "n, sizes",
    [
        (0, [0]),
        (1, [1]),
        (512, [512]),
        (513, [513]),
        (1024, [512, 512]),
        (1025, [512, 513]),
        (1026, [512, 512, 2]),
    ],
)
def test_row_blocks_cover_each_row_once(n, sizes):
    # 512-row blocks; a lone last row joins the block before it
    A = np.arange(2.0 * n).reshape(n, 2)
    seen = []

    def first_column(block, lo):
        seen.append((lo, len(block)))
        return block[:, 0]

    assert np.array_equal(by_row_blocks(first_column, A), A[:, 0])
    assert seen == list(zip(np.cumsum([0, *sizes[:-1]]).tolist(), sizes))


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


def test_squared_distances_take_precomputed_reference_norms():
    rng = np.random.default_rng(6)
    B = rng.standard_normal((300, 5))
    B_sq = np.sum(B * B, axis=1)
    for rows in (1, 7, 300):
        A = rng.standard_normal((rows, 5))
        assert np.array_equal(sq_dists(A, B, B_sq), sq_dists(A, B))
    assert np.array_equal(kernel_matrix(A, B, 0.3, B_sq), kernel_matrix(A, B, 0.3))


def rows_with_duplicates(n, d, seed):
    X = np.random.default_rng(seed).standard_normal((n, d))
    X[1::3] = X[0]
    return X


REFERENCE_ROWS = 2048
STEP_ROWS = kernels._STEP_ENTRIES // REFERENCE_ROWS


@pytest.mark.parametrize(
    # one step against the 2048 reference rows covers STEP_ROWS rows,
    # and one step of an n-square matrix covers STEP_ENTRIES // n rows:
    # all of 1024, and 1023 of 1025
    "n",
    [1, 7, STEP_ROWS, STEP_ROWS + 1, 1024, 1025],
)
def test_in_place_distances_and_kernels_equal_the_whole_matrix_forms(n):
    X = rows_with_duplicates(n, 5, 0)
    B = rows_with_duplicates(REFERENCE_ROWS, 5, 1)
    assert np.array_equal(sq_dists(X, B), naive_sq_dists(X, B))
    assert np.array_equal(sq_dists(B[:1], X), naive_sq_dists(B[:1], X))
    assert np.array_equal(sq_dists(X, X), naive_sq_dists(X, X))  # A is B
    assert np.array_equal(kernel_matrix(X, B, 0.3), naive_kernel_matrix(X, B, 0.3))
    assert np.array_equal(gram(X, 0.3), naive_gram(X, 0.3))


def test_distances_and_gram_hold_one_square_buffer():
    n = 2048
    X = rows_with_duplicates(n, 15, 2)
    bound = 1.5 * n * n * 8
    assert traced_peak(lambda: sq_dists(X, X)) < bound
    assert traced_peak(lambda: gram(X, 0.1)) < bound


def test_gram_symmetry_and_unit_diagonal():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 3))
    G = gram(X, resolve_gamma(X))
    assert np.allclose(G, G.T)
    assert np.allclose(np.diag(G), 1.0)
    assert np.all(G > 0)


def test_resolve_gamma_libsvm_default():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((50, 4)) * 2.0
    gamma = resolve_gamma(X)
    mean_var = float(np.mean(np.var(X, axis=0)))
    assert gamma == pytest.approx(1.0 / (4 * mean_var), rel=1e-12)
    assert resolve_gamma(X, 2.5) == 2.5


def test_gamma_must_be_positive():
    X = np.random.default_rng(1).standard_normal((20, 2))
    for bad in (0.0, -1.0):
        with pytest.raises(DataError):
            resolve_gamma(X, bad)
    with pytest.raises(DataError):
        one_class_fit(X, 0.1, gamma=-1.0)


def test_kernel_ridge_matches_linear_solve_oracle():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((30, 2))
    y = rng.standard_normal(30)
    lam = 0.1
    model = kernel_ridge_fit(X, y, lam, gamma=0.5)
    # oracle: alpha = (G + lam I)^-1 y via numpy
    G = gram(X, 0.5)
    alpha = np.linalg.solve(G + lam * np.eye(30), y)
    preds = np.array([kernel_ridge_predict(model, x[None, :])[0] for x in X])
    assert np.allclose(preds, G @ alpha, atol=1e-8)


def test_kernel_ridge_interpolates_at_tiny_lambda():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((15, 2))
    y = rng.standard_normal(15)
    model = kernel_ridge_fit(X, y, 1e-10, gamma=1.0)
    preds = kernel_ridge_predict(model, X)
    assert np.allclose(preds, y, atol=1e-5)


def test_smo_matches_dense_grid_oracle_n3():
    # n=3, nu=1/2 -> C=2/3; exhaustive grid over the constrained simplex
    rng = np.random.default_rng(4)
    X = rng.standard_normal((3, 2))
    model = one_class_fit(X, nu=0.5)
    G = gram(X, model.gamma)
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
        model = one_class_fit(X, nu=max(nu, 1.0 / 40))
        C = 1.0 / (max(nu, 1.0 / 40) * 40)
        assert abs(model.alphas.sum() - 1.0) < 1e-12
        assert np.all(model.alphas >= -1e-15)
        assert np.all(model.alphas <= C + 1e-15)
        assert model.converged


def test_nu_property_quick():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((100, 2))
    nu = 0.1
    model = one_class_fit(X, nu)
    decisions = one_class_decision(model, X)
    outlier_fraction = float(np.mean(decisions < 0.0))
    assert outlier_fraction <= nu + 2.0 / 100


def test_decision_single_vs_batch():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((30, 2))
    model = one_class_fit(X, 0.1)
    batch = one_class_decision(model, X[:5])
    singles = [one_class_decision(model, x[None, :])[0] for x in X[:5]]
    assert np.allclose(batch, singles)


def test_one_class_rejects_bad_nu():
    X = np.zeros((10, 2))
    with pytest.raises(DataError):
        one_class_fit(X, 0.01)  # below 1/n
    with pytest.raises(DataError):
        one_class_fit(X, 1.5)
