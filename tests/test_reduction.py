"""Reduction bank: Jacobi eigensolver against a characteristic-
polynomial root oracle, PCA reconstruction, isolation forest score
calibration, and autoencoder gradients against central differences."""

import math

import numpy as np
import pytest

from ethsentinel.errors import DataError
from ethsentinel.reduction import (
    ae_gradients,
    ae_loss,
    ae_score,
    ae_train,
    average_path_length,
    iforest_fit,
    iforest_score,
    jacobi_eigh,
    pca_fit,
    pca_score,
    score_threshold,
)

from oracles import naive_iforest_score


def charpoly_eigenvalues(A):
    """Oracle: roots of det(A - lambda I) via the coefficient route."""
    coeffs = np.poly(A)  # characteristic polynomial coefficients
    roots = np.roots(coeffs)
    return np.sort(roots.real)[::-1]


def test_jacobi_matches_charpoly_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        M = rng.standard_normal((3, 3))
        A = M @ M.T  # symmetric PSD
        eigvals, eigvecs = jacobi_eigh(A)
        assert np.allclose(np.sort(eigvals)[::-1], charpoly_eigenvalues(A), atol=1e-8)
        # eigen equation and orthonormality
        assert np.allclose(A @ eigvecs, eigvecs * eigvals, atol=1e-8)
        assert np.allclose(eigvecs.T @ eigvecs, np.eye(3), atol=1e-10)


def test_jacobi_handles_diagonal_and_tiny_offdiagonal():
    A = np.diag([3.0, 1.0, 2.0])
    eigvals, _ = jacobi_eigh(A)
    assert np.allclose(np.sort(eigvals), [1.0, 2.0, 3.0])
    # off-diagonal far below the diagonal scale must not overflow
    B = np.array([[1e150, 1e-150], [1e-150, 2e150]])
    eigvals, _ = jacobi_eigh(B)
    assert np.allclose(np.sort(eigvals), [1e150, 2e150])


def test_pca_reconstructs_low_rank_data_exactly():
    rng = np.random.default_rng(1)
    basis = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    X = rng.standard_normal((100, 2)) @ basis.T + 3.0
    model = pca_fit(X, explained=0.99)
    assert model.components.shape[0] == 2  # rank detected
    scores = pca_score(model, X)
    assert np.all(np.asarray(scores) < 1e-9)  # on-plane points reconstruct


def test_pca_scores_off_plane_points():
    rng = np.random.default_rng(2)
    X = np.column_stack([rng.standard_normal(200), np.zeros(200)])
    model = pca_fit(X, explained=0.9)
    inlier = pca_score(model, np.array([1.0, 0.0]))
    outlier = pca_score(model, np.array([0.0, 5.0]))
    assert outlier > inlier
    assert outlier == pytest.approx(5.0, abs=1e-6)


def test_average_path_length_calibration():
    assert average_path_length(2) == 1.0  # c(2) exact per the calibration
    assert average_path_length(1) == 0.0
    # oracle: c(n) = 2 H(n-1) - 2(n-1)/n with the harmonic number summed directly
    n = 50
    harmonic = sum(1.0 / i for i in range(1, n))
    assert average_path_length(n) == pytest.approx(2.0 * harmonic - 2.0 * (n - 1) / n, rel=1e-12)


def test_iforest_scores_in_unit_interval_and_flags_outlier():
    rng = np.random.default_rng(3)
    X = np.vstack([rng.standard_normal((200, 2)), [[12.0, -12.0]]])
    forest = iforest_fit(X, tree_count=50, subsample_size=64, seed=0)
    scores = iforest_score(forest, X)
    assert np.all(scores > 0.0) and np.all(scores < 1.0)
    assert int(np.argmax(scores)) == 200
    assert scores[200] > 0.6  # conventional anomaly cutoff


def test_iforest_batch_equals_scalar():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((50, 3))
    forest = iforest_fit(X, tree_count=20, subsample_size=32, seed=1)
    batch = iforest_score(forest, X)
    singles = np.array([iforest_score(forest, x) for x in X])
    assert np.allclose(batch, singles, atol=1e-12)


def test_iforest_deterministic():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((80, 2))
    s1 = iforest_score(iforest_fit(X, 30, 32, seed=7), X)
    s2 = iforest_score(iforest_fit(X, 30, 32, seed=7), X)
    assert np.array_equal(s1, s2)


@pytest.mark.parametrize(
    "rows, trees, subsample",
    [(1, 100, 256), (5, 100, 256), (5756, 100, 256), (5, 1, 256), (5, 100, 2)],
)
def test_iforest_matches_linked_tree_oracle(rows, trees, subsample):
    rng = np.random.default_rng(9)
    X = rng.standard_normal((600, 5))
    forest = iforest_fit(X, trees, subsample, seed=3)
    Y = np.vstack([X, 4.0 * rng.standard_normal((5756, 5))])[:rows]
    assert np.array_equal(iforest_score(forest, Y), naive_iforest_score(X, trees, subsample, 3, Y))


def test_iforest_single_row_and_leaf_root_match_oracle():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((100, 3))
    forest = iforest_fit(X, 20, 32, seed=4)
    score = iforest_score(forest, X[7])
    assert isinstance(score, float)
    assert score == naive_iforest_score(X, 20, 32, 4, X[7])
    # every subsample is all-identical rows: each root is a leaf
    same = np.ones((40, 3))
    forest = iforest_fit(same, 10, 16, seed=5)
    assert np.array_equal(forest.roots, 2 * np.arange(10))
    rows = np.vstack([same[:3], X[:3]])
    assert np.array_equal(iforest_score(forest, rows), naive_iforest_score(same, 10, 16, 5, rows))


def test_ae_gradients_match_central_differences():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((12, 4))
    W1 = rng.standard_normal((2, 4)) * 0.5  # hidden x window
    b1 = rng.standard_normal(2) * 0.1
    W2 = rng.standard_normal((4, 2)) * 0.5  # window x hidden
    b2 = rng.standard_normal(4) * 0.1
    grads = ae_gradients(W1, b1, W2, b2, X)
    params = [W1, b1, W2, b2]
    eps = 1e-6
    worst = 0.0
    for p_idx, P in enumerate(params):
        flat = P.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = ae_loss(W1, b1, W2, b2, X)
            flat[i] = orig - eps
            down = ae_loss(W1, b1, W2, b2, X)
            flat[i] = orig
            numeric = (up - down) / (2 * eps)
            analytic = grads[p_idx].ravel()[i]
            scale = max(abs(numeric), abs(analytic), 1e-8)
            worst = max(worst, abs(numeric - analytic) / scale)
    assert worst < 1e-4


def test_ae_training_loss_monotone():
    rng = np.random.default_rng(7)
    windows = rng.standard_normal((40, 8))
    model = ae_train(windows, hidden=3, epochs=100, learning_rate=0.01, seed=0)
    losses = np.asarray(model.loss_history)
    assert len(losses) >= 100
    assert np.all(np.diff(losses) <= 1e-12)


def test_ae_score_is_reconstruction_error():
    rng = np.random.default_rng(8)
    windows = rng.standard_normal((40, 6))
    model = ae_train(windows, hidden=2, epochs=50, learning_rate=0.01, seed=0)
    typical = float(np.mean(ae_score(model, windows)))
    weird = float(ae_score(model, 10.0 * np.ones(6)))
    assert weird > typical


def test_score_threshold_mean_plus_k_std():
    scores = np.array([1.0, 2.0, 3.0, 4.0])
    expected = scores.mean() + 3.0 * scores.std()
    assert score_threshold(scores, 3.0) == pytest.approx(expected)
