"""Reduction bank: Jacobi eigensolver against a characteristic-
polynomial root oracle, PCA reconstruction, isolation forest score
calibration, and autoencoder gradients against central differences."""

import dataclasses
import math

import numpy as np
import pytest

from ethsentinel import kernels
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

from oracles import (
    naive_ae_gradients,
    naive_ae_loss,
    naive_ae_train,
    naive_iforest_score,
    traced_peak,
)


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
    inlier = pca_score(model, np.array([[1.0, 0.0]]))[0]
    outlier = pca_score(model, np.array([[0.0, 5.0]]))[0]
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
    singles = np.array([iforest_score(forest, x[None, :])[0] for x in X])
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
    score = iforest_score(forest, X[7:8])[0]
    assert score == naive_iforest_score(X, 20, 32, 4, X[7])
    # every subsample is all-identical rows: each root is a leaf
    same = np.ones((40, 3))
    forest = iforest_fit(same, 10, 16, seed=5)
    assert np.array_equal(forest.roots, 2 * np.arange(10))
    rows = np.vstack([same[:3], X[:3]])
    assert np.array_equal(iforest_score(forest, rows), naive_iforest_score(same, 10, 16, 5, rows))


def mostly_zero_rows(n, d, seed):
    """Rows of a sparse account's windows: mostly zero, and most repeat."""
    rng = np.random.default_rng(seed)
    return np.where(rng.random((n, d)) < 0.05, rng.integers(1, 4, (n, d)), 0).astype(float)


def test_iforest_scores_each_distinct_row_as_if_alone():
    X = mostly_zero_rows(400, 8, 11)
    assert len(np.unique(X, axis=0)) < len(X) / 2
    forest = iforest_fit(X, 30, 64, seed=2)
    scores = iforest_score(forest, X)
    assert np.array_equal(scores, [iforest_score(forest, x[None, :])[0] for x in X])
    assert np.array_equal(scores, naive_iforest_score(X, 30, 64, 2, X))
    perm = np.random.default_rng(12).permutation(len(X))
    assert np.array_equal(iforest_score(forest, X[perm]), scores[perm])
    assert np.array_equal(iforest_score(forest, np.repeat(X, 3, axis=0)), np.repeat(scores, 3))


class TakeSizes(np.ndarray):
    """A node array that records how many entries each ``take`` reads."""

    def take(self, indices, *args, **kwargs):
        self.sizes.append(np.size(indices))
        return np.asarray(self).take(indices, *args, **kwargs)


def test_iforest_walks_each_distinct_row_once_per_tree():
    X = np.repeat(mostly_zero_rows(400, 8, 13), 3, axis=0)
    forest = iforest_fit(X, 25, 64, seed=3)
    feature = forest.feature.view(TakeSizes)
    feature.sizes = []
    iforest_score(dataclasses.replace(forest, feature=feature), X)
    m = len(np.unique(X, axis=0))
    assert m < len(X) / 6
    assert feature.sizes == [forest.tree_count * m] * forest.depth_limit


BLOCK_ROWS = kernels._BLOCK_ROWS  # distinct rows in one block of a 100-tree walk


@pytest.mark.parametrize(
    "distinct, walks",
    [
        (BLOCK_ROWS - 1, [BLOCK_ROWS - 1]),
        (BLOCK_ROWS, [BLOCK_ROWS]),
        (BLOCK_ROWS + 1, [BLOCK_ROWS + 1]),  # a lone last row joins the block
        (BLOCK_ROWS + 2, [BLOCK_ROWS, 2]),
    ],
)
def test_iforest_walks_blocks_of_distinct_rows_as_one(distinct, walks):
    rng = np.random.default_rng(14)
    X = rng.standard_normal((distinct, 3))
    # copies of the distinct rows on both sides of the first block's
    # end, in the lexicographic order that the walk takes
    ordered = X[np.lexsort(X.T[::-1])]
    Y = np.vstack([X, np.repeat(ordered[BLOCK_ROWS - 2 : BLOCK_ROWS + 2], 3, axis=0)])
    Y = Y[rng.permutation(len(Y))]
    forest = iforest_fit(X, 100, 32, seed=6)
    feature = forest.feature.view(TakeSizes)
    feature.sizes = []
    scores = iforest_score(dataclasses.replace(forest, feature=feature), Y)
    levels = forest.depth_limit
    assert feature.sizes == [100 * rows for rows in walks for _ in range(levels)]
    assert np.array_equal(scores, naive_iforest_score(X, 100, 32, 6, Y))


def test_iforest_score_holds_one_block_per_level():
    # 100 trees over 5757 distinct rows: (tree, row) arrays of every row
    # took 19 MB; a block of 128 rows is 0.1 MB an array
    rng = np.random.default_rng(0)
    X = rng.standard_normal((5757, 5))
    forest = iforest_fit(X, 100, 256, seed=0)
    assert traced_peak(lambda: iforest_score(forest, X)) < 2 * 2**20


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


@pytest.mark.parametrize(
    "rows, width, hidden, epochs", [(10, 4, 2, 1), (40, 8, 3, 100), (300, 32, 8, 200)]
)
def test_ae_train_matches_two_pass_oracle(rows, width, hidden, epochs):
    # one forward pass per epoch gives the same floats as a gradient
    # pass plus a separate loss pass after each update
    X = np.random.default_rng(rows).standard_normal((rows, width))
    model = ae_train(X, hidden, epochs, 0.01, seed=5)
    weights, history, errors = naive_ae_train(X, hidden, epochs, 0.01, seed=5)
    for got, want in zip((model.W1, model.b1, model.W2, model.b2), weights):
        assert np.array_equal(got, want)
    assert np.array_equal(model.loss_history, history)
    assert model.training_error_mean == float(errors.mean())
    assert model.training_error_std == float(errors.std())


def _ae_inputs(name):
    rng = np.random.default_rng(11)
    if name == "criterion-10":
        X = rng.standard_normal((16, 4))
        hidden = 2
    elif name == "dense":
        X = rng.standard_normal((200, 32))
        hidden = 8
    else:  # mostly zero, most windows repeated
        X = np.zeros((300, 32))
        X[rng.random(X.shape) < 0.02] = 1.0
        X = np.vstack([X, X[:150], np.zeros((100, 32))])
        hidden = 8
    w = X.shape[1]
    weights = (
        rng.standard_normal((hidden, w)) * 0.5,
        rng.standard_normal(hidden) * 0.1,
        rng.standard_normal((w, hidden)) * 0.5,
        rng.standard_normal(w) * 0.1,
    )
    return X, weights


@pytest.mark.parametrize("name", ["dense", "sparse-repeated", "criterion-10"])
def test_ae_gradients_and_loss_match_the_full_output_oracle(name):
    # the bottleneck form over distinct windows against the n x w
    # forward and backward pass
    X, weights = _ae_inputs(name)
    if name == "sparse-repeated":
        assert len(np.unique(X, axis=0)) < len(X) / 2
    for got, want in zip(ae_gradients(*weights, X), naive_ae_gradients(*weights, X)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    want = naive_ae_loss(*weights, X)
    assert abs(ae_loss(*weights, X) - want) <= 1e-12 * want


@pytest.mark.parametrize("repeated", [False, True])
def test_ae_train_depends_on_the_distinct_windows_and_their_share(repeated):
    # training sees each distinct window once, weighted by its count:
    # a row order or a uniform repetition of the rows changes no bit
    rng = np.random.default_rng(12)
    if repeated:
        X = np.zeros((120, 8))
        X[rng.random(X.shape) < 0.05] = 1.0
        assert len(np.unique(X, axis=0)) < len(X) / 2
    else:
        X = rng.standard_normal((120, 8))
    model = ae_train(X, 3, 50, 0.01, seed=2)
    shuffled = ae_train(X[rng.permutation(len(X))], 3, 50, 0.01, seed=2)
    doubled = ae_train(np.repeat(X, 2, axis=0), 3, 50, 0.01, seed=2)
    for other in (shuffled, doubled):
        for name in ("W1", "b1", "W2", "b2", "loss_history"):
            assert np.array_equal(getattr(other, name), getattr(model, name)), name
        # the per-window errors are equal too; only their summation order moves
        assert other.training_error_mean == pytest.approx(model.training_error_mean, rel=1e-12)
        assert other.training_error_std == pytest.approx(model.training_error_std, rel=1e-12)


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
    weird = float(ae_score(model, 10.0 * np.ones((1, 6)))[0])
    assert weird > typical


def test_score_threshold_mean_plus_k_std():
    scores = np.array([1.0, 2.0, 3.0, 4.0])
    expected = scores.mean() + 3.0 * scores.std()
    assert score_threshold(scores, 3.0) == pytest.approx(expected)
