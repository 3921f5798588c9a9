"""Reduction bank: Jacobi eigensolver against a characteristic-
polynomial root oracle, PCA reconstruction, isolation forest score
calibration, and autoencoder gradients against central differences."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ethsentinel import kernels, reduction
from ethsentinel.errors import DataError, NumericError
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


def test_iforest_fit_holds_no_subsample_matrix():
    # 100 trees of 256 rows of 15 columns would be 3.1 MB; the fit keeps
    # one row index and one node per subsample entry, and per node the
    # bits of the columns that vary. The node-by-node grower traced 2.9 MB
    X = np.random.default_rng(0).standard_normal((5757, 15))
    assert traced_peak(lambda: iforest_fit(X, 100, 256, seed=0)) < 2.9e6


def test_iforest_root_feature_is_uniform_over_the_varying_columns():
    # columns 1 and 4 are constant; each root draws among the other four
    rng = np.random.default_rng(15)
    X = rng.standard_normal((64, 6))
    X[:, 1] = 2.0
    X[:, 4] = 0.0
    counts = np.zeros(6, dtype=int)
    for seed in range(200):
        forest = iforest_fit(X, 5, 32, seed=seed)
        split = np.isfinite(forest.threshold[::2])
        assert not np.isin(forest.feature[::2][split], [1, 4]).any()
        roots = forest.roots[split[forest.roots // 2]]
        counts += np.bincount(forest.feature[roots], minlength=6)
    observed = counts[[0, 2, 3, 5]]
    expected = observed.sum() / 4
    # chi-square with 3 degrees of freedom; 16.27 is its 0.999 quantile
    assert np.sum((observed - expected) ** 2 / expected) < 16.27


@pytest.mark.parametrize("subsample", [16, 64, 256])
def test_iforest_mean_path_length_on_iid_rows_is_near_c(subsample):
    # E[h(x)] = c(subsample) is the calibration behind the score 0.5 of
    # a row like the rest; random-threshold trees run a few percent
    # short of it (0.92-0.98 c on these fixtures, as the node-by-node
    # grower did)
    rng = np.random.default_rng(16)
    X = rng.uniform(size=(2000, 4))
    forest = iforest_fit(X, 100, subsample, seed=1)
    c = average_path_length(subsample)
    paths = -np.log2(iforest_score(forest, rng.uniform(size=(2000, 4)))) * c
    assert abs(paths.mean() / c - 1.0) < 0.1


def forest_nodes(forest, X, tree):
    """(slot, depth, rows of X that reach it) of each node of a tree."""
    stack = [(int(forest.roots[tree]), 0, np.arange(len(X)))]
    while stack:
        slot, depth, idx = stack.pop()
        yield slot, depth, idx
        if np.isfinite(forest.threshold[slot]):
            below = X[idx, forest.feature[slot]] < forest.threshold[slot]
            stack.append((int(forest.child[slot + 1]), depth + 1, idx[below]))
            stack.append((int(forest.child[slot]), depth + 1, idx[~below]))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 12).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=3, max_size=3),
            min_size=n,
            max_size=n,
        )
    ),
    st.integers(0, 2),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_iforest_trees_partition_their_subsample(rows, constant, trees, seed):
    # every subsample is all of X: rows repeat, column `constant` never varies
    X = np.array(rows)
    X[:, constant] = 0.5
    n = len(X)
    forest = iforest_fit(X, trees, 2 * n, seed=seed)
    assert forest.subsample_size == n
    limit = forest.depth_limit
    reached = []
    for tree in range(trees):
        leaves = []
        for slot, depth, idx in forest_nodes(forest, X, tree):
            reached.append(slot)
            assert len(idx) > 0 and depth <= limit
            if np.isfinite(forest.threshold[slot]):
                values = X[idx, forest.feature[slot]]
                assert depth < limit
                assert values.min() <= forest.threshold[slot] < values.max()
            else:
                assert forest.child[slot] == forest.child[slot + 1] == slot
                assert forest.path_length[slot] == depth + average_path_length(len(idx))
                leaves.append(idx)
        assert np.array_equal(np.sort(np.concatenate(leaves)), np.arange(n))
    # every node belongs to one tree, and the k-th node that splits has
    # the children trees + 2k (left) and trees + 2k + 1 (right)
    assert np.array_equal(np.sort(reached), np.arange(0, len(forest.feature), 2))
    split = np.isfinite(forest.threshold[::2])
    left = forest.child[1::2][split] // 2
    assert np.array_equal(left, trees + 2 * np.arange(np.count_nonzero(split)))
    assert np.array_equal(forest.child[::2][split] // 2, left + 1)


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
    model = ae_train(X, hidden, epochs, 0.01)
    weights, history, errors = naive_ae_train(X, hidden, epochs, 0.01)
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
    model = ae_train(X, 3, 50, 0.01)
    shuffled = ae_train(X[rng.permutation(len(X))], 3, 50, 0.01)
    doubled = ae_train(np.repeat(X, 2, axis=0), 3, 50, 0.01)
    for other in (shuffled, doubled):
        for name in ("W1", "b1", "W2", "b2", "loss_history"):
            assert np.array_equal(getattr(other, name), getattr(model, name)), name
        # the per-window errors are equal too; only their summation order moves
        assert other.training_error_mean == pytest.approx(model.training_error_mean, rel=1e-12)
        assert other.training_error_std == pytest.approx(model.training_error_std, rel=1e-12)


def test_ae_training_loss_monotone():
    rng = np.random.default_rng(7)
    windows = rng.standard_normal((40, 8))
    model = ae_train(windows, hidden=3, epochs=100, learning_rate=0.01)
    losses = np.asarray(model.loss_history)
    assert 1 <= len(losses) <= 100
    assert np.all(np.diff(losses) <= 1e-12)


def _linear_bound(X, hidden):
    """The least mean squared error of any rank-``hidden`` affine
    reconstruction of the rows of X (Eckart-Young), from the singular
    values of the centred rows, each repeated row as often as it occurs."""
    singular = np.linalg.svd(X - X.mean(axis=0), compute_uv=False)
    return float(np.sum(singular[hidden:] ** 2)) / X.size


@pytest.mark.parametrize("name", ["dense", "sparse-repeated"])
def test_ae_train_reaches_the_linear_bound_in_few_epochs(name):
    X, _ = _ae_inputs(name)
    epochs = 200
    model = ae_train(X, 8, epochs, 0.01)
    assert model.loss_history[-1] <= 1.10 * _linear_bound(X, 8)
    # the stop rule ends the fit, not the epoch cap
    assert len(model.loss_history) <= epochs // 20


def _low_rank_windows():
    rng = np.random.default_rng(13)
    return rng.standard_normal((120, 3)) @ rng.standard_normal((3, 12)) + 0.1 * rng.standard_normal(
        (120, 12)
    )


def test_ae_train_matches_two_pass_oracle_through_trial_steps(monkeypatch):
    # a first trial step too long to pass the Armijo test, on windows
    # whose fit takes several epochs: the pass that tests a trial step
    # gives the next epoch's gradients, as fresh passes would
    X = _low_rank_windows()
    passes = []
    real_pass = reduction._ae_pass

    def counted_pass(*args):
        passes.append(args)
        return real_pass(*args)

    monkeypatch.setattr(reduction, "_ae_pass", counted_pass)
    model = ae_train(X, 4, 50, 10.0)
    monkeypatch.undo()
    weights, history, errors = naive_ae_train(X, 4, 50, 10.0)
    assert len(history) > 1
    assert len(passes) > len(history) + 1  # some epoch halved its step
    for got, want in zip((model.W1, model.b1, model.W2, model.b2), weights):
        assert np.array_equal(got, want)
    assert np.array_equal(model.loss_history, history)
    assert model.training_error_mean == float(errors.mean())
    assert np.all(np.diff(history) <= 0.0)


@pytest.mark.parametrize("case", ["identical", "fewer-distinct-than-hidden", "tied-top"])
def test_ae_train_on_degenerate_windows(case):
    # any numpy warning is an error under the pytest settings, so a 0/0
    # in the start's scale fails here
    rng = np.random.default_rng(14)
    if case == "identical":  # zero covariance, top eigenvalue 0
        X, hidden = np.tile(rng.standard_normal(8), (20, 1)), 3
    elif case == "fewer-distinct-than-hidden":
        X, hidden = np.repeat(rng.standard_normal((3, 8)), 10, axis=0), 5
    else:  # the covariance is 1.5 I: every eigenvalue ties
        X, hidden = np.tile(np.vstack((3.0 * np.eye(6), -3.0 * np.eye(6))), (2, 1)), 2
    model = ae_train(X, hidden, 50, 0.01)
    for name in ("W1", "b1", "W2", "b2", "loss_history"):
        assert np.all(np.isfinite(getattr(model, name))), name
    assert math.isfinite(model.training_error_mean)
    assert math.isfinite(model.training_error_std)
    assert np.all(np.isfinite(ae_score(model, X)))
    if case != "tied-top":
        assert model.loss_history[-1] <= 1e-20


def test_ae_train_rejects_non_finite_windows():
    X = np.random.default_rng(15).standard_normal((20, 6))
    X[3, 2] = np.nan
    with pytest.raises(NumericError):
        ae_train(X, 2, 50, 0.01)


def test_ae_start_is_equivalent_under_an_eigenvector_sign():
    # tanh is odd, so negating one bottleneck unit's input and output
    # weights moves no reconstruction, before training or after it
    X = _low_rank_windows()
    windows = kernels.DistinctRows.of(X)
    sums = reduction._ae_sums(windows)
    start = reduction._ae_start(windows, sums, 4)
    W1, b1, W2, b2 = (p.copy() for p in start)
    W1[1], b1[1], W2[:, 1] = -W1[1], -b1[1], -W2[:, 1]
    flipped = (W1, b1, W2, b2)
    assert ae_loss(*flipped, X) == pytest.approx(ae_loss(*start, X), rel=1e-12, abs=0.0)
    _, history = reduction._ae_descend(start, windows, sums, 50, 0.01)
    _, flipped_history = reduction._ae_descend(flipped, windows, sums, 50, 0.01)
    assert flipped_history[-1] == pytest.approx(history[-1], rel=1e-12, abs=0.0)


def test_ae_score_is_reconstruction_error():
    rng = np.random.default_rng(8)
    windows = rng.standard_normal((40, 6))
    model = ae_train(windows, hidden=2, epochs=50, learning_rate=0.01)
    typical = float(np.mean(ae_score(model, windows)))
    weird = float(ae_score(model, 10.0 * np.ones((1, 6)))[0])
    assert weird > typical


def test_score_threshold_mean_plus_k_std():
    scores = np.array([1.0, 2.0, 3.0, 4.0])
    expected = scores.mean() + 3.0 * scores.std()
    assert score_threshold(scores, 3.0) == pytest.approx(expected)
