"""Kernel machinery: RBF evaluation, kernel ridge regression, and the
one-class SMO solver checked against an independent dense-grid dual
oracle on tiny problems."""

import ast
import functools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ethsentinel import kernels
from ethsentinel.errors import DataError
from ethsentinel.kernels import (
    DistinctRows,
    by_row_blocks,
    kernel_matrix,
    kernel_ridge_fit,
    kernel_ridge_predict,
    one_class_decision,
    one_class_fit,
    resolve_gamma,
    sq_dists,
)
from oracles import naive_distinct_rows, naive_kernel_matrix, naive_sq_dists, traced_peak


def dual_objective(G, a):
    return 0.5 * float(a @ G @ a)


def test_kernel_matrix_matches_closed_form():
    x = np.array([[1.0, 2.0]])
    y = np.array([[-1.0, 0.5]])
    expected = math.exp(-0.3 * ((1 + 1) ** 2 + 1.5**2))
    assert kernel_matrix(x, y, 0.3)[0, 0] == pytest.approx(expected, rel=1e-15)
    assert kernel_matrix(x, x, 0.3)[0, 0] == 1.0


def block_sizes(n, width):
    """The row counts of the blocks that ``by_row_blocks`` hands its
    function on an n-row matrix, after checking that they cover each row
    once, in order, each with the index of its first row."""
    A = np.arange(2.0 * n).reshape(n, 2)
    seen = []

    def first_column(block, lo):
        seen.append((lo, len(block)))
        return block[:, 0]

    assert np.array_equal(by_row_blocks(first_column, A, width), A[:, 0])
    sizes = [rows for _, rows in seen]
    assert [lo for lo, _ in seen] == np.cumsum([0, *sizes[:-1]]).tolist()
    return sizes


@pytest.mark.parametrize(
    "n, sizes",
    [
        (0, [0]),
        (1, [1]),
        (512, [128] * 4),
        (513, [128] * 3 + [129]),
        (1024, [128] * 8),
        (1025, [128] * 7 + [129]),
        (1026, [128] * 8 + [2]),
    ],
)
def test_row_blocks_cover_each_row_once(n, sizes):
    # 128-row blocks against a reference of up to 1024 rows; a lone last
    # row joins the block before it
    assert block_sizes(n, 1024) == sizes


@pytest.mark.parametrize(
    "n, width, sizes",
    [
        # the largest power of two of rows whose entries fit
        (129, 1025, [64, 65]),
        (33, 5760, [16, 17]),
        (34, 5760, [16, 16, 2]),
        # at least 2 rows, however wide
        (7, kernels._BLOCK_ENTRIES, [2, 2, 3]),
        (6, 4 * kernels._BLOCK_ENTRIES, [2, 2, 2]),
        (3, 0, [3]),
    ],
)
def test_row_blocks_against_a_wide_reference_hold_one_block_of_entries(n, width, sizes):
    assert block_sizes(n, width) == sizes


def test_kernel_expansion_rounds_each_row_as_128_row_blocks_do():
    # BLAS's matrix-vector product rounds a row by its place in a group
    # of rows: 26-row blocks, all that fit the entries against 5000
    # support rows, moved 59 of these 1000 sums in their last bits
    rng = np.random.default_rng(15)
    support = rng.standard_normal((5000, 4))
    support_sq = np.sum(support * support, axis=1)
    weights = rng.random(5000)
    X = rng.standard_normal((1000, 4))
    expected = np.concatenate(
        [
            kernel_matrix(X[lo : lo + 128], support, 0.2, support_sq) @ weights
            for lo in range(0, 1000, 128)
        ]
    )
    assert np.array_equal(kernels._expansion(X, support, support_sq, weights, 0.2), expected)


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
    G = kernel_matrix(X, X, 0.3)
    assert np.array_equal(G, naive_kernel_matrix(X, X, 0.3))
    # kernel ridge fits on the Gram matrix as computed: it must be exactly symmetric
    assert np.array_equal(G, G.T)


def test_distances_and_gram_hold_one_square_buffer():
    n = 2048
    X = rows_with_duplicates(n, 15, 2)
    bound = 1.5 * n * n * 8
    assert traced_peak(lambda: sq_dists(X, X)) < bound
    assert traced_peak(lambda: kernel_matrix(X, X, 0.1)) < bound


def distinct_rows_case(name):
    """A dense matrix, every row distinct, or a mostly-zero one, most of
    whose rows repeat, as the windows of a sparse account do."""
    rng = np.random.default_rng(8)
    if name == "dense":
        return rng.standard_normal((300, 6))
    return np.where(rng.random((500, 6)) < 0.05, rng.integers(1, 4, (500, 6)), 0).astype(float)


@pytest.mark.parametrize("name", ["dense", "mostly_zero"])
def test_distinct_rows_rebuild_the_matrix(name):
    X = distinct_rows_case(name)
    distinct = DistinctRows.of(X)
    assert distinct.inverse.ndim == 1
    assert distinct.rows[distinct.inverse].tobytes() == X.tobytes()
    assert distinct.counts.dtype.kind == "i"
    assert distinct.counts.sum() == len(X)
    assert np.array_equal(distinct.sq, np.sum(distinct.rows * distinct.rows, axis=1))
    if name == "mostly_zero":
        assert len(distinct.rows) < len(X) / 2


@pytest.mark.parametrize("name", ["dense", "mostly_zero"])
def test_distinct_rows_do_not_depend_on_the_row_order(name):
    X = distinct_rows_case(name)
    perm = np.random.default_rng(9).permutation(len(X))
    distinct, shuffled = DistinctRows.of(X), DistinctRows.of(X[perm])
    for key in ("rows", "counts", "sq"):
        assert getattr(shuffled, key).tobytes() == getattr(distinct, key).tobytes()
    assert np.array_equal(shuffled.inverse, distinct.inverse[perm])


# rows that differ only in the sign of a zero, few enough that np.unique's
# quicksort runs as an insertion sort, which keeps equal rows in order
SIGNED_ZEROS = np.array(
    [[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [0.0, -0.0], [-0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
)

DISTINCT_ROWS_INPUTS = {
    "dense": lambda: distinct_rows_case("dense"),
    "mostly_zero": lambda: distinct_rows_case("mostly_zero"),
    "no_rows": lambda: np.empty((0, 4)),
    "one_row": lambda: np.array([[2.0, 0.0, -1.0]]),
    "two_rows": lambda: np.array([[1.0, 0.0], [0.0, 3.0]]),
    "one_column": lambda: np.random.default_rng(10).integers(0, 5, (300, 1)).astype(float),
    "signed_zeros": lambda: SIGNED_ZEROS,
    "signed_zeros_reversed": lambda: SIGNED_ZEROS[::-1],
}


@pytest.mark.parametrize("name", DISTINCT_ROWS_INPUTS)
def test_distinct_rows_equal_np_unique_over_rows(name):
    X = DISTINCT_ROWS_INPUTS[name]()
    distinct, expected = DistinctRows.of(X), naive_distinct_rows(X)
    for key in ("rows", "counts", "inverse", "sq"):
        got, want = getattr(distinct, key), getattr(expected, key)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def test_distinct_rows_keep_the_first_of_rows_equal_but_for_signed_zeros():
    # the lexsort is stable, so the first such row in X stands for the
    # rest; np.unique's quicksort keeps any one of a larger set
    rng = np.random.default_rng(11)
    X = np.where(rng.random((400, 3)) < 0.5, -0.0, 0.0)
    X[::7, 0] = 1.0
    distinct, expected = DistinctRows.of(X), naive_distinct_rows(X)
    first = [int(np.flatnonzero(distinct.inverse == i)[0]) for i in range(len(distinct.rows))]
    assert distinct.rows.tobytes() == X[first].tobytes()
    assert np.array_equal(distinct.rows, expected.rows)
    for key in ("counts", "inverse", "sq"):
        assert getattr(distinct, key).tobytes() == getattr(expected, key).tobytes()


def test_no_np_unique_over_rows_in_the_package():
    # DistinctRows.of sorts rows by one lexsort over the columns; an
    # np.unique(..., axis=0) sorts them as structured records instead,
    # at over 10x the cost on a window matrix
    sites = []
    for path in sorted(Path(kernels.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "unique"
                and any(
                    kw.arg == "axis" and isinstance(kw.value, ast.Constant) and kw.value.value == 0
                    for kw in node.keywords
                )
            ):
                sites.append(path.name)
    assert sites == []


def test_gram_symmetry_and_unit_diagonal():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 3))
    G = kernel_matrix(X, X, resolve_gamma(X))
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
    G = kernel_matrix(X, X, 0.5)
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


def test_kernel_ridge_adds_the_ridge_in_place(monkeypatch):
    rng = np.random.default_rng(12)
    X = rng.standard_normal((512, 5))
    y = np.sin(X.sum(axis=1))
    gram = len(X) ** 2 * 8
    model = kernel_ridge_fit(X, y, 1.0)
    # RBF entries are never -0.0, so adding lam * I leaves every
    # off-diagonal bit as it is
    G = kernel_matrix(X, X, model.gamma)
    assert np.array_equal(model.dual_weights, np.linalg.solve(G + 1.0 * np.eye(len(X)), y))
    held = []
    solve = np.linalg.solve

    def recording(a, b):
        held.append(tracemalloc.get_traced_memory()[0])
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    peak = traced_peak(lambda: kernel_ridge_fit(X, y, 1.0))
    # G + lam * I held a second n-square array beside the Gram while
    # LAPACK solved on a third, its own copy
    assert held[0] < 1.5 * gram
    # the peak is kernel_matrix's: its distance buffer and norm sums
    assert peak < 2.1 * gram


def dense_grid_dual_minimum(G, C, steps=2000):
    """The least dual objective over a grid of the 3-point simplex
    a0 + a1 + a2 = 1 with every a_i in [0, C]."""
    a0, a1 = np.meshgrid(C * np.arange(steps + 1) / steps, C * np.arange(steps + 1) / steps)
    a = np.stack([a0.ravel(), a1.ravel(), 1.0 - a0.ravel() - a1.ravel()], axis=1)
    a = a[(a[:, 2] >= 0.0) & (a[:, 2] <= C)]
    return float(np.min(0.5 * np.einsum("ij,jk,ik->i", a, G, a)))


def support_dual_objective(model):
    # the model keeps only the rows with a positive alpha: a zero alpha
    # adds nothing to the objective
    G = kernel_matrix(model.support_vectors, model.support_vectors, model.gamma)
    return dual_objective(G, model.alphas)


def test_smo_matches_dense_grid_oracle_n3():
    # n=3, nu=1/2 -> C=2/3; exhaustive grid over the constrained simplex
    rng = np.random.default_rng(4)
    X = rng.standard_normal((3, 2))
    model = one_class_fit(X, nu=0.5)
    best = dense_grid_dual_minimum(kernel_matrix(X, X, model.gamma), 1.0 / (0.5 * 3))
    assert support_dual_objective(model) <= best + 1e-6


def test_smo_matches_dense_grid_oracle_n3_with_a_zero_alpha():
    # at gamma 0.1 the middle of three collinear points is the most
    # similar to the others, so the optimum puts no weight on it
    X = np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    model = one_class_fit(X, nu=0.5, gamma=0.1)
    assert np.array_equal(model.support_vectors, X[[0, 2]])
    best = dense_grid_dual_minimum(kernel_matrix(X, X, 0.1), 1.0 / (0.5 * 3))
    assert support_dual_objective(model) <= best + 1e-6


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


@functools.cache
def support_case(name):
    """A one-class fit at the detector's nu on 2048 training rows, the
    OCSVM subsample size: dense rows, or mostly-zero ones, most of which
    repeat, as the windows of a sparse account do. With the rows, the
    full alpha vector of the same dual, solved here from its start."""
    rng = np.random.default_rng(10)
    if name == "dense":
        X = rng.standard_normal((2048, 5))
    else:
        X = np.where(rng.random((2048, 5)) < 0.05, rng.integers(1, 4, (2048, 5)), 0).astype(float)
    nu = 0.02
    model = one_class_fit(X, nu)
    C = 1.0 / (nu * len(X))
    full = kernels._initial_alphas(len(X), C)
    # the same solver over a dense matrix of the rows the fit computes on demand
    row = kernels._kernel_rows(X, model.gamma)
    Q = np.array([row(i) for i in range(len(X))])
    start = np.flatnonzero(full)
    g = full[start] @ Q[start]
    tol, max_iter = kernels.SMO_TOLERANCE, kernels.SMO_MAX_ITER
    kernels.smo_solve(Q.__getitem__, np.ones(len(X)), g, full, C, tol, max_iter)
    return X, model, full


@pytest.mark.parametrize("name", ["dense", "mostly_zero"])
def test_one_class_model_keeps_only_positive_alphas(name):
    _, model, _ = support_case(name)
    assert np.all(model.alphas > 0.0)


@pytest.mark.parametrize("name", ["dense", "mostly_zero"])
def test_one_class_model_keeps_fewer_rows_than_it_trained_on(name):
    X, model, _ = support_case(name)
    assert len(model.support_vectors) < len(X)
    assert len(model.support_sq) == len(model.alphas) == len(model.support_vectors)


@pytest.mark.parametrize("name", ["dense", "mostly_zero"])
def test_one_class_support_flags_like_the_full_alpha_sum(name):
    X, model, full = support_case(name)
    support = full > 0.0
    assert np.array_equal(model.support_vectors, X[support])
    assert np.array_equal(model.alphas, full[support])
    rng = np.random.default_rng(11)
    # the training rows hold the margin SV that anchors rho, which must
    # decide exactly 0 in both sums, not a rounding error below it
    queries = np.vstack([X, rng.standard_normal((512, 5)), 4.0 * rng.standard_normal((64, 5))])
    # the full-alpha machine, its rho anchored at its least margin SV
    C = 1.0 / (0.02 * len(X))
    margin = (full > 1e-10) & (full < C - 1e-10)
    rho = float(np.min((kernel_matrix(X, X, model.gamma) @ full)[margin]))
    full_sum = kernel_matrix(queries, X, model.gamma) @ full - rho
    assert np.array_equal(one_class_decision(model, queries) < 0.0, full_sum < 0.0)


@pytest.mark.parametrize("name", ["dense", "mostly_zero"])
def test_one_class_fit_holds_no_gram_matrix(name):
    # the solver reads the kernel rows of the pairs it moves, not all n^2 entries
    X, _, _ = support_case(name)
    n = len(X)
    assert traced_peak(lambda: one_class_fit(X, 0.02)) < 0.25 * n * n * 8


@pytest.mark.parametrize("name", ["dense", "mostly_zero"])
def test_one_class_fit_computes_each_kernel_row_once(name, monkeypatch):
    X, model, _ = support_case(name)
    n = len(X)
    base, stride = X.__array_interface__["data"][0], X.strides[0]
    rows = []
    kernel_matrix_ = kernels.kernel_matrix

    def recording(A, B, gamma, B_sq=None):
        if np.shares_memory(B, X):
            assert len(A) == 1, "a kernel product of more than one training row"
            rows.append((A.__array_interface__["data"][0] - base) // stride)
        return kernel_matrix_(A, B, gamma, B_sq)

    monkeypatch.setattr(kernels, "kernel_matrix", recording)
    refit = one_class_fit(X, 0.02)
    assert refit.iterations == model.iterations
    assert rows and all(0 <= i < n for i in rows)
    assert len(rows) == len(set(rows))
    # the rows of the starting alphas that are not 0, then two per iteration at most
    start = np.count_nonzero(kernels._initial_alphas(n, 1.0 / (0.02 * n)))
    assert len(rows) <= start + 2 * model.iterations


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 5755])
def test_blocked_kernel_ridge_predict_equals_the_whole_matrix_form(n):
    rng = np.random.default_rng(12)
    X = rng.standard_normal((512, 5))
    model = kernel_ridge_fit(X, np.sin(X.sum(axis=1)), 1.0)
    queries = rng.standard_normal((n, 5))
    whole = kernel_matrix(queries, model.X, model.gamma) @ model.dual_weights
    # the two forms may round apart: on this fixture by up to 9e-16 at 2
    # BLAS threads, and each moves by 5e-15 between 1 and 2 threads. The
    # bound, 1e-9 of the largest dual weight, leaves a wide margin
    atol = 1e-9 * np.abs(model.dual_weights).max()
    np.testing.assert_allclose(kernel_ridge_predict(model, queries), whole, rtol=0, atol=atol)
