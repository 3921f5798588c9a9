"""Clustering bank: k-means, silhouette-driven k selection, and DBSCAN
checked against a naive O(n^2) region-growing reference."""

import numpy as np
import pytest

from ethsentinel.clustering import (
    SILHOUETTE_POINTS,
    DbscanParams,
    _silhouette,
    dbscan,
    estimate_eps,
    kmeans_fit,
    kmeans_score,
    select_k,
    silhouette_score,
)
from ethsentinel.errors import DataError
from ethsentinel.kernels import one_class_decision, one_class_fit, sq_dists
from oracles import (
    NOISE,
    naive_dbscan,
    naive_estimate_eps,
    naive_kmeans_fit,
    naive_select_k,
    naive_silhouette,
    same_partition,
    traced_peak,
)


def blobs(seed, centers, n_per, spread=0.3):
    rng = np.random.default_rng(seed)
    parts = [c + spread * rng.standard_normal((n_per, len(c))) for c in np.asarray(centers, dtype=float)]
    return np.vstack(parts)


def test_dbscan_matches_naive_oracle():
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 10, size=(200, 2))
    settings = [(0.5, 3), (0.8, 4), (1.0, 5), (1.5, 4), (0.3, 2), (2.0, 8), (0.7, 6), (1.2, 3), (0.9, 10), (0.4, 4)]
    for eps, min_pts in settings:
        ours = dbscan(X, DbscanParams(eps=eps, min_pts=min_pts))
        assert same_partition(ours, naive_dbscan(X, eps, min_pts)), (eps, min_pts)


def test_dbscan_three_blobs_and_noise():
    X = np.vstack([blobs(1, [[0, 0], [10, 0], [0, 10]], 30, 0.2), [[50.0, 50.0]]])
    labels = dbscan(X, DbscanParams(eps=1.0, min_pts=4))
    assert labels[-1] == NOISE
    assert len(set(labels[:90])) == 3
    assert NOISE not in labels[:90]


def test_dbscan_deterministic():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((100, 2))
    p = DbscanParams(eps=0.5, min_pts=4)
    assert np.array_equal(dbscan(X, p), dbscan(X, p))


def test_estimate_eps_bounds():
    X = blobs(3, [[0, 0]], 100, 0.5)
    eps = estimate_eps(X, 4)
    # heuristic eps must be positive and below the data diameter
    assert 0 < eps < 5.0
    # the k-th distance of each row, as from fully sorted distances
    assert eps == float(np.quantile(np.sort(np.sqrt(sq_dists(X, X)), axis=1)[:, 4], 0.95))
    with pytest.raises(DataError):
        estimate_eps(X[:3], 4)


@pytest.mark.parametrize("n", [5, 1024, 1025])  # 1025 rows take two steps of 1023 and 2
def test_estimate_eps_equals_the_copying_partition(n):
    X = np.random.default_rng(n).standard_normal((n, 4))
    X[1::3] = X[0]
    assert estimate_eps(X, 4) == naive_estimate_eps(X, 4)


@pytest.mark.parametrize("k", [1, 3, 10])
def test_estimate_eps_on_repeated_rows_equals_the_copying_partition(k):
    # the windows of a mostly-zero series: most rows are all zeros, and
    # each distinct row stands for its copies
    rng = np.random.default_rng(k)
    values = np.where(rng.random(1500) < 0.02, rng.standard_normal(1500), 0.0)
    X = np.lib.stride_tricks.sliding_window_view(values, 15)
    assert len(np.unique(X, axis=0)) < len(X) / 2
    assert estimate_eps(X, k) == naive_estimate_eps(X, k)


def test_estimate_eps_holds_one_square_buffer():
    n = 2048
    X = np.random.default_rng(1).standard_normal((n, 15))
    assert traced_peak(lambda: estimate_eps(X, 4)) < 1.5 * n * n * 8


def silhouette_cases():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((60, 2))
    labels = rng.integers(0, 4, 60)
    singletons = labels.copy()
    singletons[[3, 17]] = [7, 9]  # two clusters of one point each
    grid = np.round(rng.uniform(0, 3, (80, 2)))  # repeated points, zero distances
    sample = blobs(12, [[0, 0], [4, 0], [0, 4], [4, 4]], 200, 0.8)
    idx = np.random.default_rng(0).choice(len(sample), size=500, replace=False)
    sample = sample[idx]
    model = kmeans_fit(sample, 6, seed=0)  # select_k's 500-point case
    return [
        (X, labels),
        (X, singletons),
        (grid, rng.integers(0, 3, 80)),
        (X, np.zeros(60, dtype=int)),  # one label: 0.0
        (sample, np.argmin(sq_dists(sample, model.centroids), axis=1)),
    ]


@pytest.mark.parametrize("case", range(5))
def test_silhouette_matches_per_point_oracle(case):
    X, labels = silhouette_cases()[case]
    assert silhouette_score(X, labels) == naive_silhouette(X, labels)


def test_kmeans_recovers_separated_blobs():
    X = blobs(4, [[0, 0], [20, 0], [0, 20]], 40)
    model = kmeans_fit(X, 3, seed=0)
    got = {tuple(np.round(c).astype(int)) for c in model.centroids}
    assert got == {(0, 0), (20, 0), (0, 20)}
    # within-cluster distances are small, far points score big
    assert float(np.max(kmeans_score(model, X))) < 3.0
    assert kmeans_score(model, np.array([[50.0, 50.0]]))[0] > 30.0


def test_kmeans_deterministic_given_seed():
    X = blobs(5, [[0, 0], [5, 5]], 50)
    m1 = kmeans_fit(X, 2, seed=9)
    m2 = kmeans_fit(X, 2, seed=9)
    assert np.array_equal(m1.centroids, m2.centroids)


def kmeans_rows(name, d, seed):
    rng = np.random.default_rng(seed)
    if name == "dense":
        return rng.standard_normal((600, d)) + 4.0 * rng.integers(0, 3, (600, 1))
    return np.where(rng.random((600, d)) < 0.05, rng.integers(1, 4, (600, d)), 0).astype(float)


@pytest.mark.parametrize("d", [1, 5, 15])
@pytest.mark.parametrize("name", ["dense", "mostly_zero"])
def test_kmeans_fit_equals_the_mask_mean_oracle(name, d):
    X = kmeans_rows(name, d, 17 + d)
    if name == "mostly_zero" and d == 1:
        # 4 distinct rows: with k = 7, every assignment leaves a cluster
        # empty, and Lloyd's step reseeds it at the worst-fitted row
        assert len(np.unique(X)) < 7
    for k in (1, 3, 7):
        model = kmeans_fit(X, k, seed=k)
        centroids, k_, threshold = naive_kmeans_fit(X, k, seed=k)
        assert np.array_equal(model.centroids, centroids)
        assert model.k == k_
        assert model.train_distance_quantile == threshold


def test_silhouette_hand_computed():
    # two tight pairs far apart: silhouette approaches 1
    X = np.array([[0.0], [0.1], [10.0], [10.1]])
    labels = np.array([0, 0, 1, 1])
    s = silhouette_score(X, labels)
    # per point: a = 0.1, b = mean(10, 9.9) or mean(10.1, 10) -> s ~ 1 - 0.1/9.95
    expected = np.mean([
        1 - 0.1 / np.mean([10.0, 10.1]),
        1 - 0.1 / np.mean([9.9, 10.0]),
        1 - 0.1 / np.mean([10.0, 9.9]),
        1 - 0.1 / np.mean([10.1, 10.0]),
    ])
    assert s == pytest.approx(expected, rel=1e-9)


def test_select_k_finds_three_clusters():
    X = blobs(6, [[0, 0], [15, 0], [0, 15]], 40)
    assert select_k(X, seed=0) == 3


def test_one_class_flags_far_point():
    rng = np.random.default_rng(7)
    train = rng.standard_normal((150, 2))
    query = np.vstack([train[:10], [[8.0, 8.0]]])
    model = one_class_fit(train, 0.1)
    decisions = one_class_decision(model, query)
    flags = decisions < 0.0
    assert flags[-1]  # far point flagged
    assert decisions[-1] < 0
    assert np.mean(flags[:10]) <= 0.4  # most training points pass


def select_k_case(name):
    """More rows than select_k scores, so it subsamples: four blobs, or a
    mostly-zero matrix most of whose rows repeat."""
    if name == "dense":
        return blobs(14, [[0, 0], [4, 0], [0, 4], [4, 4]], 150, 0.8)
    rng = np.random.default_rng(15)
    return np.where(rng.random((600, 4)) < 0.1, rng.integers(1, 4, (600, 4)), 0).astype(float)


@pytest.mark.parametrize("name", ["dense", "mostly_zero"])
def test_select_k_scores_every_k_on_one_distance_matrix(name):
    X = select_k_case(name)
    assert len(X) > SILHOUETTE_POINTS
    sample = X[np.random.default_rng(0).choice(len(X), size=SILHOUETTE_POINTS, replace=False)]
    dist = np.sqrt(sq_dists(sample, sample))
    for k in range(2, 11):
        labels = np.argmin(sq_dists(sample, kmeans_fit(sample, k, seed=0).centroids), axis=1)
        score = _silhouette(dist, labels)
        assert score == silhouette_score(sample, labels) == naive_silhouette(sample, labels)
    assert select_k(X, seed=0) == naive_select_k(X, seed=0)
