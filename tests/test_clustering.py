"""Clustering bank: k-means, silhouette-driven k selection, and DBSCAN
checked against a naive O(n^2) region-growing reference."""

import numpy as np
import pytest

from ethsentinel.clustering import (
    DbscanParams,
    dbscan,
    estimate_eps,
    kmeans_fit,
    kmeans_score,
    select_k,
    silhouette_score,
)
from ethsentinel.errors import DataError
from ethsentinel.kernels import KernelSpec, one_class_decision, one_class_fit
from oracles import NOISE, naive_dbscan, same_partition


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
    with pytest.raises(DataError):
        estimate_eps(X[:3], 4)


def test_kmeans_recovers_separated_blobs():
    X = blobs(4, [[0, 0], [20, 0], [0, 20]], 40)
    model = kmeans_fit(X, 3, seed=0)
    got = {tuple(np.round(c).astype(int)) for c in model.centroids}
    assert got == {(0, 0), (20, 0), (0, 20)}
    # within-cluster distances are small, far points score big
    assert float(np.max(kmeans_score(model, X))) < 3.0
    assert kmeans_score(model, np.array([50.0, 50.0])) > 30.0


def test_kmeans_deterministic_given_seed():
    X = blobs(5, [[0, 0], [5, 5]], 50)
    m1 = kmeans_fit(X, 2, seed=9)
    m2 = kmeans_fit(X, 2, seed=9)
    assert np.array_equal(m1.centroids, m2.centroids)


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
    model = one_class_fit(train, KernelSpec(), 0.1)
    decisions = one_class_decision(model, query)
    flags = decisions < 0.0
    assert flags[-1]  # far point flagged
    assert decisions[-1] < 0
    assert np.mean(flags[:10]) <= 0.4  # most training points pass
