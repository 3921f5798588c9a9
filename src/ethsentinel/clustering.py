"""Clustering detector bank: k-means distance scoring and DBSCAN noise
labeling. The one-class kernel machine lives in ``kernels``."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .kernels import sq_dists

NOISE = -1


@dataclass(frozen=True)
class KMeansModel:
    centroids: np.ndarray = field(repr=False)
    k: int
    train_distance_quantile: float  # 0.99 quantile of training distances
    inertia: float


@dataclass(frozen=True)
class DbscanParams:
    eps: float
    min_pts: int

    def __post_init__(self):
        if self.eps <= 0:
            raise DataError("eps must be positive")
        if self.min_pts < 1:
            raise DataError("min_pts must be >= 1")


def _kmeanspp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(X)
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    closest = sq_dists(X, centroids[:1]).ravel()
    for c in range(1, k):
        total = closest.sum()
        if total == 0.0:
            centroids[c:] = centroids[0]
            break
        probs = closest / total
        centroids[c] = X[rng.choice(n, p=probs)]
        closest = np.minimum(closest, sq_dists(X, centroids[c : c + 1]).ravel())
    return centroids


def _lloyd(X: np.ndarray, centroids: np.ndarray, max_iter: int = 300):
    k = len(centroids)
    assignments = None
    for _ in range(max_iter):
        dist = sq_dists(X, centroids)
        new_assign = np.argmin(dist, axis=1)
        if assignments is not None and np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        for c in range(k):
            members = X[assignments == c]
            if len(members) == 0:
                # re-seed an empty cluster to the worst-fitted point
                worst = int(np.argmax(dist[np.arange(len(X)), assignments]))
                centroids[c] = X[worst]
            else:
                centroids[c] = members.mean(axis=0)
    dist = sq_dists(X, centroids)
    assignments = np.argmin(dist, axis=1)
    inertia = float(dist[np.arange(len(X)), assignments].sum())
    return centroids, assignments, inertia


def kmeans_fit(X: np.ndarray, k: int, seed: int = 0, restarts: int = 4) -> KMeansModel:
    """Best of ``restarts`` k-means++/Lloyd runs by within-cluster SSE."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if k < 1:
        raise DataError("k must be >= 1")
    if k > len(X):
        raise DataError("k exceeds the number of rows")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(max(restarts, 1)):
        centroids = _kmeanspp_init(X, k, rng)
        centroids, _, inertia = _lloyd(X, centroids)
        if best is None or inertia < best[1]:
            best = (centroids.copy(), inertia)
    centroids, inertia = best
    train_dist = np.sqrt(sq_dists(X, centroids).min(axis=1))
    threshold = float(np.quantile(train_dist, 0.99))
    return KMeansModel(
        centroids=centroids, k=k, train_distance_quantile=threshold, inertia=inertia
    )


def kmeans_score(model: KMeansModel, x: np.ndarray) -> np.ndarray | float:
    """Euclidean distance to the nearest centroid."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    dist = np.sqrt(sq_dists(np.atleast_2d(x), model.centroids).min(axis=1))
    return float(dist[0]) if single else dist


def silhouette_score(X: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette over all points (O(n^2), caller subsamples)."""
    n = len(X)
    dist = np.sqrt(sq_dists(X, X))
    uniq = np.unique(labels)
    if len(uniq) < 2:
        return 0.0
    sil = np.zeros(n)
    for i in range(n):
        own = labels[i]
        same = labels == own
        same[i] = False
        if not same.any():
            continue
        a = dist[i, same].mean()
        b = min(dist[i, labels == other].mean() for other in uniq if other != own)
        sil[i] = (b - a) / max(a, b) if max(a, b) > 0 else 0.0
    return float(sil.mean())


def select_k(
    X: np.ndarray, k_min: int = 2, k_max: int = 10, seed: int = 0, max_points: int = 500
) -> int:
    """Pick k by silhouette score; subsamples large inputs for the O(n^2) part."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    rng = np.random.default_rng(seed)
    if len(X) > max_points:
        idx = rng.choice(len(X), size=max_points, replace=False)
        sample = X[idx]
    else:
        sample = X
    k_max = min(k_max, len(sample) - 1)
    best_k, best_score = k_min, -np.inf
    for k in range(k_min, k_max + 1):
        model = kmeans_fit(sample, k, seed=seed)
        labels = np.argmin(sq_dists(sample, model.centroids), axis=1)
        score = silhouette_score(sample, labels)
        if score > best_score:
            best_k, best_score = k, score
    return best_k


def dbscan(X: np.ndarray, params: DbscanParams) -> np.ndarray:
    """Textbook density clustering; returns a cluster id per row, NOISE
    (-1) for unreachable points. Deterministic: points scanned in index
    order, border points take the first-discovered cluster."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n = len(X)
    eps_sq = params.eps**2
    # neighborhoods are inclusive: a point counts itself
    dist = sq_dists(X, X)
    neighbors = [np.flatnonzero(dist[i] <= eps_sq) for i in range(n)]
    core = np.array([len(nb) >= params.min_pts for nb in neighbors])
    labels = np.full(n, NOISE, dtype=np.int64)
    cluster = 0
    for i in range(n):
        if labels[i] != NOISE or not core[i]:
            continue
        labels[i] = cluster
        frontier = list(neighbors[i])
        pos = 0
        while pos < len(frontier):
            j = frontier[pos]
            pos += 1
            if labels[j] == NOISE:
                labels[j] = cluster
                if core[j]:
                    frontier.extend(neighbors[j])
        cluster += 1
    return labels


def estimate_eps(X: np.ndarray, k: int) -> float:
    """0.95 quantile of k-th nearest-neighbor distances (k-distance
    elbow heuristic in deterministic quantile form)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n = len(X)
    if n <= k:
        raise DataError("need more rows than k")
    dist = np.sqrt(sq_dists(X, X))
    kth = np.sort(dist, axis=1)[:, k]  # column 0 is the point itself
    return float(np.quantile(kth, 0.95))

