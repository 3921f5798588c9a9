"""Shared reference implementations used by multiple test modules."""

import math

import numpy as np

NOISE = -1


def naive_dbscan(X, eps, min_pts):
    """Reference density clustering: repeated full scans, no indexing tricks."""
    n = len(X)
    labels = [None] * n
    cluster = -1

    def neighbors(i):
        return [j for j in range(n) if np.sum((X[i] - X[j]) ** 2) <= eps * eps]

    for i in range(n):
        if labels[i] is not None:
            continue
        nb = neighbors(i)
        if len(nb) < min_pts:
            labels[i] = NOISE
            continue
        cluster += 1
        labels[i] = cluster
        seeds = list(nb)
        while seeds:
            j = seeds.pop(0)
            if labels[j] == NOISE:
                labels[j] = cluster
            if labels[j] is not None:
                continue
            labels[j] = cluster
            nb_j = neighbors(j)
            if len(nb_j) >= min_pts:
                seeds.extend(nb_j)
    return np.array(labels)


def same_partition(a, b):
    """Cluster labels equal up to renaming; noise must match exactly."""
    if not np.array_equal(a == NOISE, b == NOISE):
        return False
    mapping = {}
    for x, y in zip(a, b):
        if x == NOISE:
            continue
        if mapping.setdefault(x, y) != y:
            return False
    return len(set(mapping.values())) == len(mapping)


def naive_window_matrix(values, w, stride):
    """Reference windowing: every start on the stride grid, one
    flattened slice each."""
    n = len(values)
    width = w * (values.shape[1] if values.ndim == 2 else 1)
    if n < w:
        return np.empty((0, width)), np.empty(0, dtype=int)
    starts = np.arange(0, n - w + 1, stride)
    return np.stack([np.ravel(values[s : s + w]) for s in starts]), starts


def naive_point_flags(window_flags, starts, w, n, start, vote):
    """Reference point vote over cells [start, n): count the windows
    covering each cell and the flagged ones among them, one window at
    a time."""
    covering = np.zeros(n - start, dtype=int)
    flagged = np.zeros(n - start, dtype=int)
    for s, f in zip(starts, window_flags):
        lo = max(s, start) - start
        hi = s + w - start
        covering[lo:hi] += 1
        if f:
            flagged[lo:hi] += 1
    if vote == "any":
        return flagged > 0
    if vote == "all":
        return (covering > 0) & (flagged == covering)
    return flagged * 2 > covering


def naive_iforest_score(X, tree_count, subsample_size, seed, x):
    """Reference isolation forest: the trees of ``reduction.iforest_fit``
    (same seeds, same draw order) grown as linked nodes, and each tree
    walked by partitioning the row indices node by node."""
    from ethsentinel.reduction import average_path_length

    def grow(X, depth, limit, rng):
        n = len(X)
        if n <= 1 or depth >= limit:
            return {"size": n}
        lo = X.min(axis=0)
        hi = X.max(axis=0)
        usable = np.flatnonzero(hi > lo)
        if len(usable) == 0:
            return {"size": n}
        f = int(rng.choice(usable))
        threshold = float(rng.uniform(lo[f], hi[f]))
        mask = X[:, f] < threshold
        if not mask.any() or mask.all():
            return {"size": n}
        return {
            "feature": f,
            "threshold": threshold,
            "left": grow(X[mask], depth + 1, limit, rng),
            "right": grow(X[~mask], depth + 1, limit, rng),
        }

    def path_lengths(root, rows):
        out = np.empty(len(rows))
        stack = [(root, np.arange(len(rows)), 0)]
        while stack:
            node, idx, depth = stack.pop()
            if len(idx) == 0:
                continue
            if "feature" not in node:
                out[idx] = depth + average_path_length(node["size"])
                continue
            left = rows[idx, node["feature"]] < node["threshold"]
            stack.append((node["left"], idx[left], depth + 1))
            stack.append((node["right"], idx[~left], depth + 1))
        return out

    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    subsample_size = min(subsample_size, len(X))
    limit = int(math.ceil(math.log2(subsample_size)))
    trees = []
    for ss in np.random.SeedSequence(seed).spawn(tree_count):
        rng = np.random.default_rng(ss)
        idx = rng.choice(len(X), size=subsample_size, replace=False)
        trees.append(grow(X[idx], 0, limit, rng))
    x = np.asarray(x, dtype=np.float64)
    rows = np.atleast_2d(x)
    mean_path = np.zeros(len(rows))
    for tree in trees:
        mean_path += path_lengths(tree, rows)
    mean_path /= tree_count
    scores = 2.0 ** (-mean_path / average_path_length(subsample_size))
    return float(scores[0]) if x.ndim == 1 else scores
