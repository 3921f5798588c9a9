"""Shared reference implementations used by multiple test modules, and
``traced_peak`` and ``rss_growth`` for the memory bounds."""

import math
import os
import subprocess
import sys
import tracemalloc

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


def naive_window_matrix(values, w):
    """Reference windowing: a window starting at every cell, one
    flattened slice each."""
    n = len(values)
    width = w * (values.shape[1] if values.ndim == 2 else 1)
    if n < w:
        return np.empty((0, width)), np.empty(0, dtype=int)
    starts = np.arange(0, n - w + 1)
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
    (one generator, the same draws in the same order) grown as linked
    nodes a depth level at a time, each level's nodes in order: the
    roots tree by tree, then each parent's left child before its right.
    Each tree is walked by partitioning the row indices node by node."""
    from ethsentinel.reduction import average_path_length

    def grow(level, limit, rng):
        """Split the nodes of ``level`` and of every level below, in place."""
        while level:
            # the nodes that draw a split, with the columns that vary within them
            drawn = []
            for node in level:
                rows = node.pop("rows")
                node["size"] = len(rows)
                lo = rows.min(axis=0)
                hi = rows.max(axis=0)
                usable = np.flatnonzero(hi > lo)
                if node["depth"] < limit and len(usable):
                    drawn.append((node, rows, usable, lo, hi))
            features = [int(usable[rng.integers(len(usable))]) for _, _, usable, _, _ in drawn]
            thresholds = [
                float(rng.uniform(lo[f], hi[f])) for (_, _, _, lo, hi), f in zip(drawn, features)
            ]
            level = []
            for (node, rows, _, _, _), f, threshold in zip(drawn, features, thresholds):
                mask = rows[:, f] < threshold
                if not mask.any() or mask.all():
                    continue
                depth = node["depth"] + 1
                node["feature"] = f
                node["threshold"] = threshold
                node["left"] = {"rows": rows[mask], "depth": depth}
                node["right"] = {"rows": rows[~mask], "depth": depth}
                level += [node["left"], node["right"]]

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
    rng = np.random.default_rng(seed)
    trees = [
        {"rows": X[rng.choice(len(X), size=subsample_size, replace=False)], "depth": 0}
        for _ in range(tree_count)
    ]
    grow(trees, limit, rng)
    x = np.asarray(x, dtype=np.float64)
    rows = np.atleast_2d(x)
    mean_path = np.zeros(len(rows))
    for tree in trees:
        mean_path += path_lengths(tree, rows)
    mean_path /= tree_count
    scores = 2.0 ** (-mean_path / average_path_length(subsample_size))
    return float(scores[0]) if x.ndim == 1 else scores


def naive_knn_loo_predictions(train, lags, k):
    """Reference leave-self-out k-NN forecasts under the tie-averaged
    rule, from the whole (pairs x pairs) distance matrix, one pair at a
    time. Pairs with equal lag contexts form one context, at distance 0
    from each other. Without the pair itself, the contexts nearer than
    the k-th nearest pair count whole, and those at its distance share
    the remaining places in proportion to their pair counts. The target
    sums are added one context at a time, in ascending (distance,
    context) order, and divided by k."""
    from ethsentinel.kernels import sq_dists
    from ethsentinel.predictive import _lag_pairs

    X, y = _lag_pairs(train, lags)
    contexts, context = np.unique(X, axis=0, return_inverse=True)
    context = context.reshape(-1)
    m = len(contexts)
    counts = np.zeros(m, dtype=np.int64)
    sums = np.zeros(m)
    for j, c in enumerate(context):
        counts[c] += 1
        sums[c] += y[j]
    dist = sq_dists(X, X)
    preds = np.empty(len(y))
    for i, own in enumerate(context):
        gap = np.empty(m)
        gap[context] = dist[i]
        gap[own] = 0.0
        count = counts.copy()
        count[own] -= 1
        total = sums.copy()
        total[own] -= y[i]
        order = np.lexsort((np.arange(m), gap))
        kth = gap[order][np.argmax(np.cumsum(count[order]) >= k)]
        nearer = count[gap < kth].sum()
        share = (k - nearer) / count[gap == kth].sum()
        acc = 0.0
        for c in order:
            if gap[c] > kth:
                break
            acc += total[c] * (1.0 if gap[c] < kth else share)
        preds[i] = acc / k
    return y, preds


def naive_best_split(X, y, min_leaf):
    """Reference CART split: every cut of every feature in turn, kept
    when its (-reduction, feature, threshold) key is the least so far."""
    n = len(y)
    total_sum = y.sum()
    total_sq = float(y @ y)
    base_sse = total_sq - total_sum**2 / n
    best = None
    for f in range(X.shape[1]):
        idx = np.argsort(X[:, f], kind="stable")
        xs = X[idx, f]
        ys = y[idx]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        for cut in range(min_leaf, n - min_leaf + 1):
            if cut < 1 or cut > n - 1 or xs[cut - 1] == xs[cut]:
                continue
            left_sse = csq[cut - 1] - csum[cut - 1] ** 2 / cut
            right_n = n - cut
            right_sum = total_sum - csum[cut - 1]
            right_sse = (total_sq - csq[cut - 1]) - right_sum**2 / right_n
            reduction = base_sse - left_sse - right_sse
            threshold = 0.5 * (xs[cut - 1] + xs[cut])
            key = (-reduction, f, threshold)
            if best is None or key < best[0]:
                best = (key, f, threshold, reduction)
    if best is None or best[3] <= 1e-12:
        return None
    return best[1], best[2]


def naive_select_k(X, k_min=2, k_max=10, seed=0):
    """Reference ``clustering.select_k``: the same subsample and k-means
    fits, each k's labeling scored by ``silhouette_score``, which
    measures the sample's distances anew for every k."""
    from ethsentinel.clustering import SILHOUETTE_POINTS, kmeans_fit, silhouette_score
    from ethsentinel.kernels import sq_dists

    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    rng = np.random.default_rng(seed)
    if len(X) > SILHOUETTE_POINTS:
        X = X[rng.choice(len(X), size=SILHOUETTE_POINTS, replace=False)]
    scores = {}
    for k in range(k_min, min(k_max, len(X) - 1) + 1):
        labels = np.argmin(sq_dists(X, kmeans_fit(X, k, seed=seed).centroids), axis=1)
        scores[k] = silhouette_score(X, labels)
    # the first k of the highest score
    return max(scores, key=lambda k: (scores[k], -k)) if scores else k_min


def naive_kmeans_fit(X, k, seed=0, restarts=4):
    """Reference ``clustering.kmeans_fit``: the k-means++/Lloyd fit with
    each centroid the mean of a boolean mask's members, cluster by
    cluster, every distance with its own row norms. Returns (centroids,
    k, 0.99 quantile of the training distances)."""
    from ethsentinel.kernels import sq_dists

    def kmeanspp_init(X, k, rng):
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

    def lloyd(X, centroids, max_iter=300):
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

    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(max(restarts, 1)):
        centroids = kmeanspp_init(X, k, rng)
        centroids, _, inertia = lloyd(X, centroids)
        if best is None or inertia < best[1]:
            best = (centroids.copy(), inertia)
    centroids = best[0]
    train_dist = np.sqrt(sq_dists(X, centroids).min(axis=1))
    return centroids, k, float(np.quantile(train_dist, 0.99))


def naive_silhouette(X, labels):
    """Reference mean silhouette (Rousseeuw 1987), one point at a time."""
    from ethsentinel.kernels import sq_dists

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


def naive_ae_gradients(W1, b1, W2, b2, X):
    """Reference mean-squared-reconstruction-error gradients: the full
    (n, w) output and residual, backpropagated over every row, a
    repeated row as often as it occurs."""
    n, w = X.shape
    hidden = np.tanh(X @ W1.T + b1)
    out = hidden @ W2.T + b2
    delta_out = 2.0 * (out - X) / (n * w)
    delta_hidden = (delta_out @ W2) * (1.0 - hidden**2)
    return (
        delta_hidden.T @ X,
        delta_hidden.sum(axis=0),
        delta_out.T @ hidden,
        delta_out.sum(axis=0),
    )


def naive_ae_loss(W1, b1, W2, b2, X):
    """Reference mean squared reconstruction error from the full output."""
    out = np.tanh(X @ W1.T + b1) @ W2.T + b2
    return float(np.mean((out - X) ** 2))


def naive_ae_train(X, hidden, epochs, learning_rate):
    """Reference autoencoder training: from ``ae_train``'s start, fresh
    gradients and a separate loss pass at each epoch's weights and at
    every trial step of its Armijo search. Returns the weights, the loss
    history and the training errors per window."""
    from ethsentinel.kernels import DistinctRows
    from ethsentinel.reduction import (
        AE_TOLERANCE,
        ARMIJO_C,
        ARMIJO_HALVINGS,
        _ae_forward,
        _ae_start,
        _ae_sums,
        ae_gradients,
        ae_loss,
    )

    windows = DistinctRows.of(X)
    params = _ae_start(windows, _ae_sums(windows), hidden)
    history = []
    for _ in range(epochs):
        loss = ae_loss(*params, X)
        grads = ae_gradients(*params, X)
        slope = sum(float(np.sum(g * g)) for g in grads)
        step = learning_rate
        new_loss = loss
        for _ in range(ARMIJO_HALVINGS):
            trial = [p - step * g for p, g in zip(params, grads)]
            trial_loss = ae_loss(*trial, X)
            if trial_loss <= loss - ARMIJO_C * step * slope:
                params, new_loss = trial, trial_loss
                break
            step /= 2.0
        history.append(new_loss)
        if loss - new_loss <= AE_TOLERANCE * max(loss, 0.0):
            break
    _, out = _ae_forward(*params, X)
    errors = np.mean((out - X) ** 2, axis=1)
    return params, np.array(history), errors


def naive_long_ar_design(w, lags):
    """Reference long-AR design: an intercept column, then the given
    ascending lags of ``w[max(lags):]``, built one lag column at a time."""
    n, m = len(w), max(lags)
    design = np.empty((n - m, len(lags) + 1))
    design[:, 0] = 1.0
    for column, lag in enumerate(lags, start=1):
        design[:, column] = w[m - lag : n - lag]
    return design


def naive_long_ar_residuals(w, lags):
    """Reference long-AR residuals: the column-built design solved by
    the SVD-based least squares."""
    n, m = len(w), max(lags)
    design = naive_long_ar_design(w, lags)
    coeffs, _, _, _ = np.linalg.lstsq(design, w[m:], rcond=None)
    e_hat = np.zeros(n)
    e_hat[m:] = w[m:] - design @ coeffs
    return e_hat


def naive_css_residuals(w, c, phi, sphi, theta, stheta, s, start, history=None):
    """Reference CSS recursion: the whole prediction of each residual,
    AR and MA terms alike, summed in one loop over numpy scalars."""
    w = np.asarray(w, dtype=np.float64)
    n = len(w)
    e = np.zeros(n)
    if history is not None:
        e[:start] = history
    for t in range(start, n):
        pred = c
        for i in range(len(phi)):
            pred += phi[i] * w[t - 1 - i]
        for j in range(len(sphi)):
            pred += sphi[j] * w[t - (j + 1) * s]
        for i in range(len(theta)):
            pred -= theta[i] * e[t - 1 - i]
        for j in range(len(stheta)):
            pred -= stheta[j] * e[t - (j + 1) * s]
        e[t] = w[t] - pred
    return e


def naive_distinct_rows(X):
    """Reference ``kernels.DistinctRows.of``: ``np.unique`` over the rows,
    which sorts them as one structured field per column."""
    from ethsentinel.kernels import DistinctRows

    rows, inverse, counts = np.unique(X, axis=0, return_inverse=True, return_counts=True)
    return DistinctRows(rows, counts, inverse.reshape(-1), np.sum(rows * rows, axis=1))


def naive_sq_dists(A, B):
    """Reference squared distances: the expanded form as one expression
    over whole matrices, clamped at zero."""
    sq = np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :] - 2.0 * (A @ B.T)
    np.maximum(sq, 0.0, out=sq)
    return sq


def naive_kernel_matrix(X, Y, gamma):
    return np.exp(-gamma * naive_sq_dists(X, Y))


def naive_estimate_eps(X, k):
    kth = np.sqrt(np.partition(naive_sq_dists(X, X), k, axis=1)[:, k])
    return float(np.quantile(kth, 0.95))


def traced_peak(fn):
    """Peak bytes that Python and numpy allocate while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def rss_growth(setup, call):
    """Bytes by which the statement ``call`` raises the peak resident
    set (``ru_maxrss``) of a fresh interpreter that has run ``setup``.

    Unlike ``traced_peak`` this sees what the BLAS/LAPACK libraries
    allocate with their own malloc, such as the copies and workspace
    that ``np.linalg.lstsq`` hands to LAPACK. ``setup`` should make the
    calls that load those libraries and their buffers once at a small
    size, so that their first-use cost does not count against ``call``.
    """
    import ethsentinel

    script = "\n".join(
        (
            "import resource",
            setup,
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss",
            call,
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss",
            "print(after - before)",
        )
    )
    src = os.path.dirname(os.path.dirname(ethsentinel.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return int(out.stdout.split()[-1]) * 1024  # Linux reports kilobytes
