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


def naive_ae_train(X, hidden, epochs, learning_rate, seed):
    """Reference autoencoder training: fresh gradients and a second
    forward pass for the loss after each update. Returns the weights,
    the loss history and the training errors per window."""
    from ethsentinel.reduction import _ae_forward, ae_gradients, ae_loss

    n, w = X.shape
    rng = np.random.default_rng(seed)
    r = math.sqrt(6.0 / (w + hidden))
    W1 = rng.uniform(-r, r, size=(hidden, w))
    b1 = np.zeros(hidden)
    W2 = rng.uniform(-r, r, size=(w, hidden))
    b2 = np.zeros(w)
    history = np.empty(epochs)
    for epoch in range(epochs):
        gW1, gb1, gW2, gb2 = ae_gradients(W1, b1, W2, b2, X)
        W1 -= learning_rate * gW1
        b1 -= learning_rate * gb1
        W2 -= learning_rate * gW2
        b2 -= learning_rate * gb2
        history[epoch] = ae_loss(W1, b1, W2, b2, X)
    _, out = _ae_forward(W1, b1, W2, b2, X)
    errors = np.mean((out - X) ** 2, axis=1)
    return (W1, b1, W2, b2), history, errors


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
