"""Detector registry, per-category majority voting, and the rolling
streaming engine (5-minute windows against a 4-day reference database).

Wiring: ``EngineConfig.group_kinds()`` names the kinds fitted on each
feature's univariate grid and on the combined per-cell feature rows
("multi"), and ``_groups`` turns it into the bank's groups, which
``fit_bank`` and ``score_bank`` both walk. Votes are strict majorities
within a category per group; a category fires at a point when any of
its groups reaches a majority there, and the final alarm is an OR over
the configured categories.
"""

from __future__ import annotations

import zlib
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import clustering, kernels, predictive, reduction
from .config import (
    CLUSTERING_KINDS,
    PREDICTIVE_KINDS,
    REDUCTION_KINDS,
    DetectorCategory,
    EngineConfig,
)
from .errors import DataError, FitError, NumericError
from .ingest import FeatureKind, to_feature_series
from .series import (
    TimeSeries,
    estimate_period,
    merge_cooccurring,
    resample,
    rms,
    standardize,
)

MULTI_GROUP = "multi"


@dataclass(frozen=True)
class DetectorVerdict:
    """One detector's per-point flags, for the last ``len(flags)`` cells
    of the timeline its votes are merged over."""

    detector_id: str
    category: DetectorCategory
    flags: np.ndarray = field(repr=False)


@dataclass
class CategoryTally:
    flagged: np.ndarray
    total: np.ndarray
    decision: np.ndarray


@dataclass
class EnsembleReport:
    timestamps: np.ndarray
    categories: dict[str, CategoryTally]
    alarm: np.ndarray
    flagging_detectors: list[list[str]]
    warnings: list[str] = field(default_factory=list)

    def categories_at(self, i: int) -> dict:
        """The category tallies of record ``i``, as records carry them."""
        return {
            name: {
                "flagged": int(tally.flagged[i]),
                "total": int(tally.total[i]),
                "decision": bool(tally.decision[i]),
            }
            for name, tally in self.categories.items()
        }


@dataclass(frozen=True)
class FittedDetector:
    detector_id: str
    kind: str
    category: DetectorCategory
    group: str
    payload: dict = field(repr=False)


def _detector_seed(config_seed: int, kind: str, group: str) -> int:
    return (config_seed * 1_000_003 + zlib.crc32(f"{kind}:{group}".encode())) % 2**31


def build_grids(transactions, config: EngineConfig) -> dict[str, TimeSeries]:
    """Per-feature time-domain grids on a common timeline."""
    grids = {}
    for name in config.features:
        sampled = merge_cooccurring(to_feature_series(transactions, FeatureKind(name)))
        grids[name] = resample(sampled, config.grid_step)
    spans = {(g.timestamps[0], g.timestamps[-1]) for g in grids.values()}
    if len(spans) != 1:
        raise DataError("feature grids must share a timeline")
    return grids


def _window_matrix(values: np.ndarray, w: int, first: int) -> tuple[np.ndarray, np.ndarray]:
    """(matrix of flattened windows, start indices) for the ``w``-cell
    windows that start at or after ``first``, one starting at each cell.

    ``values`` may be a 1-D series or an (n, d) row matrix; a window of
    d-column rows flattens to a w*d vector. The windows are laid out in
    C order from a ``sliding_window_view`` of ``values[first:]``.
    """
    n = len(values)
    width = w * (values.shape[1] if values.ndim == 2 else 1)
    if n - first < w:
        return np.empty((0, width)), np.empty(0, dtype=int)
    view = sliding_window_view(values[first:], w, axis=0)
    if values.ndim == 2:
        view = view.transpose(0, 2, 1)  # (start, cell, column): rows stay row-major
    return np.ascontiguousarray(view).reshape(len(view), width), np.arange(first, n - w + 1)


@dataclass(frozen=True, eq=False)
class WindowFrame:
    """The windows that the row kinds of one group share: a window of
    ``cells`` cells ending at every cell, standardized by the column
    ``mean`` and ``std`` of the training windows, so a cell's window
    vote is a box sum (``_window_point_flags``). Frames compare by
    identity, so a detector kept from an earlier fit scores with its
    own frame, not with the one its group was refitted on."""

    cells: int
    mean: np.ndarray = field(repr=False)
    std: np.ndarray = field(repr=False)

    @classmethod
    def fit(cls, values: np.ndarray, cells: int) -> tuple[WindowFrame, np.ndarray]:
        """The frame fitted on every window of ``values``, with those
        windows standardized as read-only rows."""
        matrix, _ = _window_matrix(values, cells, 0)
        if len(matrix) < 10:
            raise FitError("too few windows")
        rows, mean, std = standardize(matrix)
        rows.flags.writeable = False
        return cls(cells, mean, std), rows

    def windows(self, values: np.ndarray, start: int) -> tuple[np.ndarray, int]:
        """(rows, cells): the standardized read-only rows of the windows
        that cover a cell of [start, n), in start order, and the number
        n - start of those cells. Only these windows are built."""
        w = self.cells
        matrix, _ = _window_matrix(values, w, max(0, start - w + 1))
        rows = (matrix - self.mean) / self.std
        rows.flags.writeable = False
        return rows, len(values) - start


def _subsample_rows(matrix: np.ndarray, cap: int, seed: int) -> np.ndarray:
    if len(matrix) <= cap:
        return matrix
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(len(matrix), size=cap, replace=False))
    return matrix[idx]


# ---------------------------------------------------------------------------
# detector kinds


def _resolve_period(train: np.ndarray, config: EngineConfig, cycles: int) -> int:
    """Configured seasonal period, or the ACF estimate with a one-day
    fallback when nothing significant shows up; capped so that
    ``train`` spans ``cycles`` periods (but at least 2)."""
    period = config.sarima_period
    if period == 0:
        try:
            period = estimate_period(train)
        except DataError:
            period = 0
        if period < 2:
            period = 86400 // config.grid_step
    return min(period, max(2, len(train) // cycles))


def _fit_arima(train, config, seasonal=None):
    model = predictive.arima_fit(train, predictive.ArimaOrder(*config.arima_order, seasonal))
    return {"model": model, "rms": model.residual_rms}


def _score_arima(payload, values, start, state):
    """In a stream, ``state`` keeps the carry of a model whose residual
    recursion contracts, and the next tick continues the recursion over
    its own cells; any other model runs it over the whole database."""
    model = payload["model"]
    carry = state.get("carry")
    with np.errstate(over="ignore", invalid="ignore"):
        residuals, offset, carry = predictive.arima_residuals(model, values, start, carry)
    if model.recursion_contracts:
        state["carry"] = carry
    first = max(start, offset)
    return first, np.abs(residuals[first - offset :])


def _fit_stl(train, config, seed):
    period = _resolve_period(train, config, 2)
    return {"period": period, "rms": rms(predictive.stl_decompose(train, period).residual)}


def _score_stl(payload, values, start, state):
    """In a stream, ``state`` keeps the centred moving average of the
    database and the database length it came from. The next tick drops
    the outputs of the evicted cells and convolves only the windows that
    reach a new cell; the phase means still see every cell."""
    period = payload["period"]
    n = len(values)
    if n < 2 * period:
        return n, np.empty(0)
    taps = predictive.trend_taps(period)
    tail = start - len(taps) + 1  # the first window that reaches a new cell
    kept = state.get("stl")
    if kept is not None and 0 <= tail and start < n:
        average, length = kept
        evicted = length - start
        average = np.concatenate((average[evicted:], np.convolve(values[tail:], taps, "valid")))
    else:
        average = np.convolve(values, taps, "valid")
    state["stl"] = (average, n)
    return start, np.abs(predictive.stl_decompose(values, period, average).residual[start:])


def _knn_nearest(dist, counts, k, own=None):
    """The contexts that hold the k nearest pairs of each query row, as
    (indices, weights) in ascending (distance, context) order. A context
    nearer than the k-th pair weighs 1; the contexts at its distance
    share the remaining places in proportion to their pair counts, which
    is the expected take under random tie-breaking; padding weighs 0.

    ``dist`` holds the squared distances to the contexts, whose pair
    counts are ``counts``. In the fit, ``own`` is each query's own
    context, which the caller puts at distance 0 and which has lost one
    pair.
    """
    # the contexts up to the k-th pair, and one more to see whether its tie goes on
    width = k + 1 + (own is not None)
    while True:
        idx, near = kernels.nearest(dist, min(width, dist.shape[1]))
        c = counts[idx]
        if own is not None:
            c -= idx == own[:, None]
        kth = near[np.arange(len(near)), (c.cumsum(axis=1) < k).sum(axis=1), None]
        kept = near <= kth
        spill = kept[:, -1]
        if width >= dist.shape[1] or not spill.any():
            break
        # contexts tied at the k-th distance lie beyond the selection
        width = int((dist[spill] <= kth[spill]).sum(axis=1).max()) + 1
    nearer = near < kth
    taken = (c * nearer).sum(axis=1)
    share = (k - taken) / ((c * kept).sum(axis=1) - taken)
    return idx, np.where(nearer, 1.0, np.where(kept, share[:, None], 0.0))


def _knn_forecast(sums: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """The weighted target sums of the selected contexts, added one
    context at a time in column order, over k."""
    return (sums * weights).cumsum(axis=1)[:, -1] / k


def _knn_fit_pairs(X: np.ndarray, y: np.ndarray, k: int) -> tuple[dict, np.ndarray]:
    """The kNN payload of the lag pairs (X, y), and each pair's
    leave-self-out forecast. The payload holds the distinct lag
    ``contexts``, whose counts are the pairs that share each one, and
    the ``sums`` of their targets. The queries are the contexts, so the
    fit costs the square of the distinct contexts, not of the pairs, and
    each pair's forecast is its context's with the pair left out."""
    contexts = kernels.DistinctRows.of(X)
    inverse = contexts.inverse
    sums = np.bincount(inverse, weights=y, minlength=len(contexts.rows))
    # the pairs grouped by context: a block of contexts forecasts a run of them
    by_context = np.argsort(inverse, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(contexts.counts)))

    def predict(block, lo):
        # leave-self-out, else in-sample RMS degenerates to 0: a pair's
        # own context, at distance 0, loses the pair and its target
        own = np.arange(lo, lo + len(block))
        dist = kernels.sq_dists(block, contexts.rows, contexts.sq)
        dist[own - lo, own] = 0.0
        idx, weights = _knn_nearest(dist, contexts.counts, k, own)
        pairs = by_context[bounds[lo] : bounds[lo + len(block)]]
        rows = inverse[pairs] - lo
        idx = idx[rows]
        held = sums[idx]
        held[idx == inverse[pairs, None]] -= y[pairs]
        return _knn_forecast(held, weights[rows], k)

    preds = np.empty(len(y))
    preds[by_context] = kernels.by_row_blocks(predict, contexts.rows, len(contexts.rows))
    return {"contexts": contexts, "sums": sums, "k": k}, preds


def _fit_knn(train, config, seed):
    lags, k = config.knn_lags, config.knn_k
    X, y = predictive._lag_pairs(train, lags)
    if k >= len(X):
        raise FitError("not enough training pairs for k-NN")
    payload, preds = _knn_fit_pairs(X, y, k)
    return payload | {"lags": lags, "rms": rms(y - preds)}


def _knn_predictions(payload, X):
    contexts, k = payload["contexts"], payload["k"]

    def predict(block, lo):
        dist = kernels.sq_dists(block, contexts.rows, contexts.sq)
        idx, weights = _knn_nearest(dist, contexts.counts, k)
        return _knn_forecast(payload["sums"][idx], weights, k)

    return kernels.by_row_blocks(predict, X, len(contexts.rows))


def _holdout_rms(X, y, model, predict, fit_head) -> float:
    """Noise level of a lag-vector forecaster from a chronological
    holdout: ``fit_head(cut)`` refits on the first 75% of the lag pairs
    and predicts the rest, since in-sample residuals of a flexible model
    underestimate the noise. Without a holdout, or when ``fit_head``
    returns None, the in-sample residuals of ``model``."""
    cut = max(1, int(round(0.75 * len(X))))
    held = fit_head(cut) if cut < len(X) else None
    if held is None:
        return rms(y - predict(model, X))
    return rms(y[cut:] - predict(held, X[cut:]))


def _fit_cart(train, config, seed):
    lags, depth, min_leaf = config.cart_lags, config.cart_depth, config.cart_min_leaf
    X, y = predictive._lag_pairs(train, lags)
    model = predictive.cart_fit(X, y, depth, min_leaf)

    def fit_head(cut):
        return predictive.cart_fit(X[:cut], y[:cut], depth, min_leaf)

    noise = _holdout_rms(X, y, model, predictive.cart_predict, fit_head)
    return {"model": model, "lags": lags, "rms": noise}


def _fit_kridge(train, config, seed):
    lags = config.kridge_lags
    X, y = predictive._lag_pairs(train, lags)
    keep = _subsample_rows(np.arange(len(X))[:, None], config.fit_subsample, seed).ravel()

    def fit(rows):
        return kernels.kernel_ridge_fit(X[rows], y[rows], config.kridge_lambda)

    def fit_head(cut):
        head = keep[keep < cut]
        return fit(head) if len(head) >= 2 else None

    model = fit(keep)
    noise = _holdout_rms(X, y, model, kernels.kernel_ridge_predict, fit_head)
    return {"model": model, "lags": lags, "rms": noise}


def _lag_scorer(predict):
    """Score of a lag-vector forecaster: the absolute residuals of its
    one-step forecasts ``predict(payload, contexts)`` from cell
    max(start, lags)."""

    def score(payload, values, start, state):
        lags = payload["lags"]
        first = max(start, lags)
        if first >= len(values):
            return len(values), np.empty(0)
        contexts, actuals = predictive._lag_pairs(values[first - lags :], lags)
        return first, np.abs(actuals - predict(payload, contexts))

    return score


def _fit_kmeans(rows, config, seed):
    k = config.kmeans_k
    if k == 0:
        k = clustering.select_k(rows, 2, config.kmeans_k_max, seed, config.kmeans_restarts)
    model = clustering.kmeans_fit(rows, k, seed=seed, restarts=config.kmeans_restarts)
    return {"model": model, "threshold": model.train_distance_quantile}


def _fit_dbscan(rows, config, seed):
    eps = config.dbscan_eps
    reference = kernels.DistinctRows.of(_subsample_rows(rows, config.boundary_subsample, seed))
    if eps == 0.0:
        # the k-distance quantile anchors the elbow from below; scale
        # it up so ~5% of the training rows don't flag by construction
        eps = config.dbscan_eps_scale * clustering._k_distance_quantile(
            reference, max(1, config.dbscan_min_pts - 1)
        )
    if eps <= 0.0:
        eps = 1e-9
    return {"reference": reference, "eps": eps, "min_pts": config.dbscan_min_pts, "threshold": 0}


def _score_dbscan(payload, rows):
    # density rule against the reference database: a row is noise when
    # it lacks neighbours within eps (itself included) to reach min_pts.
    # The reference rows are distinct: each counts once, and a repeated
    # one adds its further copies
    reference = payload["reference"]
    repeated = np.flatnonzero(reference.counts > 1)

    def neighbours(block, lo):
        sq = kernels.sq_dists(block, reference.rows, reference.sq)
        within = sq <= payload["eps"] ** 2
        return within.sum(axis=1) + within[:, repeated] @ (reference.counts[repeated] - 1)

    return payload["min_pts"] - 1 - kernels.by_row_blocks(
        neighbours, rows, len(reference.rows)
    )


def _fit_ocsvm(rows, config, seed):
    train = _subsample_rows(rows, config.boundary_subsample, seed)
    nu = max(config.ocsvm_nu, 1.0 / len(train))
    return {"model": kernels.one_class_fit(train, nu), "threshold": 0.0}


def _fit_pca(rows, config, seed):
    """A PCA whose threshold is mean + residual_multiplier * std of its
    scores on the training rows."""
    model = reduction.pca_fit(rows, config.pca_explained)
    scores = reduction.pca_score(model, rows)
    threshold = reduction.score_threshold(scores, config.residual_multiplier)
    return {"model": model, "threshold": threshold}


def _fit_iforest(rows, config, seed):
    model = reduction.iforest_fit(rows, config.iforest_trees, config.iforest_subsample, seed)
    return {"model": model, "threshold": config.iforest_cutoff}


def _fit_ae(rows, config, seed):
    model = reduction.ae_train(rows, config.ae_hidden, config.ae_epochs, config.ae_learning_rate)
    # mean + residual_multiplier * std of the errors the fit already computed
    threshold = model.training_error_mean + config.residual_multiplier * model.training_error_std
    return {"model": model, "threshold": threshold}


@dataclass(frozen=True)
class DetectorKind:
    """How one detector kind is fitted and scored.

    A kind's scores are raw, higher meaning more anomalous, and its
    fitted payload holds the ``threshold`` that ``_flags`` compares
    them with. A predictive kind fits on a training series, ``fit(train,
    config, seed) -> payload`` with the training residual ``rms``, whose
    ``residual_multiplier`` multiple is its threshold; ``score(payload,
    values, start, state)`` returns ``(first, scores)``, the absolute
    one-step residuals of cells [first, n), where first >= start.
    ``state`` is a dict the kind may keep across the ticks of one
    stream, emptied when the bank is refitted, and a fresh one per
    detector in batch: ARIMA and SARIMA keep the ``carry`` of a
    contracting residual recursion, STL the centred moving average of
    the database and its length, so that an ordinary tick computes only
    what its new cells change. A row
    kind fits and scores the standardized rows of a shared
    ``WindowFrame``, ``fit(rows, config, seed) -> payload`` and
    ``score(payload, rows)``; the rows are read-only. Its windows are
    of ``window(config)`` cells of the groups that
    ``EngineConfig.group_kinds()`` wires it to. The row kinds of one
    group and window length share one frame, held in each payload as
    ``frame``: its windows are built and standardized once per fit and
    once per scoring call. The functions look library code up when
    called, so a wrapper set on a module attribute sees every call.
    """

    fit: Callable
    score: Callable
    window: Callable[[EngineConfig], int] = lambda c: c.window_duration // c.grid_step


DETECTOR_KINDS = {
    "arima": DetectorKind(lambda train, config, seed: _fit_arima(train, config), _score_arima),
    "sarima": DetectorKind(
        lambda train, config, seed: _fit_arima(
            train, config, (1, 0, 1, _resolve_period(train, config, 3))
        ),
        _score_arima,
    ),
    "stl": DetectorKind(_fit_stl, _score_stl),
    "knn": DetectorKind(_fit_knn, _lag_scorer(_knn_predictions)),
    "cart": DetectorKind(
        _fit_cart, _lag_scorer(lambda p, X: predictive.cart_predict(p["model"], X))
    ),
    "kridge": DetectorKind(
        _fit_kridge, _lag_scorer(lambda p, X: kernels.kernel_ridge_predict(p["model"], X))
    ),
    "pca": DetectorKind(_fit_pca, lambda p, rows: reduction.pca_score(p["model"], rows)),
    "iforest": DetectorKind(
        _fit_iforest, lambda p, rows: reduction.iforest_score(p["model"], rows)
    ),
    "ae": DetectorKind(
        _fit_ae,
        lambda p, rows: reduction.ae_score(p["model"], rows),
        window=lambda config: config.ae_window,
    ),
    "kmeans": DetectorKind(_fit_kmeans, lambda p, rows: clustering.kmeans_score(p["model"], rows)),
    "dbscan": DetectorKind(_fit_dbscan, _score_dbscan),
    "ocsvm": DetectorKind(
        _fit_ocsvm, lambda p, rows: -kernels.one_class_decision(p["model"], rows)
    ),
}

KIND_CATEGORY = (
    dict.fromkeys(PREDICTIVE_KINDS, DetectorCategory.PREDICTIVE)
    | dict.fromkeys(REDUCTION_KINDS, DetectorCategory.REDUCTION)
    | dict.fromkeys(CLUSTERING_KINDS, DetectorCategory.CLUSTERING)
)


# ---------------------------------------------------------------------------
# fitting


def _fit_predictive(kind: str, train: np.ndarray, config: EngineConfig, seed: int) -> dict:
    payload = DETECTOR_KINDS[kind].fit(train, config, seed)
    return payload | {"threshold": config.residual_multiplier * payload["rms"]}


def _fit_row_detector(kind: str, rows: np.ndarray, config: EngineConfig, seed: int) -> dict:
    """Fit a row detector on its frame's standardized training rows."""
    return DETECTOR_KINDS[kind].fit(rows, config, seed)


def _flags(scores: np.ndarray, payload: dict) -> np.ndarray:
    """The flag rule of every detector: its score exceeds its threshold."""
    return scores > payload["threshold"]


def _score_rows(kind: str, payload: dict, rows: np.ndarray) -> np.ndarray:
    """Boolean flag per standardized row for a fitted row detector."""
    return _flags(DETECTOR_KINDS[kind].score(payload, rows), payload)


def _groups(
    grids: dict[str, TimeSeries], config: EngineConfig
) -> list[tuple[str, np.ndarray, tuple[str, ...]]]:
    """The bank's groups as (name, values, kinds), in bank order: each
    feature's grid, then the per-cell feature rows as ``MULTI_GROUP``,
    each with the kinds ``config.group_kinds()`` wires there. A group
    with no kinds is left out."""
    grid_kinds, multi_kinds = config.group_kinds()
    groups = [(name, grid.values, grid_kinds) for name, grid in grids.items() if grid_kinds]
    if multi_kinds:
        rows = np.column_stack([grids[name].values for name in config.features])
        groups.append((MULTI_GROUP, rows, multi_kinds))
    return groups


def fit_bank(
    grids: dict[str, TimeSeries],
    config: EngineConfig,
    predictive_train_cells: int | None = None,
    previous: list[FittedDetector] | None = None,
) -> tuple[list[FittedDetector], list[str]]:
    """Fit every configured detector on every applicable group.

    ``predictive_train_cells`` limits the predictive fits to a
    chronological prefix (batch mode); None trains on everything
    (streaming retrain). Per-detector failures become warnings, not
    errors; a detector that fails keeps its model from ``previous``,
    if it has one there, at its place in the bank. A bank left empty
    raises ``FitError``.
    """
    detectors: list[FittedDetector] = []
    warnings: list[str] = []
    kept = {det.detector_id: det for det in previous or ()}
    for group, values, kinds in _groups(grids, config):
        train = values if predictive_train_cells is None else values[:predictive_train_cells]
        # the group's frames with their training rows, by window length; a
        # frame that fails is not kept, so each kind that shares it reports
        frames = {}

        def fit(kind, seed):
            if KIND_CATEGORY[kind] is DetectorCategory.PREDICTIVE:
                return _fit_predictive(kind, train, config, seed)
            w = DETECTOR_KINDS[kind].window(config)
            if w not in frames:
                frames[w] = WindowFrame.fit(values, w)
            frame, rows = frames[w]
            return {"frame": frame, **_fit_row_detector(kind, rows, config, seed)}

        for kind in kinds:
            detector_id = f"{kind}:{group}"
            try:
                payload = fit(kind, _detector_seed(config.seed, kind, group))
            except (DataError, FitError, NumericError) as exc:
                warnings.append(f"{detector_id}: fit failed: {exc}")
                if detector_id in kept:
                    detectors.append(kept[detector_id])
                continue
            detectors.append(FittedDetector(detector_id, kind, KIND_CATEGORY[kind], group, payload))
    if not detectors:
        raise FitError(f"every detector failed to fit: {warnings}")
    return detectors, warnings


# ---------------------------------------------------------------------------
# scoring


def _predictive_point_flags(
    det: FittedDetector, values: np.ndarray, start: int, state: dict
) -> np.ndarray:
    """Flags for cells [start, n) from a fitted predictive detector;
    ``state`` is the detector's state (``DetectorKind``)."""
    first, scores = DETECTOR_KINDS[det.kind].score(det.payload, values, start, state)
    flags = np.zeros(len(values) - start, dtype=bool)
    flags[first - start :] = _flags(scores, det.payload)
    return flags


def _window_point_flags(det: FittedDetector, windows: tuple, vote: str) -> np.ndarray:
    """Flags for the scored cells of ``windows``, as its frame's
    ``windows`` gives them. A window votes +1 if flagged, else 0, -1 or
    -w under "any", "majority" and "all", and a cell flags when the box
    sum of the votes of the w windows covering it is above 0: one -w
    outweighs up to w - 1 flagged windows, and an uncovered cell sums
    to 0."""
    rows, cells = windows
    if len(rows) == 0:
        return np.zeros(cells, dtype=bool)
    w = det.payload["frame"].cells
    unflagged = {"any": 0, "majority": -1, "all": -w}[vote]
    votes = np.where(_score_rows(det.kind, det.payload, rows), 1, unflagged)
    # entry i sums the votes covering the i-th cell from the first window's start
    sums = np.correlate(votes, np.ones(w, dtype=int), "full")
    return sums[len(sums) - cells :] > 0


def score_bank(
    detectors: list[FittedDetector],
    grids: dict[str, TimeSeries],
    config: EngineConfig,
    predictive_start: int,
    unsupervised_start: int = 0,
    carried: dict | None = None,
) -> dict[str, list[DetectorVerdict]]:
    """Score every fitted detector; returns verdicts grouped by stream.

    Predictive verdicts cover cells [predictive_start, n); all other
    banks cover [unsupervised_start, n). ``carried`` holds a stream's
    per-detector predictive states by detector id, and is updated.
    """
    values = {group: rows for group, rows, _ in _groups(grids, config)}
    verdicts: dict[str, list[DetectorVerdict]] = {}
    windows: dict[WindowFrame, tuple] = {}  # built once per frame
    for det in detectors:
        if det.category is DetectorCategory.PREDICTIVE:
            state = {} if carried is None else carried.setdefault(det.detector_id, {})
            flags = _predictive_point_flags(det, values[det.group], predictive_start, state)
        else:
            frame = det.payload["frame"]
            if frame not in windows:
                windows[frame] = frame.windows(values[det.group], unsupervised_start)
            flags = _window_point_flags(det, windows[frame], config.window_vote)
        verdicts.setdefault(det.group, []).append(
            DetectorVerdict(det.detector_id, det.category, flags)
        )
    return verdicts


def merge_group_votes(
    group_verdicts: dict[str, list[DetectorVerdict]],
    timeline: np.ndarray,
    alarm_categories: tuple[str, ...] = (),
    warnings: list[str] | None = None,
) -> EnsembleReport:
    """Combine per-group category majorities into one report.

    Each verdict's flags cover the last ``len(flags)`` cells of
    ``timeline``. A category's decision at a point is the OR over groups
    of that group's strict majority; the reported counts come from the
    group with the strongest vote margin there, so decision == (flagged
    > total/2) stays true pointwise.
    """
    n = len(timeline)
    best_margin: dict[str, np.ndarray] = {}
    categories: dict[str, CategoryTally] = {}
    flagging: list[list[str]] = [[] for _ in range(n)]
    for verdicts in group_verdicts.values():
        for cat in DetectorCategory:
            members = [v for v in verdicts if v.category is cat]
            if not members:
                continue
            first = n - len(members[0].flags)
            flagged = np.sum([v.flags.astype(int) for v in members], axis=0)
            total = len(members)
            margin = 2 * flagged - total
            tally = categories.get(cat.value)
            if tally is None:
                tally = CategoryTally(
                    flagged=np.zeros(n, dtype=int),
                    total=np.zeros(n, dtype=int),
                    decision=np.zeros(n, dtype=bool),
                )
                categories[cat.value] = tally
                best_margin[cat.value] = np.full(n, -np.inf)
            seen = best_margin[cat.value][first:]
            better = margin > seen
            tally.flagged[first:][better] = flagged[better]
            tally.total[first:][better] = total
            seen[better] = margin[better]
            tally.decision[first:] |= margin > 0
        for v in verdicts:
            first = n - len(v.flags)
            for i in np.flatnonzero(v.flags):
                flagging[first + i].append(v.detector_id)
    enabled = alarm_categories or tuple(categories.keys())
    alarm = np.zeros(n, dtype=bool)
    for name in enabled:
        if name in categories:
            alarm |= categories[name].decision
    return EnsembleReport(
        timestamps=timeline,
        categories=categories,
        alarm=alarm,
        flagging_detectors=flagging,
        warnings=list(warnings or []),
    )


def batch_grids(transactions, config: EngineConfig) -> dict[str, TimeSeries]:
    """The grids that ``run_batch`` scores: ``build_grids`` of a
    non-empty list of transactions."""
    if not transactions:
        raise DataError("no transactions to analyze")
    return build_grids(transactions, config)


def detect_grids(grids: dict[str, TimeSeries], config: EngineConfig) -> EnsembleReport:
    """Batch detection on built grids: 70/30 chronological split for the
    predictive bank, everything else fits and scores the full span. The
    report's records follow the grids' timeline."""
    n = len(next(iter(grids.values())))
    split = int(round(config.train_ratio * n))
    split = min(max(split, 1), n - 1) if n > 1 else 1
    detectors, warnings = fit_bank(grids, config, predictive_train_cells=split)
    verdicts = score_bank(detectors, grids, config, predictive_start=split)
    timeline = next(iter(grids.values())).timestamps
    return merge_group_votes(verdicts, timeline, config.alarm_categories, warnings)


def run_batch(transactions, config: EngineConfig) -> EnsembleReport:
    """``detect_grids`` of ``batch_grids(transactions, config)``."""
    return detect_grids(batch_grids(transactions, config), config)


# ---------------------------------------------------------------------------
# streaming


@dataclass
class Alarm:
    timestamp: int
    account: str
    categories: dict
    detectors: list[str]
    gap_notice: bool = False


@dataclass
class StreamEngine:
    """Rolling state: reference grids, fitted models, retrain clock, and
    the predictive detectors' states carried from tick to tick."""

    config: EngineConfig
    account: str
    grids: dict[str, TimeSeries]
    detectors: list[FittedDetector]
    warnings: list[str]
    last_retrain: int
    carried: dict = field(default_factory=dict)


def engine_from_grids(
    grids: dict[str, TimeSeries], config: EngineConfig, account: str = ""
) -> StreamEngine:
    grids = _evict(dict(grids), config)
    detectors, warnings = fit_bank(grids, config, predictive_train_cells=None)
    now = int(next(iter(grids.values())).timestamps[-1])
    return StreamEngine(
        config=config,
        account=account,
        grids=grids,
        detectors=detectors,
        warnings=warnings,
        last_retrain=now,
    )


def _evict(grids: dict[str, TimeSeries], config: EngineConfig) -> dict[str, TimeSeries]:
    keep = config.database_span // config.grid_step
    out = {}
    for name, grid in grids.items():
        if len(grid) > keep:
            out[name] = TimeSeries(
                grid.timestamps[-keep:], grid.values[-keep:], step=grid.step
            )
        else:
            out[name] = grid
    return out


def retrain(engine: StreamEngine) -> None:
    """Refit every detector on the current reference database. A
    detector whose refit fails keeps its previous model, and the
    failure is added to the engine's warnings."""
    if not engine.grids or len(next(iter(engine.grids.values()))) == 0:
        raise DataError("cannot retrain on an empty database")
    now = int(next(iter(engine.grids.values())).timestamps[-1])
    engine.detectors, warnings = fit_bank(
        engine.grids, engine.config, predictive_train_cells=None, previous=engine.detectors
    )
    engine.warnings.extend(f"retrain at {now}: {warning}" for warning in warnings)
    engine.last_retrain = now
    engine.carried = {}


def stream_advance(engine: StreamEngine, new_points: dict[str, TimeSeries]) -> list[Alarm]:
    """Append new grid cells, score them, and emit alarms for newly
    flagged points. Gaps are zero-filled with a notice; a retrain fires
    when the interval has elapsed."""
    config = engine.config
    step = config.grid_step
    if any(len(new_points.get(name, ())) == 0 for name in config.features):
        raise DataError("an advance must carry at least one cell per feature")
    gap = False
    appended = None
    grids = {}
    for name in config.features:
        grid = engine.grids[name]
        incoming = new_points[name]
        if incoming.step is not None and incoming.step != step:
            raise DataError("incoming points must be on the engine grid")
        expected = int(grid.timestamps[-1]) + step
        first = int(incoming.timestamps[0])
        if first < expected or (first - expected) % step != 0:
            raise DataError("incoming points must be contiguous with the grid")
        pad = (first - expected) // step
        if pad > 0:
            gap = True
        pad_ts = expected + step * np.arange(pad, dtype=np.int64)
        ts = np.concatenate([grid.timestamps, pad_ts, incoming.timestamps])
        vals = np.concatenate([grid.values, np.zeros(pad), incoming.values])
        grids[name] = TimeSeries(ts, vals, step=step)
        count = pad + len(incoming)
        if appended is None:
            appended = count
        elif appended != count:
            raise DataError("features must advance by the same number of cells")
    engine.grids = _evict(engine.grids | grids, config)
    now = int(next(iter(engine.grids.values())).timestamps[-1])
    if now - engine.last_retrain >= config.retrain_interval:
        retrain(engine)

    n = len(next(iter(engine.grids.values())))
    start = max(0, n - appended)
    # the states stay off the engine until the tick has scored, so a
    # tick that raises leaves none to continue from
    carried, engine.carried = engine.carried, {}
    verdicts = score_bank(
        engine.detectors,
        engine.grids,
        config,
        predictive_start=start,
        unsupervised_start=start,
        carried=carried,
    )
    timeline = next(iter(engine.grids.values())).timestamps
    report = merge_group_votes(verdicts, timeline[start:], config.alarm_categories)
    # every tick scores only cells after the last tick's, so no cell
    # can alarm twice
    alarms = [
        Alarm(
            timestamp=int(report.timestamps[i]),
            account=engine.account,
            categories=report.categories_at(i),
            detectors=report.flagging_detectors[i],
            gap_notice=gap,
        )
        for i in np.flatnonzero(report.alarm)
    ]
    engine.carried = carried
    return alarms
