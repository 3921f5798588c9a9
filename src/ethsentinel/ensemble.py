"""Detector registry, per-category majority voting, and the rolling
streaming engine (5-minute windows against a 4-day reference database).

Wiring: every enabled detector runs once per stream group, where a
group is one feature's univariate grid or the combined per-cell
3-feature rows ("multi"). Votes are strict majorities within a
category per group; a category fires at a point when any of its groups
reaches a majority there, and the final alarm is an OR over the
configured categories.
"""

from __future__ import annotations

import enum
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import clustering, kernels, predictive, reduction
from .config import (
    BOTH,
    CLUSTERING_KINDS,
    MULTIVARIATE,
    PREDICTIVE_KINDS,
    REDUCTION_KINDS,
    UNIVARIATE,
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


class DetectorCategory(enum.Enum):
    PREDICTIVE = "predictive"
    REDUCTION = "reduction"
    CLUSTERING = "clustering"


_FEATURE_BY_NAME = {
    "value": FeatureKind.PAYMENT_AMOUNT,
    "gasprice": FeatureKind.GAS_PRICE,
    "gaslimit": FeatureKind.GAS_LIMIT,
}


@dataclass(frozen=True)
class DetectorVerdict:
    """One detector's per-point flags."""

    detector_id: str
    category: DetectorCategory
    timestamps: np.ndarray = field(repr=False)
    flags: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.flags) != len(self.timestamps):
            raise DataError("flags must cover the verdict's point set")


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

    def alarm_timestamps(self) -> np.ndarray:
        return self.timestamps[self.alarm]

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
        feature = _FEATURE_BY_NAME[name]
        sampled = merge_cooccurring(to_feature_series(transactions, feature))
        grids[name] = resample(sampled, config.grid_step)
    spans = {(g.timestamps[0], g.timestamps[-1]) for g in grids.values()}
    if len(spans) != 1:
        raise DataError("feature grids must share a timeline")
    return grids


def _window_matrix(
    values: np.ndarray, w: int, stride: int, first: int
) -> tuple[np.ndarray, np.ndarray]:
    """(matrix of flattened windows, start indices) for the windows on
    the stride grid that start at or after ``first``.

    ``values`` may be a 1-D series or an (n, d) row matrix; a window of
    d-column rows flattens to a w*d vector. Only the requested windows
    are copied out of a strided view of ``values``.
    """
    n = len(values)
    width = w * (values.shape[1] if values.ndim == 2 else 1)
    starts = np.arange(-(-first // stride) * stride, n - w + 1, stride)
    if len(starts) == 0:
        return np.empty((0, width)), np.empty(0, dtype=int)
    view = sliding_window_view(values, w, axis=0)
    if values.ndim == 2:
        view = view.transpose(0, 2, 1)  # (start, cell, column): rows stay row-major
    return view[starts].reshape(len(starts), width), starts


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
            period = config.fallback_period
    return min(period, max(2, len(train) // cycles))


def _fit_arima(train, config, seasonal=None):
    model = predictive.arima_fit(train, predictive.ArimaOrder(*config.arima_order, seasonal))
    return {"model": model, "rms": model.residual_rms}


def _score_arima(payload, values, start, state):
    """In a stream, ``state`` keeps the carry of a model whose residual
    recursion contracts, and the next tick continues the recursion over
    its own cells; any other model runs it over the whole database."""
    model = payload["model"]
    carry = state.get("carry") if state is not None else None
    with np.errstate(over="ignore", invalid="ignore"):
        residuals, offset, carry = predictive.arima_residuals(model, values, start, carry)
    if state is not None and model.recursion_contracts:
        state["carry"] = carry
    first = max(start, offset)
    return first, np.abs(residuals[first - offset :])


def _fit_stl(train, config, seed):
    period = _resolve_period(train, config, 2)
    return {"period": period, "rms": rms(predictive.stl_decompose(train, period).residual)}


def _score_stl(payload, values, start, state):
    period = payload["period"]
    if len(values) < 2 * period:
        return len(values), np.empty(0)
    return start, np.abs(predictive.stl_decompose(values, period).residual[start:])


def _knn_mean_targets(sq_dists: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """Mean target of the k nearest rows (partial sort; the mean does
    not depend on the order within the selected neighbors)."""
    nearest = np.argpartition(sq_dists, k - 1, axis=1)[:, :k]
    return y[nearest].mean(axis=1)


def _fit_knn(train, config, seed):
    lags, k = config.knn_lags, config.knn_k
    X, y = predictive._lag_pairs(train, lags)
    if k >= len(X):
        raise FitError("not enough training pairs for k-NN")

    def predict(block, lo):
        # leave-self-out residuals, else in-sample RMS degenerates to 0
        dist = kernels.sq_dists(block, X)
        own = np.arange(len(block))
        dist[own, lo + own] = np.inf
        return _knn_mean_targets(dist, y, k)

    preds = kernels.by_row_blocks(predict, X)
    return {"X": X, "y": y, "lags": lags, "k": k, "rms": rms(y - preds)}


def _knn_predictions(payload, contexts):
    def predict(block, lo):
        dist = kernels.sq_dists(block, payload["X"])
        return _knn_mean_targets(dist, payload["y"], payload["k"])

    return kernels.by_row_blocks(predict, contexts)


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


def _cart_predictions(model, X):
    return np.array([predictive.cart_predict(model, row) for row in X])


def _fit_cart(train, config, seed):
    lags, depth, min_leaf = config.cart_lags, config.cart_depth, config.cart_min_leaf
    model = predictive.cart_fit(train, lags, depth, min_leaf)
    X, y = predictive._lag_pairs(train, lags)

    def fit_head(cut):
        return predictive.cart_fit(train[: cut + lags], lags, depth, min_leaf)

    noise = _holdout_rms(X, y, model, _cart_predictions, fit_head)
    return {"model": model, "lags": lags, "rms": noise}


def _fit_kridge(train, config, seed):
    lags = config.kridge_lags
    X, y = predictive._lag_pairs(train, lags)
    keep = _subsample_rows(np.arange(len(X))[:, None], config.fit_subsample, seed).ravel()

    def fit(rows):
        return kernels.kernel_ridge_fit(
            X[rows], y[rows], kernels.KernelSpec(), config.kridge_lambda
        )

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
        k = clustering.select_k(rows, 2, config.kmeans_k_max, seed=seed)
    model = clustering.kmeans_fit(rows, k, seed=seed, restarts=config.kmeans_restarts)
    return {"model": model, "threshold": model.train_distance_quantile}


def _fit_dbscan(rows, config, seed):
    eps = config.dbscan_eps
    reference = _subsample_rows(rows, config.boundary_subsample, seed)
    if eps == 0.0:
        # the k-distance quantile anchors the elbow from below; scale
        # it up so ~5% of the training rows don't flag by construction
        eps = config.dbscan_eps_scale * clustering.estimate_eps(
            reference, max(1, config.dbscan_min_pts - 1)
        )
    if eps <= 0.0:
        eps = 1e-9
    return {"reference": reference, "eps": eps, "min_pts": config.dbscan_min_pts, "threshold": 0}


def _score_dbscan(payload, rows):
    # density rule against the reference database: a row is noise when
    # it lacks neighbours within eps (itself included) to reach min_pts
    def neighbours(block, lo):
        sq = kernels.sq_dists(block, payload["reference"])
        return np.sum(sq <= payload["eps"] ** 2, axis=1)

    return payload["min_pts"] - 1 - kernels.by_row_blocks(neighbours, rows)


def _fit_ocsvm(rows, config, seed):
    train = _subsample_rows(rows, config.boundary_subsample, seed)
    nu = max(config.ocsvm_nu, 1.0 / len(train))
    return {"model": kernels.one_class_fit(train, kernels.KernelSpec(), nu), "threshold": 0.0}


def _thresholded(model, score, rows, config):
    """A model whose threshold is mean + residual_multiplier * std of
    its scores on the training rows."""
    threshold = reduction.score_threshold(score(model, rows), config.residual_multiplier)
    return {"model": model, "threshold": threshold}


def _fit_iforest(rows, config, seed):
    model = reduction.iforest_fit(rows, config.iforest_trees, config.iforest_subsample, seed)
    return {"model": model, "threshold": config.iforest_cutoff}


def _fit_ae(rows, config, seed):
    model = reduction.ae_train(
        rows, config.ae_hidden, config.ae_epochs, config.ae_learning_rate, seed=seed
    )
    return _thresholded(model, reduction.ae_score, rows, config)


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
    stream, emptied when the bank is refitted, or None in batch. A row
    kind fits on standardized rows, ``fit(rows, config, seed) ->
    payload``, and scores standardized rows, ``score(payload, rows)``;
    its rows are the windows of ``window(config)`` cells of each feature
    and, with ``multi``, of the per-cell feature rows. The functions
    look library code up when called, so a wrapper set on a module
    attribute sees every call.
    """

    fit: Callable
    score: Callable
    window: Callable[[EngineConfig], int] = lambda c: c.window_duration // c.grid_step
    multi: bool = True


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
    "cart": DetectorKind(_fit_cart, _lag_scorer(lambda p, X: _cart_predictions(p["model"], X))),
    "kridge": DetectorKind(
        _fit_kridge, _lag_scorer(lambda p, X: kernels.kernel_ridge_predict(p["model"], X))
    ),
    "pca": DetectorKind(
        lambda rows, config, seed: _thresholded(
            reduction.pca_fit(rows, config.pca_explained), reduction.pca_score, rows, config
        ),
        lambda p, rows: reduction.pca_score(p["model"], rows),
    ),
    "iforest": DetectorKind(
        _fit_iforest, lambda p, rows: reduction.iforest_score(p["model"], rows)
    ),
    # the autoencoder is wired univariate, on its own window length
    "ae": DetectorKind(
        _fit_ae,
        lambda p, rows: reduction.ae_score(p["model"], rows),
        window=lambda config: config.ae_window,
        multi=False,
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
    """Fit a window/row detector on standardized training rows."""
    std_rows, mean, std = standardize(rows)
    return {"mean": mean, "std": std, **DETECTOR_KINDS[kind].fit(std_rows, config, seed)}


def _flags(scores: np.ndarray, payload: dict) -> np.ndarray:
    """The flag rule of every detector: its score exceeds its threshold."""
    return scores > payload["threshold"]


def _score_rows(kind: str, payload: dict, rows: np.ndarray) -> np.ndarray:
    """Boolean flag per row for a fitted window/row detector."""
    std_rows = (rows - payload["mean"]) / payload["std"]
    return _flags(DETECTOR_KINDS[kind].score(payload, std_rows), payload)


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
    if it has one there, at its place in the bank.
    """
    detectors: list[FittedDetector] = []
    warnings: list[str] = []
    kept = {det.detector_id: det for det in previous or ()}
    s_cells = config.window_stride // config.grid_step

    def add(kind, group, fit):
        detector_id = f"{kind}:{group}"
        try:
            payload = fit(_detector_seed(config.seed, kind, group))
        except (DataError, FitError, NumericError) as exc:
            warnings.append(f"{detector_id}: fit failed: {exc}")
            if detector_id in kept:
                detectors.append(kept[detector_id])
            return
        detectors.append(FittedDetector(detector_id, kind, KIND_CATEGORY[kind], group, payload))

    def fit_windows(kind, matrix, w, seed):
        if len(matrix) < 10:
            raise FitError("too few windows")
        payload = _fit_row_detector(kind, matrix, config, seed)
        return payload | {"window_cells": w, "stride_cells": s_cells}

    def fit_row_kinds(group, values, kinds):
        matrices = {}  # training windows by window length
        for kind in kinds:
            w = DETECTOR_KINDS[kind].window(config)
            if w not in matrices:
                matrices[w], _ = _window_matrix(values, w, s_cells, 0)
            add(kind, group, lambda seed: fit_windows(kind, matrices[w], w, seed))

    row_kinds = (*config.clustering_detectors, *config.reduction_detectors)
    univariate = config.mode in (UNIVARIATE, BOTH)
    multivariate = config.mode in (MULTIVARIATE, BOTH)

    if univariate:
        for name, grid in grids.items():
            values = grid.values
            train = values if predictive_train_cells is None else values[:predictive_train_cells]
            for kind in config.predictive_detectors:
                add(kind, name, lambda seed: _fit_predictive(kind, train, config, seed))
            fit_row_kinds(name, values, row_kinds)

    if multivariate and len(config.features) > 1:
        rows = np.column_stack([grids[name].values for name in config.features])
        multi_kinds = [kind for kind in row_kinds if DETECTOR_KINDS[kind].multi]
        fit_row_kinds(MULTI_GROUP, rows, multi_kinds)
    return detectors, warnings


# ---------------------------------------------------------------------------
# scoring


def _predictive_point_flags(
    det: FittedDetector, values: np.ndarray, start: int, state: dict | None = None
) -> np.ndarray:
    """Flags for cells [start, n) from a fitted predictive detector;
    ``state`` is the detector's stream state, if any."""
    first, scores = DETECTOR_KINDS[det.kind].score(det.payload, values, start, state)
    flags = np.zeros(len(values) - start, dtype=bool)
    flags[first - start :] = _flags(scores, det.payload)
    return flags


def _window_point_flags(
    det: FittedDetector, values: np.ndarray, start: int, vote: str
) -> np.ndarray:
    """Flags for cells [start, n) by voting over the windows covering
    each point: "any" / "majority" (strict) / "all" flagged windows.
    Only windows that cover a cell of [start, n) are built and scored."""
    n = len(values)
    w = det.payload["window_cells"]
    stride = det.payload["stride_cells"]
    matrix, starts = _window_matrix(values, w, stride, max(0, start - w + 1))
    if len(starts) == 0:
        return np.zeros(n - start, dtype=bool)
    window_flags = _score_rows(det.kind, det.payload, matrix)
    # each window covers cells [lo, hi) of the scored range: +1 at lo,
    # -1 at hi, and a running sum gives the per-cell counts
    lo = np.maximum(starts, start) - start
    hi = starts + w - start
    covering = np.zeros(n - start + 1, dtype=int)
    flagged = np.zeros(n - start + 1, dtype=int)
    np.add.at(covering, lo, 1)
    np.add.at(covering, hi, -1)
    np.add.at(flagged, lo[window_flags], 1)
    np.add.at(flagged, hi[window_flags], -1)
    covering = np.cumsum(covering[:-1])
    flagged = np.cumsum(flagged[:-1])
    if vote == "any":
        return flagged > 0
    if vote == "all":
        return (covering > 0) & (flagged == covering)
    return flagged * 2 > covering


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
    timeline = next(iter(grids.values())).timestamps
    n = len(timeline)
    multi_rows = None
    if any(det.group == MULTI_GROUP for det in detectors):
        multi_rows = np.column_stack([grids[name].values for name in config.features])
    verdicts: dict[str, list[DetectorVerdict]] = {}
    for det in detectors:
        if det.category is DetectorCategory.PREDICTIVE:
            start = predictive_start
            state = None if carried is None else carried.setdefault(det.detector_id, {})
            flags = _predictive_point_flags(det, grids[det.group].values, start, state)
        else:
            start = unsupervised_start
            values = (
                multi_rows if det.group == MULTI_GROUP else grids[det.group].values
            )
            flags = _window_point_flags(det, values, start, config.window_vote)
        verdicts.setdefault(det.group, []).append(
            DetectorVerdict(
                detector_id=det.detector_id,
                category=det.category,
                timestamps=timeline[start:],
                flags=flags,
            )
        )
    return verdicts


def merge_group_votes(
    group_verdicts: dict[str, list[DetectorVerdict]],
    timeline: np.ndarray,
    alarm_categories: tuple[str, ...] = (),
    warnings: list[str] | None = None,
) -> EnsembleReport:
    """Combine per-group category majorities into one report.

    A category's decision at a point is the OR over groups of that
    group's strict majority; the reported counts come from the group
    with the strongest vote margin there, so decision == (flagged >
    total/2) stays true pointwise.
    """
    n = len(timeline)
    index = {int(t): i for i, t in enumerate(timeline)}
    best_margin: dict[str, np.ndarray] = {}
    categories: dict[str, CategoryTally] = {}
    flagging: list[list[str]] = [[] for _ in range(n)]
    for verdicts in group_verdicts.values():
        for cat in DetectorCategory:
            members = [v for v in verdicts if v.category is cat]
            if not members:
                continue
            ts = members[0].timestamps
            offsets = np.array([index[int(t)] for t in ts])
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
            seen = best_margin[cat.value]
            better = margin > seen[offsets]
            upd = offsets[better]
            tally.flagged[upd] = flagged[better]
            tally.total[upd] = total
            seen[upd] = margin[better]
            tally.decision[offsets] |= margin > 0
        for v in verdicts:
            for t, f in zip(v.timestamps, v.flags):
                if f:
                    flagging[index[int(t)]].append(v.detector_id)
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


def detect_batch(
    transactions, config: EngineConfig
) -> tuple[dict[str, TimeSeries], EnsembleReport]:
    """Batch detection: 70/30 chronological split for the predictive
    bank, everything else fits and scores the full span. Returns the
    grids with the report, whose records follow the grids' timeline."""
    if not (
        config.predictive_detectors
        or config.reduction_detectors
        or config.clustering_detectors
    ):
        raise DataError("config enables no detectors")
    if not transactions:
        raise DataError("no transactions to analyze")
    grids = build_grids(transactions, config)
    n = len(next(iter(grids.values())))
    split = int(round(config.train_ratio * n))
    split = min(max(split, 1), n - 1) if n > 1 else 1
    detectors, warnings = fit_bank(grids, config, predictive_train_cells=split)
    if not detectors:
        raise FitError(f"every detector failed to fit: {warnings}")
    verdicts = score_bank(detectors, grids, config, predictive_start=split)
    timeline = next(iter(grids.values())).timestamps
    return grids, merge_group_votes(verdicts, timeline, config.alarm_categories, warnings)


def run_batch(transactions, config: EngineConfig) -> EnsembleReport:
    """The report of ``detect_batch``."""
    return detect_batch(transactions, config)[1]


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
    alarmed: set = field(default_factory=set)
    carried: dict = field(default_factory=dict)


def engine_from_grids(
    grids: dict[str, TimeSeries], config: EngineConfig, account: str = ""
) -> StreamEngine:
    grids = _evict(dict(grids), config)
    detectors, warnings = fit_bank(grids, config, predictive_train_cells=None)
    if not detectors:
        raise FitError(f"every detector failed to fit: {warnings}")
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
    alarms = []
    for i, t in enumerate(report.timestamps):
        if not report.alarm[i]:
            continue
        t = int(t)
        if t in engine.alarmed:
            continue
        engine.alarmed.add(t)
        alarms.append(
            Alarm(
                timestamp=t,
                account=engine.account,
                categories=report.categories_at(i),
                detectors=report.flagging_detectors[i],
                gap_notice=gap,
            )
        )
    # keep the alarmed-set bounded to the database span
    horizon = now - config.database_span
    engine.alarmed = {t for t in engine.alarmed if t >= horizon}
    engine.carried = carried
    return alarms
