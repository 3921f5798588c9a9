"""Predictive detector bank: S/ARIMA forecasting, seasonal-trend
decomposition, k-NN lag pairs, CART regression, and residual thresholding.

ARMA coefficients follow the sign convention
x_t = c + phi_1 x_{t-1} + ... - theta_1 e_{t-1} - ...  (lagged errors
subtracted). Estimation is Hannan-Rissanen (long-AR residual proxy,
then least squares) followed by one Gauss-Newton pass on the
conditional sum of squares; deterministic, no optimizer dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._hot import css_residuals
from .errors import DataError, FitError, NumericError
from .series import rms


@dataclass(frozen=True)
class ArimaOrder:
    p: int
    d: int
    q: int
    seasonal: tuple[int, int, int, int] | None = None  # (P, D, Q, s)

    def __post_init__(self):
        if min(self.p, self.d, self.q) < 0:
            raise DataError("order components must be non-negative")
        if self.seasonal is None:
            if self.p + self.q < 1 and self.d < 1:
                raise DataError("need p + q >= 1 or d >= 1")
        else:
            P, D, Q, s = self.seasonal
            if s < 2:
                raise DataError("seasonal period must be >= 2")
            if P + Q < 1 and D < 1:
                raise DataError("need P + Q >= 1 or D >= 1 in the seasonal part")

    @property
    def param_count(self) -> int:
        n = self.p + self.q
        if self.seasonal is not None:
            n += self.seasonal[0] + self.seasonal[2]
        return n


@dataclass(frozen=True)
class ArimaModel:
    order: ArimaOrder
    phi: np.ndarray
    theta: np.ndarray
    seasonal_phi: np.ndarray
    seasonal_theta: np.ndarray
    intercept: float
    residual_rms: float

    def __post_init__(self):
        P = Q = 0
        if self.order.seasonal is not None:
            P, _, Q, _ = self.order.seasonal
        if (
            len(self.phi) != self.order.p
            or len(self.theta) != self.order.q
            or len(self.seasonal_phi) != P
            or len(self.seasonal_theta) != Q
        ):
            raise DataError("coefficient lengths do not match the order")

    @property
    def recursion_contracts(self) -> bool:
        """Whether the residual recursion forgets where it started: its
        additive MA part contracts, sum |theta_i| + sum |Theta_j| < 1 (a
        sufficient condition for invertibility; Box & Jenkins 1970).
        Otherwise a recursion run on without restarts can grow without
        bound."""
        return float(np.abs(self.theta).sum() + np.abs(self.seasonal_theta).sum()) < 1.0


@dataclass(frozen=True)
class CssCarry:
    """Where a model's residual recursion over a series ended: its last
    ``_recursion_start(order)`` differenced values and residuals, from
    which it continues over cells appended to the series."""

    w: np.ndarray
    e: np.ndarray


def _apply_differencing(values: np.ndarray, order: ArimaOrder) -> list[np.ndarray]:
    """Chain of series after each differencing stage; last entry is the
    fully differenced series. Regular differences first, then seasonal."""
    stages = [np.asarray(values, dtype=np.float64)]
    for _ in range(order.d):
        if len(stages[-1]) < 2:
            raise DataError("series too short for differencing order")
        stages.append(np.diff(stages[-1]))
    if order.seasonal is not None:
        _, D, _, s = order.seasonal
        for _ in range(D):
            if len(stages[-1]) <= s:
                raise DataError("series too short for seasonal differencing")
            stages.append(stages[-1][s:] - stages[-1][:-s])
    return stages


def _recursion_start(order: ArimaOrder) -> int:
    p_lag = order.p
    q_lag = order.q
    if order.seasonal is not None:
        P, _, Q, s = order.seasonal
        p_lag = max(p_lag, P * s)
        q_lag = max(q_lag, Q * s)
    return max(p_lag, q_lag)


def _split_params(order: ArimaOrder, params: np.ndarray):
    p, q = order.p, order.q
    P = Q = 0
    s = 1
    if order.seasonal is not None:
        P, _, Q, s = order.seasonal
    c = float(params[0])
    phi = np.ascontiguousarray(params[1 : 1 + p])
    sphi = np.ascontiguousarray(params[1 + p : 1 + p + P])
    theta = np.ascontiguousarray(params[1 + p + P : 1 + p + P + q])
    stheta = np.ascontiguousarray(params[1 + p + P + q :])
    return c, phi, sphi, theta, stheta, s


def _css_residuals(
    w: np.ndarray, order: ArimaOrder, params: np.ndarray, history: np.ndarray | None = None
) -> np.ndarray:
    """One-step residuals on the differenced scale; the burn-in entries
    are ``history`` (the residuals the recursion continues from) or 0."""
    c, phi, sphi, theta, stheta, s = _split_params(order, params)
    return css_residuals(
        np.ascontiguousarray(w, dtype=np.float64),
        c, phi, sphi, theta, stheta, s, _recursion_start(order), history,
    )


def _hannan_rissanen(w: np.ndarray, order: ArimaOrder) -> np.ndarray:
    p, q = order.p, order.q
    P = Q = s = 0
    if order.seasonal is not None:
        P, _, Q, s = order.seasonal
    n = len(w)
    if np.var(w) == 0.0:
        raise FitError("constant series after differencing: collinear lags")

    # Stage 1: long AR to estimate the innovation sequence.
    m = max(int(math.ceil(10 * math.log10(max(n, 10)))), p, q, P * s, Q * s)
    m = min(m, n // 2)
    if m < 1 or n - m < p + q + P + Q + 2:
        raise DataError("series too short for the requested order")
    if q + Q > 0:
        rows = n - m
        design = np.empty((rows, m + 1))
        design[:, 0] = 1.0
        for lag in range(1, m + 1):
            design[:, lag] = w[m - lag : n - lag]
        coeffs, _, _, _ = np.linalg.lstsq(design, w[m:], rcond=None)
        e_hat = np.zeros(n)
        e_hat[m:] = w[m:] - design @ coeffs
    else:
        e_hat = np.zeros(n)

    # Stage 2: regress w_t on its lags and lagged innovation estimates.
    t0 = max(p, P * s, (m + q) if q else 0, (m + Q * s) if Q else 0)
    t0 = max(t0, 1)
    rows = n - t0
    cols = 1 + p + P + q + Q
    design = np.empty((rows, cols))
    design[:, 0] = 1.0
    col = 1
    for i in range(1, p + 1):
        design[:, col] = w[t0 - i : n - i]
        col += 1
    for j in range(1, P + 1):
        design[:, col] = w[t0 - j * s : n - j * s]
        col += 1
    for i in range(1, q + 1):
        design[:, col] = -e_hat[t0 - i : n - i]
        col += 1
    for j in range(1, Q + 1):
        design[:, col] = -e_hat[t0 - j * s : n - j * s]
        col += 1
    params, _, _, _ = np.linalg.lstsq(design, w[t0:], rcond=None)
    if not np.all(np.isfinite(params)):
        raise NumericError("non-finite coefficients in Hannan-Rissanen stage 2")
    return params


def _gauss_newton_pass(w: np.ndarray, order: ArimaOrder, params: np.ndarray) -> np.ndarray:
    """One damped Gauss-Newton step on the conditional sum of squares."""
    start = _recursion_start(order)
    with np.errstate(over="ignore", invalid="ignore"):
        e0 = _css_residuals(w, order, params)[start:]
        sse0 = float(e0 @ e0)
        if not math.isfinite(sse0):
            return params
        k = len(params)
        J = np.empty((len(e0), k))
        for idx in range(k):
            h = 1e-6 * max(1.0, abs(params[idx]))
            bumped = params.copy()
            bumped[idx] += h
            J[:, idx] = (_css_residuals(w, order, bumped)[start:] - e0) / h
        if not np.all(np.isfinite(J)):
            return params
        JtJ = J.T @ J
        rhs = J.T @ e0
    for damping in (0.0, 1e-6, 1e-3, 1e-1):
        try:
            step = np.linalg.solve(JtJ + damping * np.eye(k), rhs)
        except np.linalg.LinAlgError:
            continue
        cand = params - step
        if not np.all(np.isfinite(cand)):
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            e1 = _css_residuals(w, order, cand)[start:]
            sse1 = float(e1 @ e1)
        if np.all(np.isfinite(e1)) and sse1 < sse0:
            return cand
    return params


def arima_fit(values: np.ndarray, order: ArimaOrder) -> ArimaModel:
    """Fit an (S)ARIMA model; residual_rms covers in-sample one-step errors."""
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise NumericError("input series contains non-finite values")
    w = _apply_differencing(values, order)[-1]
    if len(w) < 10 * (order.p + order.q + 1):
        raise DataError("series too short for the requested order")
    params = _hannan_rissanen(w, order)
    params = _gauss_newton_pass(w, order, params)
    if not np.all(np.isfinite(params)):
        raise NumericError("non-finite coefficients after refinement")
    start = _recursion_start(order)
    residuals = _css_residuals(w, order, params)[start:]
    p, q = order.p, order.q
    P = Q = 0
    if order.seasonal is not None:
        P, _, Q, _ = order.seasonal
    return ArimaModel(
        order=order,
        phi=params[1 : 1 + p],
        seasonal_phi=params[1 + p : 1 + p + P],
        theta=params[1 + p + P : 1 + p + P + q],
        seasonal_theta=params[1 + p + P + q :],
        intercept=float(params[0]),
        residual_rms=rms(residuals) if len(residuals) else 0.0,
    )


def _model_params(model: ArimaModel) -> np.ndarray:
    return np.concatenate(
        (
            [model.intercept],
            model.phi,
            model.seasonal_phi,
            model.theta,
            model.seasonal_theta,
        )
    )


def arima_residuals(
    model: ArimaModel, values: np.ndarray, start: int = 0, carry: CssCarry | None = None
) -> tuple[np.ndarray, int, CssCarry | None]:
    """One-step residuals over a raw-scale series, and the carry where
    their recursion ended.

    Without ``carry``, the recursion runs over all of ``values`` from a
    zero start. With the ``carry`` of a recursion that ended at cell
    ``start - 1``, it continues over cells [start, n) alone, provided
    the d + D*s cells that difference cell ``start`` precede it; the
    residuals are those a single pass over the whole series would give.
    Returns (residuals, offset, carry): residuals[i] belongs to
    values[offset + i]; the carry is None when the series is shorter
    than the recursion start.
    """
    values = np.asarray(values, dtype=np.float64)
    order = model.order
    params = _model_params(model)
    burn_in = _recursion_start(order)
    lag = order.d + (order.seasonal[1] * order.seasonal[3] if order.seasonal else 0)
    if carry is not None and lag <= start < len(values):
        w_new = _apply_differencing(values[start - lag :], order)[-1]
        w = np.concatenate((carry.w, w_new))
        e = _css_residuals(w, order, params, carry.e)
        offset = start
    else:
        w = _apply_differencing(values, order)[-1]
        e = _css_residuals(w, order, params)
        offset = lag + burn_in
    carry = CssCarry(w[len(w) - burn_in :], e[len(e) - burn_in :]) if len(w) >= burn_in else None
    return e[burn_in:], offset, carry


def arima_predict_in_sample(model: ArimaModel, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """One-step-ahead predictions over a raw-scale series.

    Returns (predictions, residuals, offset): entry i of the outputs
    corresponds to values[offset + i]. One-step residuals on the raw
    scale equal those on the differenced scale, since the inverted
    differencing terms are observed values.
    """
    values = np.asarray(values, dtype=np.float64)
    residuals, offset, _ = arima_residuals(model, values)
    return values[offset:] - residuals, residuals, offset


def aic(n: int, sse: float, order: ArimaOrder) -> float:
    """n ln(SSE/n) + 2 (p + q + P + Q + 1)."""
    if sse <= 0:
        sse = 1e-300
    return n * math.log(sse / n) + 2.0 * (order.param_count + 1)


def _candidate_orders(max_order: int, seasonal_period: int | None) -> list[ArimaOrder]:
    orders = []
    for p in range(1, max_order + 1):
        for d in range(0, max_order):
            for q in range(1, max_order + 1):
                if seasonal_period is None:
                    orders.append(ArimaOrder(p, d, q))
                else:
                    for P in range(1, max_order + 1):
                        for D in range(0, max_order):
                            for Q in range(1, max_order + 1):
                                orders.append(
                                    ArimaOrder(p, d, q, (P, D, Q, seasonal_period))
                                )
    return orders


def _tie_key(order: ArimaOrder):
    P = Q = 0
    if order.seasonal is not None:
        P, _, Q, _ = order.seasonal
    return (order.p + order.q + P + Q, order.p)


def grid_search_order(
    train: np.ndarray,
    max_order: int,
    folds: int = 5,
    seasonal_period: int | None = None,
    tie_tolerance: float = 0.05,
) -> ArimaOrder:
    """Pick the order minimizing forward-chaining one-step CV error.

    All components of (p, q) range over [1, max_order] and d over
    [0, max_order - 1]; likewise the seasonal triple when a period is
    given. Scores within ``tie_tolerance`` (relative) of the minimum
    count as tied; ties go to the smallest p + q (+ P + Q), then
    smallest p. Exact-tie breaking alone would make the choice among
    nested orders a coin flip on fold noise.
    """
    train = np.asarray(train, dtype=np.float64)
    if max_order < 1:
        raise DataError("max_order must be >= 1")
    if folds < 1:
        raise DataError("need at least one fold")
    n = len(train)
    boundaries = np.linspace(n // 2, n, folds + 1, dtype=int)
    scored = []
    failures = []
    for order in _candidate_orders(max_order, seasonal_period):
        try:
            errors = []
            with np.errstate(over="ignore", invalid="ignore"):
                for f in range(folds):
                    lo, hi = boundaries[f], boundaries[f + 1]
                    if hi <= lo:
                        continue
                    model = arima_fit(train[:lo], order)
                    _, residuals, offset = arima_predict_in_sample(model, train[:hi])
                    fold_res = residuals[lo - offset : hi - offset]
                    errors.append(float(np.mean(fold_res**2)))
            if not errors or not all(math.isfinite(e) for e in errors):
                raise FitError("unstable candidate: non-finite fold error")
            score = float(np.mean(errors))
        except (DataError, FitError, NumericError) as exc:
            failures.append((order, str(exc)))
            continue
        scored.append((score, order))
    if not scored:
        raise FitError(f"all candidate orders failed: {failures}")
    best_score = min(score for score, _ in scored)
    tied = [
        order
        for score, order in scored
        if score <= best_score * (1.0 + tie_tolerance)
    ]
    return min(tied, key=_tie_key)


def select_order_aic(
    train: np.ndarray, max_order: int, seasonal_period: int | None = None
) -> ArimaOrder:
    """Unsupervised order selection by the Akaike information criterion."""
    train = np.asarray(train, dtype=np.float64)
    best = None
    failures = []
    for order in _candidate_orders(max_order, seasonal_period):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                model = arima_fit(train, order)
                _, residuals, _ = arima_predict_in_sample(model, train)
                sse = float(residuals @ residuals)
            if not math.isfinite(sse):
                raise FitError("unstable candidate: non-finite SSE")
            score = aic(len(residuals), sse, order)
        except (DataError, FitError, NumericError) as exc:
            failures.append((order, str(exc)))
            continue
        key = (score, _tie_key(order))
        if best is None or key < best[0]:
            best = (key, order)
    if best is None:
        raise FitError(f"all candidate orders failed: {failures}")
    return best[1]


@dataclass(frozen=True)
class Decomposition:
    """Additive trend + seasonal + residual split of a series."""

    trend: np.ndarray
    seasonal: np.ndarray
    residual: np.ndarray
    period: int


def stl_decompose(values: np.ndarray, period: int) -> Decomposition:
    """Classical additive decomposition (moving-average trend,
    per-phase seasonal means re-centered to zero, exact residual)."""
    x = np.asarray(values, dtype=np.float64)
    n = len(x)
    if period < 2:
        raise DataError("period must be >= 2")
    if n < 2 * period:
        raise DataError("need at least two full periods")
    if period % 2 == 0:
        # standard 2 x period weighted average: half weight at the ends
        kernel = np.full(period + 1, 1.0 / period)
        kernel[0] = kernel[-1] = 0.5 / period
    else:
        kernel = np.full(period, 1.0 / period)
    half = len(kernel) // 2
    trend = np.full(n, np.nan)
    valid = np.convolve(x, kernel, mode="valid")
    trend[half : half + len(valid)] = valid
    trend[:half] = trend[half]
    trend[half + len(valid):] = trend[half + len(valid) - 1]

    # Per-phase means use only the interior positions [half, half +
    # len(valid)), where the centered average is defined; the
    # edge-filled trend would bias them. Phases have one of two interior
    # counts: gather the phases of each count as rows of positions in
    # increasing order and sum along the rows.
    detrended = x - trend
    phase_count = np.bincount(np.arange(half, half + len(valid)) % period, minlength=period)
    phase_means = np.empty(period)
    for count in np.unique(phase_count):
        phases = np.flatnonzero(phase_count == count)
        first = half + (phases - half) % period
        rows = detrended[first[:, None] + period * np.arange(count)]
        phase_means[phases] = rows.sum(axis=1) / count
    phase_means -= phase_means.mean()
    seasonal = np.tile(phase_means, n // period + 1)[:n]
    residual = x - trend - seasonal
    return Decomposition(trend=trend, seasonal=seasonal, residual=residual, period=period)


def _lag_pairs(train: np.ndarray, lags: int) -> tuple[np.ndarray, np.ndarray]:
    train = np.asarray(train, dtype=np.float64)
    if len(train) <= lags:
        raise DataError("training series must be longer than the lag count")
    n_pairs = len(train) - lags
    X = np.empty((n_pairs, lags))
    for i in range(lags):
        X[:, i] = train[i : i + n_pairs]
    y = train[lags:]
    return X, y


@dataclass(frozen=True)
class CartNode:
    feature: int = -1  # -1 marks a leaf
    threshold: float = 0.0
    prediction: float = 0.0
    left: "CartNode | None" = None
    right: "CartNode | None" = None


@dataclass(frozen=True)
class CartRegressor:
    root: CartNode
    lags: int


def _best_split(X: np.ndarray, y: np.ndarray, min_leaf: int):
    """Split maximizing SSE reduction; ties to lowest feature then
    lowest threshold. Thresholds are midpoints between sorted values."""
    n = len(y)
    total_sum = y.sum()
    total_sq = float(y @ y)
    base_sse = total_sq - total_sum**2 / n
    # every feature's cuts at once, one row per feature: a cut leaves
    # the first ``cut`` sorted rows on the left
    cuts = np.arange(max(min_leaf, 1), min(n - min_leaf, n - 1) + 1)
    if len(cuts) == 0:
        return None
    order = np.argsort(X.T, axis=1, kind="stable")
    xs = np.take_along_axis(X.T, order, axis=1)
    ys = y[order]
    csum = np.cumsum(ys, axis=1)[:, cuts - 1]
    csq = np.cumsum(ys * ys, axis=1)[:, cuts - 1]
    left_sse = csq - csum**2 / cuts
    right_sum = total_sum - csum
    right_sse = (total_sq - csq) - right_sum**2 / (n - cuts)
    reduction = base_sse - left_sse - right_sse
    # no cut between equal values; the first maximum in feature-major
    # order has the lowest feature, then the lowest threshold
    reduction[xs[:, cuts - 1] == xs[:, cuts]] = -np.inf
    f, c = np.unravel_index(np.argmax(reduction), reduction.shape)
    if reduction[f, c] <= 1e-12:
        return None
    return int(f), 0.5 * (xs[f, cuts[c] - 1] + xs[f, cuts[c]])


def _grow(X, y, depth, max_depth, min_leaf) -> CartNode:
    prediction = float(y.mean())
    if depth >= max_depth or len(y) < 2 * min_leaf or np.var(y) == 0.0:
        return CartNode(prediction=prediction)
    split = _best_split(X, y, min_leaf)
    if split is None:
        return CartNode(prediction=prediction)
    f, threshold = split
    mask = X[:, f] <= threshold
    return CartNode(
        feature=f,
        threshold=threshold,
        prediction=prediction,
        left=_grow(X[mask], y[mask], depth + 1, max_depth, min_leaf),
        right=_grow(X[~mask], y[~mask], depth + 1, max_depth, min_leaf),
    )


def cart_fit(train: np.ndarray, lags: int, max_depth: int, min_leaf: int) -> CartRegressor:
    """Greedy variance-reduction regression tree on lag features."""
    if max_depth < 0 or min_leaf < 1:
        raise DataError("max_depth must be >= 0 and min_leaf >= 1")
    X, y = _lag_pairs(train, lags)
    return CartRegressor(root=_grow(X, y, 0, max_depth, min_leaf), lags=lags)


def cart_predict(regressor: CartRegressor, context: np.ndarray) -> float:
    context = np.asarray(context, dtype=np.float64)
    node = regressor.root
    while node.feature >= 0:
        node = node.left if context[node.feature] <= node.threshold else node.right
    return float(node.prediction)


def residual_threshold_detect(
    predictions: np.ndarray,
    actuals: np.ndarray,
    training_rms: float,
    multiplier: float = 3.0,
) -> np.ndarray:
    """Flag |actual - prediction| > multiplier * training RMS.

    With a degenerate zero RMS, any nonzero residual flags.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    actuals = np.asarray(actuals, dtype=np.float64)
    if predictions.shape != actuals.shape:
        raise DataError("predictions and actuals must have equal length")
    residuals = np.abs(actuals - predictions)
    if training_rms == 0.0:
        return residuals > 0.0
    return residuals > multiplier * training_rms
