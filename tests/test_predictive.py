"""Forecasting bank: ARIMA/SARIMA estimation and prediction, the
classical decomposition, lag-vector kNN, the regression tree (checked
against an exhaustive-split oracle), and the residual threshold rule
as the engine applies it."""

import math

import numpy as np
import pytest

from ethsentinel.config import EngineConfig
from ethsentinel.ensemble import (
    DetectorCategory,
    FittedDetector,
    _fit_predictive,
    _knn_mean_targets,
    _predictive_point_flags,
)
from ethsentinel.errors import DataError, FitError
from ethsentinel.kernels import sq_dists
from ethsentinel.predictive import (
    ArimaOrder,
    _best_split,
    _lag_pairs,
    aic,
    arima_fit,
    arima_predict_in_sample,
    arima_residuals,
    cart_fit,
    cart_predict,
    grid_search_order,
    select_order_aic,
    stl_decompose,
)

from oracles import naive_best_split


def simulate_arma(phi, theta, n, seed, noise=1.0, burn=200):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n + burn) * noise
    x = np.zeros(n + burn)
    for t in range(1, n + burn):
        x[t] = phi * x[t - 1] + e[t] - theta * e[t - 1]
    return x[burn:]


def simulate_ar(coeffs, n, seed, burn=200):
    rng = np.random.default_rng(seed)
    p = len(coeffs)
    x = np.zeros(n + burn)
    e = rng.standard_normal(n + burn)
    for t in range(p, n + burn):
        x[t] = sum(c * x[t - i - 1] for i, c in enumerate(coeffs)) + e[t]
    return x[burn:]


def test_order_validation():
    with pytest.raises(DataError):
        ArimaOrder(-1, 0, 0)
    order = ArimaOrder(2, 1, 1)
    assert order.param_count == 3  # 2 AR + 1 MA


def test_ar1_noise_free_exact():
    # deterministic AR(1): x_t = 0.7 x_{t-1}, no noise -> phi recovered exactly
    x = 0.7 ** np.arange(60)
    model = arima_fit(x, ArimaOrder(1, 0, 0))
    assert abs(model.phi[0] - 0.7) < 1e-9


def test_arma11_recovery():
    errors = []
    for seed in range(10):
        x = simulate_arma(0.5, 0.3, 4000, seed)
        model = arima_fit(x, ArimaOrder(1, 0, 1))
        errors.append(abs(model.phi[0] - 0.5))
        errors.append(abs(model.theta[0] - 0.3))
    assert float(np.mean(errors)) <= 0.1


def test_in_sample_residuals_reconstruct_predictions():
    x = simulate_arma(0.5, 0.3, 500, 0)
    model = arima_fit(x, ArimaOrder(1, 0, 1))
    preds, residuals, offset = arima_predict_in_sample(model, x)
    assert len(preds) == len(residuals) == len(x) - offset
    assert np.allclose(x[offset:] - preds, residuals)


@pytest.mark.parametrize(
    "order",
    [
        ArimaOrder(1, 1, 1),
        ArimaOrder(1, 1, 1, (1, 0, 1, 24)),
        ArimaOrder(1, 0, 1, (0, 1, 1, 12)),
    ],
    ids=str,
)
def test_carried_residuals_equal_one_pass(order):
    rng = np.random.default_rng(11)
    t = np.arange(600)
    x = np.cumsum(0.3 * rng.standard_normal(600)) + np.sin(2 * np.pi * t / 12) + rng.standard_normal(600)
    model = arima_fit(x[:400], order)
    _, full, full_offset = arima_predict_in_sample(model, x)
    m = 450
    head, offset, head_carry = arima_residuals(model, x[:m])
    assert offset == full_offset
    # one cell per step, on a database that drops its oldest cell
    parts, carry = [head], head_carry
    for i in range(m, len(x)):
        database = x[i - 299 : i + 1]
        residuals, offset, carry = arima_residuals(model, database, 299, carry)
        assert offset == 299 and len(residuals) == 1
        parts.append(residuals)
    assert np.array_equal(np.concatenate(parts), full)
    # the rest in one step
    rest, offset, _ = arima_residuals(model, x, m, head_carry)
    assert offset == m
    assert np.array_equal(np.concatenate([head, rest]), full)


def one_step_forecast(model, x):
    """Forecast of the cell after ``x``: the in-sample prediction of an
    appended cell, which depends only on the cells before it."""
    predictions, _, _ = arima_predict_in_sample(model, np.append(x, x[-1]))
    return predictions[-1]


def test_forecast_constant_series():
    x = np.full(100, 5.0)
    model = arima_fit(x + 1e-9 * np.random.default_rng(0).standard_normal(100), ArimaOrder(1, 0, 0))
    forecast = one_step_forecast(model, x)
    assert forecast == pytest.approx(5.0, abs=1e-5)


def test_random_walk_differenced_forecast():
    # with d=1 and near-zero AR/MA, the forecast tracks the last level
    rng = np.random.default_rng(1)
    x = np.cumsum(rng.standard_normal(800))
    model = arima_fit(x, ArimaOrder(1, 1, 0))
    forecast = one_step_forecast(model, x)
    assert abs(forecast - x[-1]) < 3.0  # one-step error is O(noise), not O(level)


def test_aic_penalizes_parameters():
    sse = 100.0
    small = aic(500, sse, ArimaOrder(1, 0, 0))
    big = aic(500, sse, ArimaOrder(3, 0, 3))
    assert big > small


def test_grid_search_selects_ar2():
    hits = 0
    for seed in range(6):
        x = simulate_ar([0.6, -0.4], 1200, seed)
        order = grid_search_order(x, max_order=3, folds=3)
        hits += order.p == 2 and order.d == 0
    assert hits >= 4


def test_aic_selects_ar2():
    x = simulate_ar([0.6, -0.4], 1500, 3)
    order = select_order_aic(x, max_order=3)
    assert order.p == 2 and order.d == 0


def test_stl_recovers_constructed_seasonal():
    period = 12
    t = np.arange(20 * period)
    trend_true = 0.05 * t
    phase = np.array([3.0, 1.0, -1.0, 0.5, 2.0, -2.0, 0.0, 1.5, -0.5, -3.0, 0.5, -2.0])
    phase -= phase.mean()
    seasonal_true = np.tile(phase, 20)
    x = trend_true + seasonal_true
    dec = stl_decompose(x, period)
    interior = slice(period, len(t) - period)
    assert np.allclose(dec.seasonal[interior], seasonal_true[interior], atol=1e-9)
    assert np.allclose(dec.residual[interior], 0.0, atol=1e-9)
    # decomposition is exact by construction everywhere
    assert np.allclose(dec.trend + dec.seasonal + dec.residual, x)


def test_stl_requires_two_periods():
    with pytest.raises(DataError):
        stl_decompose(np.arange(20.0), 12)


def test_knn_mean_targets_hand_example():
    # train 1,2,3,4,5,6 with lags=2: pairs ([1,2]->3, [2,3]->4, [3,4]->5, [4,5]->6)
    train = np.arange(1.0, 7.0)
    X, y = _lag_pairs(train, 2)
    # context [3, 4.2]: nearest pair [3,4]->5, then [4,5]->6 (no distance ties)
    dist = sq_dists(np.array([[3.0, 4.2]]), X)
    assert _knn_mean_targets(dist, y, 1).tolist() == [5.0]
    assert _knn_mean_targets(dist, y, 2).tolist() == [5.5]
    with pytest.raises(FitError):
        _fit_predictive("knn", train, EngineConfig(knn_lags=2, knn_k=10), seed=0)


def exhaustive_best_split(X, y, min_leaf):
    """Oracle: try every (feature, midpoint) split, return the minimum SSE."""
    best = None
    base = float(np.sum((y - y.mean()) ** 2))
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs, ys = X[order, j], y[order]
        for i in range(min_leaf, len(y) - min_leaf + 1):
            if xs[i - 1] == xs[i]:  # not a real boundary
                continue
            left, right = ys[:i], ys[i:]
            sse = float(np.sum((left - left.mean()) ** 2) + np.sum((right - right.mean()) ** 2))
            if best is None or sse < best:
                best = sse
    return base if best is None else best


def test_cart_root_split_matches_exhaustive_oracle():
    rng = np.random.default_rng(4)
    train = rng.standard_normal(64)
    lags, min_leaf = 3, 5
    tree = cart_fit(train, lags=lags, max_depth=1, min_leaf=min_leaf)
    n_pairs = len(train) - lags
    X = np.column_stack([train[i : i + n_pairs] for i in range(lags)])
    y = train[lags:]
    preds = np.array([cart_predict(tree, X[i]) for i in range(n_pairs)])
    sse = float(np.sum((y - preds) ** 2))
    assert sse <= exhaustive_best_split(X, y, min_leaf) + 1e-9


def split_cases():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((200, 5))
    y = rng.standard_normal(200)
    ties = np.round(rng.standard_normal((150, 4)))  # duplicated x values
    flat = X[:100].copy()
    flat[:, 1] = 2.5  # a constant feature
    return [
        (X, y, 5),
        (X, y, 1),
        (ties, rng.integers(0, 3, 150).astype(float), 5),
        (X[:40], y[:40], 19),  # min_leaf near n/2
        (X[:40], y[:40], 20),
        (X[:41], y[:41], 21),  # no cut leaves min_leaf on both sides
        (flat, y[:100], 3),
        (flat[:, 1:2], y[:100], 3),  # nothing to split on
        (ties[:, :1], np.full(150, 1.5), 5),  # nothing to gain
        # cuts 1 and 3 tie, and so do the two equal features
        (np.column_stack([np.arange(4.0)] * 2), np.array([0.0, 2.0, 2.0, 0.0]), 1),
    ]


@pytest.mark.parametrize("case", range(10))
def test_best_split_matches_cut_loop_oracle(case):
    X, y, min_leaf = split_cases()[case]
    got, want = _best_split(X, y, min_leaf), naive_best_split(X, y, min_leaf)
    assert got == want
    if want is not None:
        assert type(got[0]) is type(want[0]) and type(got[1]) is type(want[1])


def test_cart_fits_step_function_exactly():
    # alternating series: the next value is a step function of the
    # previous one, exactly representable by a depth-1 tree
    x = np.tile([5.0, -5.0], 50)
    tree = cart_fit(x, lags=1, max_depth=1, min_leaf=2)
    assert cart_predict(tree, np.array([5.0])) == -5.0
    assert cart_predict(tree, np.array([-5.0])) == 5.0


def test_residual_threshold_rule():
    # a depth-0 tree forecasts the training mean, here 0, so a scored
    # cell's residual is its value; its holdout residuals are the last
    # two lag pairs' targets, +-1 (RMS 1) or 0 (RMS 0)
    config = EngineConfig(cart_lags=1, cart_depth=0, cart_min_leaf=1, residual_multiplier=3.0)
    scored = np.array([0.1, -0.2, 4.0, 0.0, -3.5, 0.3])
    for tail, threshold, expected in (
        ([1.0, -1.0], 3.0, [False, False, True, False, True, False]),
        # degenerate zero RMS: any nonzero residual flags
        ([0.0, 0.0], 0.0, [True, True, True, False, True, True]),
    ):
        train = np.array([0.0] * 7 + tail)
        payload = _fit_predictive("cart", train, config, seed=0)
        assert payload["rms"] == threshold / 3.0 and payload["threshold"] == threshold
        det = FittedDetector("cart:value", "cart", DetectorCategory.PREDICTIVE, "value", payload)
        values = np.concatenate([train, scored])
        assert _predictive_point_flags(det, values, len(train)).tolist() == expected
