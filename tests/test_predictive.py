"""Forecasting bank: ARIMA/SARIMA estimation and prediction, the
classical decomposition, lag-vector kNN, the regression tree (checked
against an exhaustive-split oracle), and the residual threshold rule
as the engine applies it."""

import itertools
import math

import numpy as np
import pytest

from ethsentinel import synth
from ethsentinel.config import EngineConfig
from ethsentinel.ensemble import (
    DetectorCategory,
    FittedDetector,
    _fit_predictive,
    _knn_fit_pairs,
    _knn_predictions,
    _predictive_point_flags,
    build_grids,
)
from ethsentinel.errors import DataError, FitError
from ethsentinel.predictive import (
    ArimaModel,
    ArimaOrder,
    _best_split,
    _candidate_orders,
    _cholesky_in_place,
    _lag_pairs,
    _lagged,
    _long_ar_gram,
    _long_ar_residuals,
    aic,
    arima_fit,
    arima_predict_in_sample,
    arima_residuals,
    cart_fit,
    css_residuals,
    cart_predict,
    grid_search_order,
    select_order_aic,
    stl_decompose,
)

from oracles import (
    naive_best_split,
    naive_css_residuals,
    naive_long_ar_design,
    naive_long_ar_residuals,
    rss_growth,
    traced_peak,
)


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
    assert order.seasonal_part == (0, 0, 0, 1)
    seasonal = ArimaOrder(1, 0, 1, (2, 1, 1, 4))
    assert seasonal.seasonal_part == (2, 1, 1, 4) and seasonal.param_count == 5
    # a negative P, three entries, a period below 2, a float, a list
    for part in ((-1, 0, 2, 4), (1, 0, 1), (1, 0, 1, 1), (1, 0, 1, 4.0), [1, 0, 1, 4]):
        with pytest.raises(DataError):
            ArimaOrder(1, 0, 1, part)


def test_model_params_must_match_the_order():
    order = ArimaOrder(1, 0, 1, (1, 0, 1, 4))  # c, phi, Phi, theta, Theta
    model = ArimaModel(order, np.array([0.5, 0.1, 0.2, 0.3, 0.4]), 1.0)
    assert model.phi.tolist() == [0.1] and model.theta.tolist() == [0.3]
    assert model.recursion_contracts  # |0.3| + |0.4| < 1
    for params in ([0.5, 0.1, 0.2, 0.3], [0.5, 0.1, 0.2, 0.3, 0.4, 0.6], []):
        with pytest.raises(DataError):
            ArimaModel(order, np.array(params), 1.0)


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


def dense_gaslimit_sarima_input():
    """The differenced training gaslimit of the criterion-1 harness
    stream, seed 0, and the long-AR order of its SARIMA(1,1,1)(1,0,1,1344)
    fit: a 2688 x 1345 design with condition number about 2e5."""
    txs, _ = synth.synth_generate(
        synth.SynthConfig(
            duration=4 * 86400, base_rate=6.0, rate_amplitude=0.4, value_sigma=0.25, seed=0
        )
    )
    grid = build_grids(txs, EngineConfig(features=("gaslimit",)))["gaslimit"].values
    return np.diff(grid[: int(round(0.7 * len(grid)))]), 1344


def sparse_like_input():
    """A mostly-zero series with occasional transactions, differenced
    as the engine's ARIMA(1,1,1) does."""
    rng = np.random.default_rng(2)
    x = np.zeros(4000)
    active = rng.choice(len(x), 100, replace=False)
    x[active] = rng.lognormal(3.0, 1.0, len(active))
    return np.diff(x), 36


@pytest.mark.parametrize(
    "make_input",
    [
        dense_gaslimit_sarima_input,
        lambda: (simulate_arma(0.5, 0.3, 4000, 0), 36),
        # 301 columns: two whole 128-column blocks of the factor and a part
        lambda: (simulate_arma(0.5, 0.3, 4000, 1), 300),
        sparse_like_input,
    ],
    ids=["dense-gaslimit-sarima", "arma11", "arma11-three-blocks", "sparse-like"],
)
def test_long_ar_residuals_match_lstsq_oracle(make_input):
    w, m = make_input()
    expected = naive_long_ar_residuals(w, m)
    # relative to the residuals' scale: entries near zero carry the
    # same absolute rounding as the rest
    np.testing.assert_allclose(
        _long_ar_residuals(w, m), expected, rtol=1e-9, atol=1e-9 * np.abs(expected).max()
    )


def trending_series(n, seed):
    rng = np.random.default_rng(seed)
    return 3.0 + 0.1 * np.cumsum(rng.standard_normal(n)) + rng.standard_normal(n)


@pytest.mark.parametrize("n, m", [(50, 1), (50, 2), (3, 1), (5, 2), (9, 4), (5759, 1440)])
def test_shifted_sum_gram_matches_design_product(n, m):
    w = trending_series(n, m)
    design = naive_long_ar_design(w, m)
    gram, rhs = _long_ar_gram(w, m)
    expected = design.T @ design
    np.testing.assert_allclose(gram, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())
    expected = design.T @ w[m:]
    np.testing.assert_allclose(rhs, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def test_long_ar_holds_no_design():
    # the (n - m) x (m + 1) design alone would be about 3 (m + 1)-square matrices
    m = 1440
    w = trending_series(5759, 0)
    assert traced_peak(lambda: _long_ar_residuals(w, m)) < 2.5 * (m + 1) ** 2 * 8


def scaled_gram(w, m):
    gram, _ = _long_ar_gram(w, m)
    scale = np.sqrt(gram.diagonal())
    with np.errstate(divide="ignore", invalid="ignore"):  # zero columns
        return gram / scale[:, None] / scale


@pytest.mark.parametrize("m", [1, 2, 27, 38, 100, 127])
def test_one_block_factor_is_lapacks(m):
    # every non-seasonal long AR has m <= 38: one np.linalg.cholesky call
    gram = scaled_gram(trending_series(2000, m), m)
    chol = gram.copy()
    _cholesky_in_place(chol)
    assert np.array_equal(chol, np.linalg.cholesky(gram))


def test_blocked_factor_matches_lapack():
    m = 1440
    gram = scaled_gram(trending_series(5759, 0), m)
    chol = gram.copy()
    _cholesky_in_place(chol)
    expected = np.linalg.cholesky(gram)
    np.testing.assert_allclose(chol, expected, rtol=0, atol=1e-13 * np.abs(expected).max())
    # _cholesky_solve reads whole diagonal blocks, so the zeros must be exact
    assert not np.triu(chol, 1).any()


def test_long_ar_factors_its_gram_in_place():
    # np.linalg.cholesky would add a LAPACK copy, which tracemalloc cannot
    # see, and a new output to the Gram: three (m+1)-square matrices
    m = 1440
    w = trending_series(5759, 0)
    assert traced_peak(lambda: _long_ar_residuals(w, m)) < 1.5 * (m + 1) ** 2 * 8
    setup = "\n".join(
        (
            "import numpy as np",
            "from ethsentinel.predictive import _long_ar_residuals",
            "rng = np.random.default_rng(0)",
            "n = 5759",
            "w = 3.0 + 0.1 * np.cumsum(rng.standard_normal(n)) + rng.standard_normal(n)",
            "_long_ar_residuals(w[:1000], 300)",  # loads BLAS and LAPACK at a small size
        )
    )
    assert rss_growth(setup, f"_long_ar_residuals(w, {m})") < 1.6 * (m + 1) ** 2 * 8


def counting_lstsq(monkeypatch):
    calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return calls


def one_spike():
    x = np.zeros(400)
    x[5] = 1.0
    return x


def near_sine():
    rng = np.random.default_rng(0)
    return np.sin(0.3 * np.arange(400)) + 1e-5 * rng.standard_normal(400)


@pytest.mark.parametrize(
    "make_series",
    # ARIMA(1,0,1)'s long AR of 27 lags sees the spike in 6 columns: rank
    # 7 of 28 and no factor. The sine spans three columns and the noise
    # leaves a smallest scaled pivot near 2e-10, where the normal
    # equations would lose about five digits.
    [one_spike, near_sine],
    ids=["one-spike", "near-sine"],
)
def test_ill_posed_long_ar_falls_back_to_lstsq(monkeypatch, make_series):
    x = make_series()
    expected = naive_long_ar_residuals(x, 27)
    calls = counting_lstsq(monkeypatch)
    assert np.array_equal(_long_ar_residuals(x, 27), expected)
    assert calls == [(373, 28)]


def late_spike():
    # lags 1 to 200 see the spike, each in its own row; lags 201 to 300
    # are zero columns, whose scaled pivots are NaN
    x = np.zeros(1000)
    x[799] = 1.0
    return x


def periodic(noise):
    # a random pattern of 150 cells repeated: lag 150 is a constant less
    # lags 1 to 149, and lag 151 + k repeats lag 1 + k
    rng = np.random.default_rng(0)
    x = np.tile(rng.standard_normal(150), 8)
    return x + noise * rng.standard_normal(len(x))


@pytest.mark.parametrize(
    "make_series",
    # a NaN pivot, no factor (LinAlgError) and, with noise, a smallest
    # scaled pivot near 1e-10, each first in the factor's second block
    [late_spike, lambda: periodic(0.0), lambda: periodic(1e-5)],
    ids=["late-spike", "periodic", "near-periodic"],
)
def test_long_ar_falls_back_past_the_first_block(monkeypatch, make_series):
    x = make_series()
    m = 300
    # the first 128 columns alone factor well
    head = np.linalg.cholesky(scaled_gram(x, m)[:128, :128])
    assert head.diagonal().min() ** 2 > 0.1
    expected = naive_long_ar_residuals(x, m)
    calls = counting_lstsq(monkeypatch)
    assert np.array_equal(_long_ar_residuals(x, m), expected)
    assert calls == [(len(x) - m, m + 1)]


def test_sarima_fit_solves_only_stage_two_by_lstsq(monkeypatch):
    rng = np.random.default_rng(4)
    s = 1000
    x = 5.0 * np.sin(2 * np.pi * np.arange(3 * s + 1) / s) + rng.standard_normal(3 * s + 1)
    calls = counting_lstsq(monkeypatch)
    arima_fit(x, ArimaOrder(1, 1, 1, (1, 0, 1, s)))
    assert calls == [(3 * s - 2 * s, 5)]  # stage 2: rows from t0 = m + Q*s, 5 parameters
    calls.clear()
    assert isinstance(arima_fit(one_spike(), ArimaOrder(1, 0, 1)), ArimaModel)
    assert len(calls) == 2  # the fallback and stage 2


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


def test_css_residuals_match_scalar_loop_oracle():
    # every order up to (2, 2) x (2, 2)_s, from a zero burn-in and from a
    # carried history, equal the scalar loop bit for bit
    rng = np.random.default_rng(3)
    for p, P, q, Q, s in itertools.product(range(3), range(3), range(3), range(3), (2, 7, 1440)):
        start = max(p, q, P * s, Q * s)
        coeffs = [rng.uniform(-0.9, 0.9, k) for k in (p, P, q, Q)]
        c = float(rng.standard_normal())
        for new_cells in (0, 1, 40):  # 0: start == n
            w = rng.standard_normal(start + new_cells)
            for history in (None, rng.standard_normal(start)):
                args = (w, c, *coeffs, s, start, history)
                got = css_residuals(*args)
                assert np.array_equal(got, naive_css_residuals(*args), equal_nan=True), (p, P, q, Q, s)
    with pytest.raises(ValueError):  # a lag would reach before the series
        css_residuals(np.ones(9), 0.0, [], [], [0.5], [], 2, 0)


@pytest.mark.parametrize("scale", [1e300, math.inf, math.nan])
def test_css_residuals_match_oracle_through_overflow(scale):
    # an exploding MA recursion overflows to inf and then to NaN alike
    rng = np.random.default_rng(4)
    w = rng.standard_normal(300)
    w[100] = scale
    args = (w, 0.5, np.array([0.9]), np.array([1.5]), np.array([-3.0]), np.array([2.5]), 7, 7)
    with np.errstate(over="ignore", invalid="ignore"):
        got = css_residuals(*args)
        want = naive_css_residuals(*args)
    assert not np.all(np.isfinite(want))
    assert np.array_equal(got, want, equal_nan=True)


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


@pytest.mark.parametrize("search", [grid_search_order, select_order_aic])
def test_order_searches_reject_max_order_zero(search):
    x = simulate_ar([0.6], 200, 0)
    with pytest.raises(DataError, match="max_order"):
        search(x, max_order=0)


def test_candidate_orders_follow_the_nested_loop():
    """``select_order_aic`` keeps the first of equal (AIC, tie key)
    pairs, so the candidate sequence is behaviour."""
    seasonal, plain = [], []
    for p in range(1, 3):
        for d in range(2):
            for q in range(1, 3):
                plain.append(ArimaOrder(p, d, q))
                for P in range(1, 3):
                    for D in range(2):
                        for Q in range(1, 3):
                            seasonal.append(ArimaOrder(p, d, q, (P, D, Q, 4)))
    assert _candidate_orders(2, 4) == seasonal
    assert _candidate_orders(2, None) == plain


def test_lagged_columns_hold_the_series_at_each_lag():
    x = np.arange(6.0)
    assert _lagged(x, [1, 3], 3).tolist() == [[2.0, 0.0], [3.0, 1.0], [4.0, 2.0]]
    assert _lagged(x, [], 2).shape == (4, 0)


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
    payload, _ = _knn_fit_pairs(X, y, 1)
    # context [3, 4.2]: nearest pair [3,4]->5, then [4,5]->6 (no distance ties)
    query = np.array([[3.0, 4.2]])
    assert _knn_predictions(payload, query).tolist() == [5.0]
    assert _knn_predictions(payload | {"k": 2}, query).tolist() == [5.5]
    with pytest.raises(FitError):
        _fit_predictive("knn", train, EngineConfig(knn_lags=2, knn_k=10), seed=0)


def test_knn_tie_at_the_kth_place_shares_it_by_pair_count():
    # the origin's context holds two pairs; three contexts tie at distance
    # 1 with four pairs between them, and the third nearest pair is one
    # of those four: each tied pair is taken with chance 1/4
    X = np.array(
        [[0, 0], [0, 0], [1, 0], [-1, 0], [-1, 0], [0, 1], [3, 3], [4, 4], [5, 5]], dtype=float
    )
    y = np.array([1, 3, 2, 4, 6, 8, 100, 200, 300], dtype=float)
    payload, preds = _knn_fit_pairs(X, y, 3)
    expected = np.mean([(1 + 3 + y[j]) / 3 for j in range(2, 6)])
    assert expected == 3.0
    assert _knn_predictions(payload, np.zeros((1, 2))).tolist() == [expected]
    # leave-self-out at the origin: the twin, and two of the four tied pairs
    assert preds[0] == (3 + 2 * np.mean(y[2:6])) / 3
    assert preds[1] == (1 + 2 * np.mean(y[2:6])) / 3


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
    tree = cart_fit(*_lag_pairs(train, lags), max_depth=1, min_leaf=min_leaf)
    n_pairs = len(train) - lags
    X = np.column_stack([train[i : i + n_pairs] for i in range(lags)])
    y = train[lags:]
    preds = cart_predict(tree, X)
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
    tree = cart_fit(*_lag_pairs(x, 1), max_depth=1, min_leaf=2)
    assert cart_predict(tree, np.array([[5.0], [-5.0]])).tolist() == [-5.0, 5.0]


def test_cart_fit_rejects_mismatched_or_empty_pairs():
    X, y = _lag_pairs(np.arange(10.0), 2)
    for pairs in ((X, y[:-1]), (X[:0], y[:0])):
        with pytest.raises(DataError):
            cart_fit(*pairs, max_depth=1, min_leaf=1)


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
        assert _predictive_point_flags(det, values, len(train), {}).tolist() == expected


def test_hannan_rissanen_rejects_too_few_stage_two_rows():
    # 60 cells leave the long AR enough rows, but the seasonal MA lag
    # starts stage 2 past the end of the series
    x = np.random.default_rng(0).standard_normal(60)
    with pytest.raises(DataError):
        arima_fit(x, ArimaOrder(1, 0, 1, (1, 0, 1, 40)))


@pytest.mark.xfail(
    strict=True,
    reason="the length check ignores the seasonal P and Q and their lags (ROADMAP item 5)",
)
def test_seasonal_fit_rejects_too_few_cells_for_its_coefficients():
    # 5 coefficients on 10 stage-2 rows: the fit returns residual_rms 2.7e120
    x = np.random.default_rng(0).standard_normal(60)
    with pytest.raises(DataError):
        arima_fit(x, ArimaOrder(1, 0, 1, (2, 0, 0, 25)))
