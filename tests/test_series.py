"""Series primitives: merge, resample, window extraction, differencing,
ACF, period estimation. Oracles are computed independently (direct
summation, DFT) before comparison."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import naive_point_flags, naive_window_matrix

from ethsentinel import ensemble
from ethsentinel.ensemble import _window_matrix, _window_point_flags
from ethsentinel.errors import DataError
from ethsentinel.predictive import ArimaOrder, _apply_differencing
from ethsentinel.series import (
    ACF_METHOD,
    PERIODOGRAM_METHOD,
    TimeSeries,
    acf,
    estimate_period,
    merge_cooccurring,
    resample,
    rms,
    standardize,
)


def test_merge_sums_equal_timestamps():
    s = TimeSeries(np.array([10, 10, 11, 13, 13, 13]), np.array([1.0, 2.0, 5.0, 1.0, 1.0, 1.0]))
    merged = merge_cooccurring(s)
    assert merged.timestamps.tolist() == [10, 11, 13]
    assert merged.values.tolist() == [3.0, 5.0, 3.0]


def test_merge_rejects_unsorted():
    s = TimeSeries(np.array([5, 3]), np.array([1.0, 1.0]))
    with pytest.raises(DataError):
        merge_cooccurring(s)


def test_resample_explicit_zero_cells():
    s = TimeSeries(np.array([0, 61, 62, 250]), np.array([1.0, 2.0, 3.0, 4.0]))
    grid = resample(merge_cooccurring(s), 60)
    assert grid.timestamps.tolist() == [0, 60, 120, 180, 240]
    assert grid.values.tolist() == [1.0, 5.0, 0.0, 0.0, 4.0]


def test_resample_grid_aligned_origin():
    s = TimeSeries(np.array([130, 199]), np.array([1.0, 1.0]))
    grid = resample(s, 60)
    assert grid.timestamps[0] == 120  # snapped down to the grid


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5000), st.floats(-100, 100)),
        min_size=1,
        max_size=60,
    ),
    st.sampled_from([30, 60, 300]),
)
def test_resample_preserves_total_mass(points, step):
    points.sort()
    ts = np.array([p[0] for p in points])
    vals = np.array([p[1] for p in points])
    grid = resample(merge_cooccurring(TimeSeries(ts, vals)), step)
    assert math.isclose(float(grid.values.sum()), float(vals.sum()), abs_tol=1e-6)
    assert np.all(np.diff(grid.timestamps) == step)


def test_window_matrix_overlap_membership(monkeypatch):
    matrix, starts = _window_matrix(np.arange(10.0), 5, 0)
    # 10 cells, 5-cell windows, one ending at every cell -> 6 windows
    assert len(matrix) == 6
    assert matrix[0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    # cell 4 appears in windows starting at 0..4 (5 windows)
    containing = [s for s in starts if s <= 4 < s + 5]
    assert len(containing) == 5

    # windows and point flags against the one-slice-per-window and
    # one-window-at-a-time oracles; a window flags when its sum is
    # positive
    monkeypatch.setattr(ensemble, "_score_rows", lambda kind, payload, rows: rows.sum(1) > 0)
    rng = np.random.default_rng(7)
    w = 5
    for shape in [(23,), (23, 3), (3,), (3, 3)]:
        values = rng.standard_normal(shape)
        n = len(values)
        full, full_starts = naive_window_matrix(values, w)
        for first in (0, 3, n // 2, n - 1):
            got, got_starts = _window_matrix(values, w, first)
            keep = full_starts >= first
            assert np.array_equal(got, full[keep])
            assert np.array_equal(got_starts, full_starts[keep])
        # mean 0 and std 1: the standardized windows are the windows
        frame = ensemble.WindowFrame(w, mean=0.0, std=1.0)
        det = ensemble.FittedDetector(
            "pca:g", "pca", ensemble.DetectorCategory.REDUCTION, "g", {"frame": frame}
        )
        for start in (0, n // 2, n - 1):
            used = full_starts >= max(0, start - w + 1)
            windows = frame.windows(values, start)
            for vote in ("any", "majority", "all"):
                expected = naive_point_flags(
                    full[used].sum(1) > 0, full_starts[used], w, n, start, vote
                )
                got = _window_point_flags(det, windows, vote)
                assert got.tolist() == expected.tolist()


def test_difference_orders():
    x = np.array([1.0, 4.0, 9.0, 16.0, 25.0])
    assert _apply_differencing(x, ArimaOrder(0, 1, 0)).tolist() == [3.0, 5.0, 7.0, 9.0]
    assert _apply_differencing(x, ArimaOrder(0, 2, 0)).tolist() == [2.0, 2.0, 2.0]
    seasonal = ArimaOrder(0, 0, 0, (0, 1, 0, 4))
    assert _apply_differencing(np.arange(8.0), seasonal).tolist() == [4.0, 4.0, 4.0, 4.0]
    with pytest.raises(DataError):
        _apply_differencing(x, ArimaOrder(0, 5, 0))


def test_acf_matches_direct_summation():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(200)
    r = acf(x, 10)
    # oracle: direct double loop
    xbar = x.mean()
    denom = sum((xi - xbar) ** 2 for xi in x)
    for k in range(11):
        direct = sum((x[t] - xbar) * (x[t + k] - xbar) for t in range(len(x) - k)) / denom
        assert abs(r[k] - direct) < 1e-12
    assert r[0] == 1.0


def test_acf_lag1_of_ar1():
    # AR(1) with phi=0.9 has theoretical r(1) ~ 0.9
    rng = np.random.default_rng(0)
    x = np.zeros(5000)
    for t in range(1, len(x)):
        x[t] = 0.9 * x[t - 1] + rng.standard_normal()
    assert abs(acf(x, 1)[1] - 0.9) < 0.05


def test_estimate_period_pure_sine_both_methods():
    t = np.arange(240)
    x = np.sin(2 * np.pi * t / 12)
    assert estimate_period(x, ACF_METHOD) == 12
    assert estimate_period(x, PERIODOGRAM_METHOD) == 12


def test_estimate_period_noise_returns_zero():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(512)
    assert estimate_period(x, PERIODOGRAM_METHOD) == 0


def test_estimate_period_periodogram_matches_dft_oracle():
    rng = np.random.default_rng(9)
    t = np.arange(300)
    x = np.sin(2 * np.pi * t / 20) + 0.1 * rng.standard_normal(300)
    # oracle: explicit DFT magnitude via the definition
    n = len(x)
    xc = x - x.mean()
    mags = []
    for f in range(1, n // 2 + 1):
        re = sum(xc[j] * math.cos(2 * math.pi * f * j / n) for j in range(n))
        im = sum(xc[j] * math.sin(2 * math.pi * f * j / n) for j in range(n))
        mags.append(re * re + im * im)
    best_f = 1 + mags.index(max(mags))
    assert estimate_period(x, PERIODOGRAM_METHOD) == round(n / best_f) == 20


def test_estimate_period_too_short():
    with pytest.raises(DataError):
        estimate_period(np.arange(8.0))


def test_rms_and_standardize():
    assert rms(np.array([3.0, 4.0])) == pytest.approx(math.sqrt(12.5))
    X = np.array([[1.0, 5.0], [3.0, 5.0], [5.0, 5.0]])
    std, mean, dev = standardize(X)
    assert mean.tolist() == [3.0, 5.0]
    assert dev[1] == 1.0  # constant column: deviation recorded as 1
    assert np.allclose(std[:, 0].mean(), 0.0)
    assert np.allclose(np.sqrt(np.mean(std[:, 0] ** 2)), 1.0)
    # round trip
    assert np.allclose(std * dev + mean, X)
