"""Time-series representations and statistical primitives.

Two domains are used throughout: the sample domain (one point per
transaction, duplicates in time allowed until merged) and the time domain
(a uniform grid where minutes without transactions appear as zeros).
All standard deviations use the population (1/n) convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

SAMPLE_DOMAIN = "sample"
TIME_DOMAIN = "time"


@dataclass(frozen=True)
class TimeSeries:
    """Ordered (timestamp, value) pairs with a domain tag.

    ``step`` is None in the sample domain; in the time domain it is the
    grid spacing in seconds and timestamps satisfy t_i = t_0 + i*step.
    """

    timestamps: np.ndarray
    values: np.ndarray
    step: int | None = None

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.int64)
        vals = np.asarray(self.values, dtype=np.float64)
        if ts.shape != vals.shape:
            raise DataError("timestamps and values must have the same length")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)
        if self.step is not None:
            if self.step <= 0:
                raise DataError("grid step must be positive")
            if len(ts) > 1 and np.any(np.diff(ts) != self.step):
                raise DataError("time-domain timestamps must lie on a uniform grid")

    @property
    def domain(self) -> str:
        return SAMPLE_DOMAIN if self.step is None else TIME_DOMAIN

    def __len__(self) -> int:
        return len(self.timestamps)


def merge_cooccurring(series: TimeSeries) -> TimeSeries:
    """Sum values that share an identical timestamp (point summation)."""
    if series.step is not None:
        raise DataError("merge_cooccurring expects a sample-domain series")
    ts = series.timestamps
    if len(ts) == 0:
        return series
    if np.any(np.diff(ts) < 0):
        raise DataError("series must be sorted by timestamp")
    uniq, inverse = np.unique(ts, return_inverse=True)
    summed = np.zeros(len(uniq))
    np.add.at(summed, inverse, series.values)
    return TimeSeries(uniq, summed)


def resample(series: TimeSeries, step: int) -> TimeSeries:
    """Project a merged sample-domain series onto a uniform grid.

    Each cell [t, t+step) holds the sum of sample values falling in it;
    cells with no samples are zero (silence is explicit).
    """
    if step <= 0:
        raise DataError("step must be positive")
    if len(series) == 0:
        raise DataError("cannot resample an empty series")
    ts = series.timestamps
    t0 = (ts[0] // step) * step
    t_end = -(-ts[-1] // step) * step  # ceil
    n_cells = int((t_end - t0) // step)
    if ts[-1] == t_end:  # last sample sits on the grid boundary
        n_cells += 1
    grid_ts = t0 + step * np.arange(n_cells, dtype=np.int64)
    cells = ((ts - t0) // step).astype(np.int64)
    values = np.zeros(n_cells)
    np.add.at(values, cells, series.values)
    return TimeSeries(grid_ts, values, step=step)


def acf(values: np.ndarray, max_lag: int) -> np.ndarray:
    """Sample autocorrelation r(0..max_lag); r(0) = 1.

    r(k) = sum (x_t - xbar)(x_{t+k} - xbar) / sum (x_t - xbar)^2.
    """
    x = np.asarray(values, dtype=np.float64)
    n = len(x)
    if n <= max_lag:
        raise DataError("series must be longer than max_lag")
    xc = x - x.mean()
    denom = float(np.dot(xc, xc))
    if denom == 0.0:
        raise DataError("autocorrelation undefined for a constant series")
    r = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        r[k] = np.dot(xc[: n - k], xc[k:]) / denom
    return r


ACF_METHOD = "acf"
PERIODOGRAM_METHOD = "periodogram"

# Fisher's g-test significance level for the periodogram peak.
_PERIODOGRAM_ALPHA = 0.01


def estimate_period(values: np.ndarray, method: str = ACF_METHOD) -> int:
    """Dominant period in grid steps, or 0 when none is significant.

    ACF method: first local maximum of r(k), k >= 2, above the 2/sqrt(n)
    large-sample band. Periodogram method: n / argmax of the DFT magnitude
    spectrum (bin 0 excluded), gated by Fisher's g-test.
    """
    x = np.asarray(values, dtype=np.float64)
    n = len(x)
    if n < 16:
        raise DataError("need at least 16 points to estimate a period")
    if method == ACF_METHOD:
        max_lag = n // 2
        try:
            r = acf(x, max_lag)
        except DataError:
            return 0
        threshold = 2.0 / math.sqrt(n)
        for k in range(2, max_lag):
            if r[k] > threshold and r[k] >= r[k - 1] and r[k] >= r[k + 1]:
                return k
        return 0
    if method == PERIODOGRAM_METHOD:
        spectrum = np.abs(np.fft.rfft(x - x.mean())) ** 2
        power = spectrum[1:]
        total = power.sum()
        if total == 0.0:
            return 0
        best = int(np.argmax(power))
        g = power[best] / total
        m = len(power)
        # Fisher's g-test p-value, first-order Bonferroni term.
        p_value = min(1.0, m * (1.0 - g) ** (m - 1))
        if p_value > _PERIODOGRAM_ALPHA:
            return 0
        return int(round(n / (best + 1)))
    raise DataError(f"unknown period estimation method: {method!r}")


def rms(residuals: np.ndarray) -> float:
    """Root mean square."""
    x = np.asarray(residuals, dtype=np.float64)
    if len(x) == 0:
        raise DataError("rms of an empty sequence")
    return float(np.sqrt(np.mean(x * x)))


def standardize(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-wise zero mean, unit deviation (1/n convention).

    Zero-deviation columns are centered only and their deviation is
    recorded as 1 so un-standardizing is always well defined.
    """
    X = np.asarray(matrix, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise DataError("standardize expects a matrix with at least 2 rows")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return (X - mean) / std, mean, std
