"""Predictive detector bank: S/ARIMA forecasting, seasonal-trend
decomposition and CART regression, with the lag pairs (``_lag_pairs``)
that CART and the engine's k-NN forecaster fit on. The engine turns
their one-step residuals into flags (``ensemble.DetectorKind``).

ARMA coefficients follow the sign convention
x_t = c + phi_1 x_{t-1} + ... - theta_1 e_{t-1} - ...  (lagged errors
subtracted). Estimation is Hannan-Rissanen (long-AR residual proxy,
then least squares) followed by one Gauss-Newton pass on the
conditional sum of squares; deterministic, no optimizer dependency.
The long AR, with m = P*s lags for SARIMA, solves its normal
equations by one Cholesky factor of a Gram built from shifted sums of
the series, without its lag design; ``lstsq`` stays for a nearly
rank-deficient long AR and for the small second-stage regression,
whose design, like the lag pairs of k-NN and CART, ``_lagged`` builds.
Code reads an order's seasonal part through ``ArimaOrder.seasonal_part``
alone; a non-seasonal order's (0, 0, 0, 1) adds no term, so one path
serves ARIMA and SARIMA.

A fitted model keeps its coefficients in one array, in
``_split_params`` order: the intercept c, then phi, Phi, theta, Theta.
The CSS residual recursion (``css_residuals``) sums the AR part of every
prediction as whole numpy arrays and runs only the MA recursion, the
part that feeds on its own residuals, as a loop over Python floats; a
5760-cell SARIMA pass takes under 2 ms instead of the 14-17 ms of a loop
over numpy scalars. The residuals are bit-identical to that loop's
(``tests/oracles.py`` keeps it as ``naive_css_residuals``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
            return
        part = self.seasonal
        ints = isinstance(part, tuple) and all(isinstance(x, (int, np.integer)) for x in part)
        if not ints or len(part) != 4 or min(part[:3]) < 0 or part[3] < 2:
            raise DataError(f"seasonal part must be four ints P, D, Q >= 0, s >= 2: {part!r}")
        P, D, Q, _ = part
        if P + Q < 1 and D < 1:
            raise DataError("need P + Q >= 1 or D >= 1 in the seasonal part")

    @property
    def seasonal_part(self) -> tuple[int, int, int, int]:
        """(P, D, Q, s), or (0, 0, 0, 1), which adds no term, for none."""
        return (0, 0, 0, 1) if self.seasonal is None else self.seasonal

    @property
    def param_count(self) -> int:
        P, _, Q, _ = self.seasonal_part
        return self.p + self.q + P + Q


@dataclass(frozen=True)
class ArimaModel:
    """A fitted (S)ARIMA model; ``params`` holds its coefficients in
    ``_split_params`` order."""

    order: ArimaOrder
    params: np.ndarray
    residual_rms: float

    def __post_init__(self):
        if len(self.params) != 1 + self.order.param_count:
            raise DataError("coefficient count does not match the order")

    @property
    def phi(self) -> np.ndarray:
        return _split_params(self.order, self.params)[1]

    @property
    def theta(self) -> np.ndarray:
        return _split_params(self.order, self.params)[3]

    @property
    def recursion_contracts(self) -> bool:
        """Whether the residual recursion forgets where it started: its
        additive MA part contracts, sum |theta_i| + sum |Theta_j| < 1 (a
        sufficient condition for invertibility; Box & Jenkins 1970).
        Otherwise a recursion run on without restarts can grow without
        bound."""
        _, _, _, theta, stheta, _ = _split_params(self.order, self.params)
        return float(np.abs(theta).sum() + np.abs(stheta).sum()) < 1.0


@dataclass(frozen=True)
class CssCarry:
    """Where a model's residual recursion over a series ended: its last
    ``_recursion_start(order)`` differenced values and residuals, from
    which it continues over cells appended to the series."""

    w: np.ndarray
    e: np.ndarray


def _apply_differencing(values: np.ndarray, order: ArimaOrder) -> np.ndarray:
    """The fully differenced series: regular differences first, then
    seasonal."""
    w = np.asarray(values, dtype=np.float64)
    for _ in range(order.d):
        if len(w) < 2:
            raise DataError("series too short for differencing order")
        w = np.diff(w)
    _, D, _, s = order.seasonal_part
    for _ in range(D):
        if len(w) <= s:
            raise DataError("series too short for seasonal differencing")
        w = w[s:] - w[:-s]
    return w


def _recursion_start(order: ArimaOrder) -> int:
    """The largest lag of the ARMA recursion."""
    P, _, Q, s = order.seasonal_part
    return max(order.p, order.q, P * s, Q * s)


def _split_params(order: ArimaOrder, params: np.ndarray):
    """(c, phi, Phi, theta, Theta, s) of a model's parameter array: the
    one place that knows its layout. The slices are views."""
    p, q = order.p, order.q
    P, _, Q, s = order.seasonal_part
    c = float(params[0])
    phi = np.ascontiguousarray(params[1 : 1 + p])
    sphi = np.ascontiguousarray(params[1 + p : 1 + p + P])
    theta = np.ascontiguousarray(params[1 + p + P : 1 + p + P + q])
    stheta = np.ascontiguousarray(params[1 + p + P + q :])
    return c, phi, sphi, theta, stheta, s


def css_residuals(w, c, phi, sphi, theta, stheta, s, start, history=None):
    """One-step ARMA residuals e_t = w_t - prediction for t >= start.

    prediction = c + sum phi_i w_{t-i} + sum sphi_j w_{t-js}
                   - sum theta_i e_{t-i} - sum stheta_j e_{t-js}

    The first ``start`` residuals are ``history``, the residuals a
    recursion ended with, so that the recursion continues from them; by
    default they are zeros (burn-in). ``start`` is at least the largest
    lag.

    The terms are summed in the order above. Those that read no residual
    computed here are whole-array operations: the AR part, and the MA
    terms ahead of the first whose lag is shorter than the span [start,
    n), which read only ``history``. The rest of the MA recursion runs
    cell by cell over Python floats, which round as numpy's float64
    scalars do: every residual is the one a scalar loop over the whole
    sum gives, bit for bit.
    """
    w = np.asarray(w, dtype=np.float64)
    n = len(w)
    e = np.zeros(n)
    if history is not None:
        e[:start] = history
    ar = [(phi[i], i + 1) for i in range(len(phi))]
    ar += [(sphi[j], (j + 1) * s) for j in range(len(sphi))]
    ma = [(float(theta[i]), i + 1) for i in range(len(theta))]
    ma += [(float(stheta[j]), (j + 1) * s) for j in range(len(stheta))]
    if any(lag > start for _, lag in ar + ma):
        raise ValueError("the recursion must start at or after its largest lag")
    pred = np.full(n - start, c, dtype=np.float64)
    for coef, lag in ar:
        pred += coef * w[start - lag : n - lag]
    while ma and ma[0][1] >= n - start:
        coef, lag = ma.pop(0)
        pred -= coef * e[start - lag : n - lag]
    if not ma:
        e[start:] = w[start:] - pred
        return e
    # ``past[-lag]`` is e_{t-lag} once e_{t-1} is appended. Of the
    # residuals before ``start``, only those some lag reaches are read
    # and converted; the other places hold a zero that no lag reads.
    depth = max(lag for _, lag in ma)
    past = [0.0] * depth
    for _, lag in ma:
        reach = min(lag, n - start)
        past[depth - lag : depth - lag + reach] = e[start - lag : start - lag + reach].tolist()
    append = past.append
    if len(ma) == 2:
        # the engine's SARIMA shape (theta, stheta), spelled out: an
        # inner loop would cost a third of a full pass
        (a, i), (b, j) = ma
        for wt, pt in zip(w[start:].tolist(), pred.tolist()):
            append(wt - (pt - a * past[-i] - b * past[-j]))
    else:
        for wt, pt in zip(w[start:].tolist(), pred.tolist()):
            for coef, lag in ma:
                pt -= coef * past[-lag]
            append(wt - pt)
    e[start:] = past[depth:]
    return e


def _css_residuals(
    w: np.ndarray, order: ArimaOrder, params: np.ndarray, history: np.ndarray | None = None
) -> np.ndarray:
    """One-step residuals on the differenced scale; the burn-in entries
    are ``history`` (the residuals the recursion continues from) or 0."""
    return css_residuals(w, *_split_params(order, params), _recursion_start(order), history)


def _lagged(x: np.ndarray, lags, t0: int) -> np.ndarray:
    """Lag design of ``x`` over cells [t0, len(x)): column j holds ``x``
    lagged by ``lags[j]`` <= t0, entry (i, j) being x[t0 + i - lags[j]]."""
    design = np.empty((len(x) - t0, len(lags)))
    for j, lag in enumerate(lags):
        design[:, j] = x[t0 - lag : len(x) - lag]
    return design


def _lstsq(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.lstsq(design, target, rcond=None)[0]
    except np.linalg.LinAlgError as exc:
        raise FitError(f"least squares failed: {exc}") from exc


# The k-th pivot of the column-scaled Gram is 1 - R^2 of design column k
# regressed on the columns before it, so a pivot below 1e-4 means some
# lag is 99.99% explained by the others. The normal equations' residuals
# drift from lstsq's by about 1e-15 / pivot relative to their scale (a
# sine plus noise: 6e-12 at pivot 2e-4, 5e-6 at 2e-10), so above the
# floor they stay near 1e-11. A rank-deficient design has no factor, a
# pivot near rounding level or, for a zero column, a NaN one; the
# benchmark workloads' long-AR designs stay above 0.27.
_GRAM_PIVOT_FLOOR = 1e-4


def _long_ar_gram(w: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``design.T @ design`` and ``design.T @ w[m:]`` for the long AR's
    (n-m) x (m+1) design (an intercept column, then lags 1 to m),
    built from shifted sums of ``w`` without the design.

    A lag column is the one before it shifted by one cell, so entry
    (j+1, l+1) of the lag block is entry (j, l) with one product added
    at the head of the series and one dropped at its tail (Hannan &
    Rissanen 1982). The lag-1 row takes m dot products, each later row
    one vector step, and the intercept row a ``cumsum``.
    """
    n = len(w)
    gram = np.empty((m + 1, m + 1))
    sums = np.concatenate(([0.0], np.cumsum(w)))
    lags = np.arange(1, m + 1)
    gram[0, 0] = n - m
    gram[0, 1:] = sums[n - lags] - sums[m - lags]  # lag column k sums w[m-k : n-k]
    gram[1:, 0] = gram[0, 1:]
    # correlate's entry i pairs w[i:] with the given slice: lag m - i
    gram[1, 1:] = np.correlate(w[:-1], w[m - 1 : -1])[::-1]
    gram[1:, 1] = gram[1, 1:]  # the recursion reads column 1
    head = w[: m - 1][::-1]  # w[m-1-l] for l = 1 .. m-1
    tail = w[n - m : n - 1][::-1]  # w[n-1-l]
    for j in range(1, m):
        gram[j + 1, 2:] = gram[j, 1:m] + w[m - 1 - j] * head - w[n - 1 - j] * tail
    rhs = np.empty(m + 1)
    rhs[0] = sums[n] - sums[m]
    rhs[1:] = np.correlate(w[:-1], w[m:])[::-1]
    return gram, rhs


_SUBSTITUTION_BLOCK = 64


def _forward_substitution(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``lower @ x = b`` for a lower-triangular ``lower``, a block
    of rows at a time: each block takes what the rows before it explain
    off its right-hand side and solves its own diagonal block."""
    x = np.empty_like(b)
    for lo in range(0, len(b), _SUBSTITUTION_BLOCK):
        hi = lo + _SUBSTITUTION_BLOCK
        x[lo:hi] = np.linalg.solve(lower[lo:hi, lo:hi], b[lo:hi] - lower[lo:hi, :lo] @ x[:lo])
    return x


def _cholesky_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``chol @ chol.T @ x = b``. The back substitution on
    ``chol.T`` is a forward one with rows and columns reversed."""
    y = _forward_substitution(chol, b)
    return _forward_substitution(chol.T[::-1, ::-1], y[::-1])[::-1]


_CHOLESKY_BLOCK = 128


def _cholesky_in_place(a: np.ndarray) -> None:
    """Overwrite the symmetric positive definite ``a`` with its lower
    Cholesky factor, strict upper triangle exactly 0, or raise
    ``LinAlgError`` (Golub & Van Loan, section 4.2).

    Left-looking, one block of columns at a time: the block takes off
    what the columns before it explain, ``np.linalg.cholesky`` factors
    its diagonal block and ``_forward_substitution`` solves the panel
    below that. No buffer beyond one block column is allocated, where
    ``np.linalg.cholesky(a)`` holds a copy and a new output besides
    ``a``. A matrix of at most one block is a single
    ``np.linalg.cholesky`` call, so it keeps that call's bits.
    """
    for lo in range(0, len(a), _CHOLESKY_BLOCK):
        hi = lo + _CHOLESKY_BLOCK
        a[lo:, lo:hi] -= a[lo:, :lo] @ a[lo:hi, :lo].T
        diag = a[lo:hi, lo:hi] = np.linalg.cholesky(a[lo:hi, lo:hi])
        a[hi:, lo:hi] = _forward_substitution(diag, a[hi:, lo:hi].T).T
        # _cholesky_solve reads whole diagonal blocks, upper triangle too
        a[lo:hi, hi:] = 0.0


def _long_ar_residuals(w: np.ndarray, m: int) -> np.ndarray:
    """Residuals of the least-squares AR(m) fit with intercept of
    ``w[m:]`` on its m lags, zero over the first m cells.

    The fit solves the normal equations: the Gram comes from shifted
    sums of ``w`` (``_long_ar_gram``), is scaled to unit diagonal and
    factored in place (``_cholesky_in_place``), so the one (m+1)-square
    buffer both checks the pivots and solves the system. ``lstsq`` on
    the (n-m) x (m+1) design solves it instead when the scaled Gram has
    no Cholesky factor or a pivot below ``_GRAM_PIVOT_FLOOR``, where
    squaring the condition number could cost the solution its digits.
    Only that path builds the design.
    """
    n = len(w)
    # the Gram, scaled and then factored in place: the one (m+1)-square buffer
    chol, rhs = _long_ar_gram(w, m)
    scale = np.sqrt(chol.diagonal())
    with np.errstate(divide="ignore", invalid="ignore"):
        chol /= scale[:, None]
        chol /= scale
        try:
            _cholesky_in_place(chol)
            pivot = chol.diagonal().min() ** 2
        except np.linalg.LinAlgError:
            pivot = np.nan
    e_hat = np.zeros(n)
    if pivot >= _GRAM_PIVOT_FLOOR:
        coeffs = _cholesky_solve(chol, rhs / scale) / scale
        e_hat[m:] = w[m:] - coeffs[0] - np.convolve(w[:-1], coeffs[1:], "valid")
    else:
        design = np.empty((n - m, m + 1))
        design[:, 0] = 1.0
        design[:, 1:] = sliding_window_view(w[:-1], m)[:, ::-1]  # column k is lag k
        e_hat[m:] = w[m:] - design @ _lstsq(design, w[m:])
    return e_hat


def _hannan_rissanen(w: np.ndarray, order: ArimaOrder) -> np.ndarray:
    """Hannan-Rissanen estimates of the ARMA parameters of ``w``, in
    ``_split_params`` order (Hannan & Rissanen 1982).

    Stage 1 fits a long AR(m) by least squares and keeps its residuals
    as innovation estimates (``_long_ar_residuals``). Stage 2 regresses
    ``w`` on an intercept, its lags 1 to p and s to P*s, and the negated
    estimates' lags 1 to q and s to Q*s, with ``lstsq``.
    """
    p, q = order.p, order.q
    P, _, Q, s = order.seasonal_part
    n = len(w)
    if np.var(w) == 0.0:
        raise FitError("constant series after differencing: collinear lags")

    # Stage 1 fits a long AR(m) on n - m rows; stage 2 starts at the
    # first cell whose lagged estimates all follow stage 1's m-cell
    # burn-in, and fits on n - t0 rows.
    m = max(int(math.ceil(10 * math.log10(max(n, 10)))), _recursion_start(order))
    m = min(m, n // 2)
    ar_lags = [*range(1, p + 1), *range(s, P * s + 1, s)]
    ma_lags = [*range(1, q + 1), *range(s, Q * s + 1, s)]
    t0 = max(1, *ar_lags, *(m + lag for lag in ma_lags))
    if m < 1 or n - max(m, t0) < order.param_count + 2:
        raise DataError("series too short for the requested order")
    e_hat = _long_ar_residuals(w, m) if q + Q > 0 else np.zeros(n)
    lagged = (_lagged(w, ar_lags, t0), _lagged(-e_hat, ma_lags, t0))
    design = np.column_stack((np.ones(n - t0), *lagged))
    params = _lstsq(design, w[t0:])
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
    w = _apply_differencing(values, order)
    if len(w) < 10 * (order.p + order.q + 1):
        raise DataError("series too short for the requested order")
    params = _hannan_rissanen(w, order)
    params = _gauss_newton_pass(w, order, params)
    if not np.all(np.isfinite(params)):
        raise NumericError("non-finite coefficients after refinement")
    residuals = _css_residuals(w, order, params)[_recursion_start(order) :]
    return ArimaModel(order, params, rms(residuals) if len(residuals) else 0.0)


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
    params = model.params
    burn_in = _recursion_start(order)
    _, D, _, s = order.seasonal_part
    lag = order.d + D * s
    if carry is not None and lag <= start < len(values):
        w_new = _apply_differencing(values[start - lag :], order)
        w = np.concatenate((carry.w, w_new))
        e = _css_residuals(w, order, params, carry.e)
        offset = start
    else:
        w = _apply_differencing(values, order)
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
    """p, q in [1, max_order] and d in [0, max_order), and so (P, D, Q)
    given a period, in (p, d, q, P, D, Q) lexicographic order."""
    pdq = (range(1, max_order + 1), range(max_order), range(1, max_order + 1))
    seasonal = pdq if seasonal_period is not None else ()
    return [
        ArimaOrder(*c[:3], (*c[3:], seasonal_period) if seasonal else None)
        for c in itertools.product(*pdq, *seasonal)
    ]


def _tie_key(order: ArimaOrder):
    return (order.param_count, order.p)


def _scored_orders(max_order: int, seasonal_period: int | None, score) -> list:
    """(score(order), order) of each candidate order in turn, skipping
    those that fail to fit or score a non-finite value."""
    if max_order < 1:
        raise DataError("max_order must be >= 1")
    scored, failures = [], []
    for order in _candidate_orders(max_order, seasonal_period):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                value = score(order)
            if not math.isfinite(value):
                raise FitError("unstable candidate: non-finite score")
            scored.append((value, order))
        except (DataError, FitError, NumericError) as exc:
            failures.append((order, str(exc)))
    if not scored:
        raise FitError(f"all candidate orders failed: {failures}")
    return scored


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
    if folds < 1:
        raise DataError("need at least one fold")
    n = len(train)
    boundaries = np.linspace(n // 2, n, folds + 1, dtype=int)

    def cv_error(order):
        errors = []
        for f in range(folds):
            lo, hi = boundaries[f], boundaries[f + 1]
            if hi <= lo:
                continue
            model = arima_fit(train[:lo], order)
            _, residuals, offset = arima_predict_in_sample(model, train[:hi])
            errors.append(float(np.mean(residuals[lo - offset : hi - offset] ** 2)))
        if not errors:
            raise FitError("no fold to score")
        return float(np.mean(errors))

    scored = _scored_orders(max_order, seasonal_period, cv_error)
    best_score = min(score for score, _ in scored)
    tied = [order for score, order in scored if score <= best_score * (1.0 + tie_tolerance)]
    return min(tied, key=_tie_key)


def select_order_aic(
    train: np.ndarray, max_order: int, seasonal_period: int | None = None
) -> ArimaOrder:
    """Unsupervised order selection by the Akaike information criterion;
    of equal (AIC, ``_tie_key``) pairs, the first candidate wins."""
    train = np.asarray(train, dtype=np.float64)

    def order_aic(order):
        _, residuals, _ = arima_predict_in_sample(arima_fit(train, order), train)
        return aic(len(residuals), float(residuals @ residuals), order)

    scored = _scored_orders(max_order, seasonal_period, order_aic)
    return min(scored, key=lambda pair: (pair[0], _tie_key(pair[1])))[1]


@dataclass(frozen=True)
class Decomposition:
    """Additive trend + seasonal + residual split of a series."""

    trend: np.ndarray
    seasonal: np.ndarray
    residual: np.ndarray
    period: int


def trend_taps(period: int) -> np.ndarray:
    """Weights of the centred moving average behind the decomposition's
    trend: ``period`` equal taps for an odd period, the standard 2 x
    period average (period + 1 taps, half weight at the ends) for an
    even one."""
    if period % 2 == 0:
        taps = np.full(period + 1, 1.0 / period)
        taps[0] = taps[-1] = 0.5 / period
        return taps
    return np.full(period, 1.0 / period)


def stl_decompose(values: np.ndarray, period: int, average: np.ndarray | None = None) -> Decomposition:
    """Classical additive decomposition (moving-average trend,
    per-phase seasonal means re-centered to zero, exact residual).

    ``average`` is ``np.convolve(values, trend_taps(period), "valid")``,
    the centred moving average where it is defined, for a caller that
    already has it; by default it is computed here.
    """
    x = np.asarray(values, dtype=np.float64)
    n = len(x)
    if period < 2:
        raise DataError("period must be >= 2")
    if n < 2 * period:
        raise DataError("need at least two full periods")
    taps = trend_taps(period)
    half = len(taps) // 2
    valid = np.convolve(x, taps, mode="valid") if average is None else average
    if len(valid) != n - len(taps) + 1:
        raise DataError("moving average does not match the series")
    trend = np.full(n, np.nan)
    trend[half : half + len(valid)] = valid
    trend[:half] = trend[half]
    trend[half + len(valid):] = trend[half + len(valid) - 1]

    # Per-phase means use only the interior positions [half, half +
    # len(valid)), where the centered average is defined; the
    # edge-filled trend would bias them. The phase at interior offset o
    # < period recurs at o + k * period: one more time than the others
    # for the first ``extra`` offsets. Gather the offsets of each count
    # as rows of positions in increasing order and sum along the rows.
    detrended = x - trend
    base, extra = divmod(len(valid), period)
    offsets = np.arange(period)
    phase_means = np.empty(period)
    for group, count in ((offsets[:extra], base + 1), (offsets[extra:], base)):
        rows = detrended[half + group[:, None] + period * np.arange(count)]
        phase_means[(half + group) % period] = rows.sum(axis=1) / count
    phase_means -= phase_means.mean()
    seasonal = np.tile(phase_means, n // period + 1)[:n]
    residual = x - trend - seasonal
    return Decomposition(trend=trend, seasonal=seasonal, residual=residual, period=period)


def _lag_pairs(train: np.ndarray, lags: int) -> tuple[np.ndarray, np.ndarray]:
    train = np.asarray(train, dtype=np.float64)
    if len(train) <= lags:
        raise DataError("training series must be longer than the lag count")
    return _lagged(train, range(lags, 0, -1), lags), train[lags:]


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


def cart_fit(X: np.ndarray, y: np.ndarray, max_depth: int, min_leaf: int) -> CartRegressor:
    """Greedy variance-reduction regression tree on the rows of an (n,
    lags) matrix and their targets, such as the lag pairs."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if len(X) != len(y) or len(X) < 1:
        raise DataError("need matching, non-empty X and y")
    if max_depth < 0 or min_leaf < 1:
        raise DataError("max_depth must be >= 0 and min_leaf >= 1")
    return CartRegressor(root=_grow(X, y, 0, max_depth, min_leaf))


def cart_predict(regressor: CartRegressor, X: np.ndarray) -> np.ndarray:
    """Predictions for the rows of an (n, lags) matrix."""

    def walk(context):
        node = regressor.root
        while node.feature >= 0:
            node = node.left if context[node.feature] <= node.threshold else node.right
        return node.prediction

    return np.array([walk(row) for row in np.asarray(X, dtype=np.float64)], dtype=np.float64)
