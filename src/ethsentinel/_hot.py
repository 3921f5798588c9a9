"""The two scalar hot loops: the most-violating-pair solver for the
one-class dual and the conditional-sum-of-squares residual recursion
for ARMA models.

The CSS recursion sums the AR part of every prediction as whole numpy
arrays and runs only the MA recursion, the part that feeds on its own
residuals, as a loop over Python floats; a 5760-cell SARIMA pass takes
under 2 ms instead of the 14-17 ms of a loop over numpy scalars. The
residuals are bit-identical to that loop's (``tests/oracles.py`` keeps
it as ``naive_css_residuals``).

``kernels`` and ``predictive`` import them by name.
"""

from __future__ import annotations

import numpy as np

# there is no compiled backend; the benchmark stamps this flag on its records
COMPILED = False

_EPS = 1e-12


def smo_solve(G, a, C, tol, max_iter):
    """Minimize 0.5 a'Ga s.t. 0 <= a_i <= C, sum(a) = 1, in place on ``a``.

    Returns (iterations, converged).
    """
    G = np.asarray(G, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    g = G @ a
    it = 0
    converged = False
    while it < max_iter:
        gi = np.where(a < C - _EPS, g, np.inf)
        gj = np.where(a > _EPS, g, -np.inf)
        if not np.isfinite(gi).any() or not np.isfinite(gj).any():
            converged = True  # every alpha pinned to a bound: vertex optimum
            break
        i = int(np.argmin(gi))
        j = int(np.argmax(gj))
        violation = g[j] - g[i]
        if violation < tol:
            converged = True
            break
        eta = G[i, i] + G[j, j] - 2.0 * G[i, j]
        if eta < _EPS:
            eta = _EPS
        t = violation / eta
        t = min(t, C - a[i], a[j])
        a[i] += t
        a[j] -= t
        g += t * (G[:, i] - G[:, j])
        it += 1
    return it, converged


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
