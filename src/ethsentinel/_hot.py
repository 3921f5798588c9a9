"""The two scalar hot loops: the most-violating-pair solver for the
one-class dual and the conditional-sum-of-squares residual recursion
for ARMA models.

``kernels`` and ``predictive`` import them by name.
"""

from __future__ import annotations

import numpy as np

# there is no compiled backend; the benchmark stamps this flag on its records
COMPILED = False

_EPS = 1e-12


def smo_solve(G, a, C, tol, max_iter, record_objective=False):
    """Minimize 0.5 a'Ga s.t. 0 <= a_i <= C, sum(a) = 1, in place on ``a``.

    Returns (iterations, converged, objective_history). The history is
    empty unless ``record_objective`` is set.
    """
    G = np.asarray(G, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    g = G @ a
    history = []
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
        if record_objective:
            history.append(0.5 * float(a @ G @ a))
    return it, converged, history


def css_residuals(w, c, phi, sphi, theta, stheta, s, start, history=None):
    """One-step ARMA residuals e_t = w_t - prediction for t >= start.

    prediction = c + sum phi_i w_{t-i} + sum sphi_j w_{t-js}
                   - sum theta_i e_{t-i} - sum stheta_j e_{t-js}

    The first ``start`` residuals are ``history``, the residuals a
    recursion ended with, so that the recursion continues from them; by
    default they are zeros (burn-in).
    """
    w = np.asarray(w, dtype=np.float64)
    n = len(w)
    e = np.zeros(n)
    if history is not None:
        e[:start] = history
    p = len(phi)
    P = len(sphi)
    q = len(theta)
    Q = len(stheta)
    for t in range(start, n):
        pred = c
        for i in range(p):
            pred += phi[i] * w[t - 1 - i]
        for j in range(P):
            pred += sphi[j] * w[t - (j + 1) * s]
        for i in range(q):
            pred -= theta[i] * e[t - 1 - i]
        for j in range(Q):
            pred -= stheta[j] * e[t - (j + 1) * s]
        e[t] = w[t] - pred
    return e
