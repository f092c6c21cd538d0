"""The per-query phase-1 simplex: the oracle of ``classify_batch``.

``classify_batch`` steps every query's simplex in lockstep.  This module
keeps the loop it replaced: one query at a time, with the same
tolerances, caps, pivot rules and error messages, read from
``chfkit.validity`` at call time so a monkeypatched cap applies to both.
The lockstep loop must give its slack, pivots and Bland pivots bit for
bit, and raise its first error.  ``phase1`` also returns the primal
solution and the duals, which the certificate checks read.
"""

import numpy as np

from chfkit import validity
from chfkit.mlp import Scaler
from chfkit.validity import SimplexError


def phase1(a, b):
    """Minimize the sum of artificial variables for A x = b, x >= 0.

    The artificial column of row i is sign(b_i) e_i, so the all-artificial
    start is feasible without flipping A.  Returns (objective, x, y,
    pivots, bland_pivots): the primal solution over the columns of A, the
    duals of the equality constraints and the pivot counts.
    """
    m, n = a.shape
    sign = np.where(b < 0.0, -1.0, 1.0)
    artificial = np.diag(sign)
    bmat = artificial.copy()
    basis = np.arange(n, n + m)
    cb = np.ones(m)
    red = np.empty(n + m)
    pivots = bland = degenerate = 0
    while True:
        try:
            binv = np.linalg.inv(bmat)
        except np.linalg.LinAlgError:
            raise SimplexError(f"singular basis ({pivots} pivots taken)") from None
        xb = binv @ b
        y = cb @ binv
        np.matmul(-y, a, out=red[:n])
        red[n:] = 1.0 - y * sign
        red[basis] = 0.0
        use_bland = degenerate >= validity._DEGENERATE_RUN
        # argmin and argmax both return the lowest index on ties
        e = int(np.argmax(red < -validity._PIVOT_TOL) if use_bland else np.argmin(red))
        if red[e] >= -validity._PIVOT_TOL:
            break
        if pivots >= validity._MAX_PIVOTS:
            raise SimplexError(f"phase-1 simplex hit the pivot cap ({pivots} pivots taken)")
        a_e = a[:, e] if e < n else artificial[:, e - n]
        alpha = binv @ a_e
        ok = alpha > validity._PIVOT_TOL
        if not ok.any():
            raise SimplexError(f"phase-1 LP unbounded ({pivots} pivots taken)")
        ratio = np.where(ok, np.maximum(xb, 0.0) / np.where(ok, alpha, 1.0), np.inf)
        ties = np.flatnonzero(ratio <= ratio.min() + validity._TIE_TOL)
        if not use_bland:
            ties = ties[alpha[ties] == alpha[ties].max()]
        r = ties[np.argmin(basis[ties])]
        degenerate = 0 if ratio[r] > validity._TIE_TOL else degenerate + 1
        pivots += 1
        bland += use_bland
        bmat[:, r] = a_e
        basis[r] = e
        cb[r] = float(e >= n)
    xb = np.linalg.solve(bmat, b)
    if xb.min() < -validity._NEGATIVE_TOL * max(1.0, float(np.abs(b).max())):
        raise SimplexError(f"infeasible final basis, a basic value of {xb.min():.3g} "
                           f"({pivots} pivots taken)")
    orig = basis < n
    x = np.zeros(n)
    x[basis[orig]] = xb[orig]
    return float(np.sum(xb[~orig])), x, y, pivots, bland


def standardized_lp(train, queries, scaler=None):
    """(A, b rows) as ``classify_batch`` builds them: A holds the
    standardized training rows as columns over a row of ones, and each b
    the standardized query with a trailing 1."""
    train = np.atleast_2d(np.asarray(train, dtype=float))
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if scaler is None:
        scaler = Scaler.fit(train)
    a = np.vstack([scaler.transform(train).T, np.ones(train.shape[0])])
    return a, [np.append(q, 1.0) for q in scaler.transform(queries)]


def classify_rows(train, queries, scaler=None):
    """(slack, pivots, bland_pivots) arrays of the queries, one ``phase1``
    after another; the first failing query raises its SimplexError with
    its 0-based row."""
    a, bs = standardized_lp(train, queries, scaler)
    out = np.empty(len(bs)), np.empty(len(bs), dtype=np.int64), np.empty(len(bs), dtype=np.int64)
    for row, b in enumerate(bs):
        try:
            out[0][row], _, _, out[1][row], out[2][row] = phase1(a, b)
        except SimplexError as e:
            raise SimplexError(f"hull query row {row}: {e}") from None
    return out
