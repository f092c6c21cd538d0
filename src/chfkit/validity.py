"""Interpolation-vs-extrapolation classification of query points.

A query is *interpolated* with respect to a training set when it lies
inside the convex hull of the training points, and *extrapolated*
otherwise.  Membership is decided by linear-programming feasibility

    exists lambda >= 0,  sum(lambda) = 1,  sum(lambda_i x_i) = q

solved with a revised phase-1 simplex (Chvatal, *Linear Programming*,
1983, ch. 7).  The (d+1) x n constraint matrix is built once per batch,
and the simplexes of all queries step in lockstep: each step inverts the
(d+1) x (d+1) bases of the still-active queries in one stacked call and
runs their ratio tests as whole-array expressions, while each query
prices every column with its own matrix-vector product.  The stacked
calls give each query the bits of its own one-matrix calls, so its
slack and pivots do not depend on the rest of the batch.  The entering
column has the most negative reduced cost (Dantzig's rule, lowest index
on ties); after a fixed run of degenerate pivots Bland's rule (Bland,
1977), which cannot cycle, takes over until the objective drops, so
every pivot is deterministic; an LP ending without a sound optimal basis
raises SimplexError for the lowest such query row.  Facet enumeration of
the hull is avoided: in seven dimensions over tens of thousands of
points it explodes combinatorially.

``classify_batch`` returns ``HullVerdicts``, one array per field, and
keeps no certificate: at paper scale the convex weights alone would be
one float per training row per query.

Features are standardized internally by the training statistics before
the test.  Convex-hull membership is invariant under feature-wise
positive rescaling and shifts, so the verdict is identical either way;
standardizing just keeps the 1e-9 feasibility tolerance meaningful
across features with very different units.

The module also provides a small PCA with a deterministic sign
convention, used to project data onto its two leading components for
plotting alongside the hull verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import write_columns
from .mlp import Scaler

__all__ = [
    "FEASIBILITY_TOL",
    "PcaModel",
    "fit_pca",
    "transform",
    "SimplexError",
    "HullVerdicts",
    "ClassificationSummary",
    "classify_batch",
    "write_verdicts_csv",
    "write_projection_csv",
]

# Post-standardization feasibility slack below which a query counts as
# inside; boundary points therefore classify as interpolated.
FEASIBILITY_TOL = 1e-9

_ORTHONORMAL_TOL = 1e-10

# Phase-1 simplex: smallest usable pivot element and reduced cost;
# ratio-test ties and steps (a step within it of zero is degenerate); the
# most negative optimal basic value, relative to max(1, |b|), taken as
# rounding; pivots allowed per query; the run of degenerate pivots after
# which Bland's rule takes over until the objective drops.
_PIVOT_TOL = 1e-12
_TIE_TOL = 1e-15
_NEGATIVE_TOL = 1e-12
_MAX_PIVOTS = 20000
_DEGENERATE_RUN = 10


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PcaModel:
    """Principal components of a data matrix.

    ``components`` holds one orthonormal row per component, sorted by
    ``explained_variance`` in nonincreasing order.  The sign of each row
    is fixed so its largest-magnitude entry is positive.
    """

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        comps = np.asarray(self.components, dtype=float)
        var = np.asarray(self.explained_variance, dtype=float)
        if comps.ndim != 2 or mean.ndim != 1 or var.ndim != 1:
            raise ValueError("components must be 2-D; mean and variances 1-D")
        k, d = comps.shape
        if mean.shape[0] != d or var.shape[0] != k:
            raise ValueError("inconsistent PCA shapes")
        gram = comps @ comps.T
        if np.max(np.abs(gram - np.eye(k))) > _ORTHONORMAL_TOL:
            raise ValueError("component rows are not orthonormal")
        if np.any(np.diff(var) > 0.0) or np.any(var < 0.0):
            raise ValueError("explained variances must be nonincreasing and >= 0")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "explained_variance", var)

    @property
    def n_components(self) -> int:
        return self.components.shape[0]


def fit_pca(x: np.ndarray) -> PcaModel:
    """Fit all-component PCA to an n x d data matrix.

    Uses the population covariance (divide by n) and diagonalizes it
    with ``np.linalg.eigh``.  Rank deficiency is not an error: the
    trailing variances simply come out zero.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("data must be a 2-D matrix")
    n, d = x.shape
    if n < 2 or d < 1:
        raise ValueError("PCA needs at least 2 rows and 1 column")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = (centered.T @ centered) / n
    eigvals, eigvecs = np.linalg.eigh(cov)
    # covariance is positive semidefinite; negatives are rounding noise
    eigvals = np.maximum(eigvals, 0.0)
    order = np.argsort(-eigvals, kind="stable")
    comps = eigvecs[:, order].T.copy()
    for row in comps:
        if row[np.argmax(np.abs(row))] < 0.0:
            row *= -1.0
    return PcaModel(mean=mean, components=comps,
                    explained_variance=eigvals[order])


def transform(model: PcaModel, x: np.ndarray,
              n_components: int | None = None) -> np.ndarray:
    """Project rows of x onto the leading principal components."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    k = model.n_components if n_components is None else int(n_components)
    if not 1 <= k <= model.n_components:
        raise ValueError("n_components out of range")
    if x.shape[1] != model.mean.shape[0]:
        raise ValueError("query dimension does not match the fitted model")
    return (x - model.mean) @ model.components[:k].T


# ---------------------------------------------------------------------------
# Convex-hull membership by phase-1 simplex
# ---------------------------------------------------------------------------

class SimplexError(ArithmeticError):
    """A query's phase-1 simplex stopped without an optimal basis."""


@dataclass(frozen=True)
class HullVerdicts:
    """Membership verdicts of a batch of queries, one array per field.

    ``slack`` is each query's optimal phase-1 objective, the L1 residual of
    the best convex combination in standardized coordinates; ``pivots``
    counts its simplex pivots, ``bland_pivots`` those Bland's rule chose.
    """

    inside: np.ndarray
    slack: np.ndarray
    pivots: np.ndarray
    bland_pivots: np.ndarray

    def __len__(self) -> int:
        return len(self.slack)


@dataclass(frozen=True)
class ClassificationSummary:
    n_inside: int
    n_outside: int


def classify_batch(train: np.ndarray, queries: np.ndarray,
                   tol: float = FEASIBILITY_TOL, scaler: Scaler | None = None,
                   ) -> tuple[HullVerdicts, ClassificationSummary]:
    """Classify every query row; standardization and A are built once.

    ``scaler`` standardizes both matrices; by default it is fitted to
    ``train``.  Each query minimizes the sum of its artificial variables
    for A x = b, x >= 0, where b is the standardized query with a trailing
    1 and the artificial column of row i is sign(b_i) e_i, so the
    all-artificial start is feasible without flipping A.  Raises
    SimplexError naming the lowest 0-based query row whose LP stops
    without an optimal basis.
    """
    train = np.atleast_2d(np.asarray(train, dtype=float))
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if queries.shape[1] != train.shape[1]:
        raise ValueError("query dimension does not match the training matrix")
    if scaler is None:
        scaler = Scaler.fit(train)
    a = np.vstack([scaler.transform(train).T, np.ones(train.shape[0])])
    m, n = a.shape
    b = np.column_stack([scaler.transform(queries), np.ones(len(queries))])
    nq = len(b)
    slack, (pivots, bland) = np.empty(nq), np.zeros((2, nq), dtype=np.int64)
    errors: dict[int, str] = {}
    # the state of the still-active queries, one leading entry each
    rows, sign = np.arange(nq), np.where(b < 0.0, -1.0, 1.0)
    bmat = np.zeros((nq, m, m))
    bmat[:, np.arange(m), np.arange(m)] = sign
    basis, cb = np.tile(np.arange(n, n + m), (nq, 1)), np.ones((nq, m))
    degenerate = np.zeros(nq, dtype=np.int64)
    red = np.empty(n + m)
    while rows.size:
        live, taken = np.ones(rows.size, dtype=bool), pivots[rows]
        # inverted afresh: an updated inverse keeps the error of one
        # ill-conditioned basis in the well-conditioned ones after it
        try:
            binv = np.linalg.inv(bmat)
        except np.linalg.LinAlgError:  # the stack fails as a whole
            binv = np.zeros_like(bmat)
            for i, mat in enumerate(bmat):
                try:
                    binv[i] = np.linalg.inv(mat)
                except np.linalg.LinAlgError:
                    live[i] = False
                    errors[int(rows[i])] = f"singular basis ({taken[i]} pivots taken)"
        xb = (binv @ b[:, :, None])[:, :, 0]
        y = (cb[:, None, :] @ binv)[:, 0, :]
        use_bland = degenerate >= _DEGENERATE_RUN
        # priced one query at a time: one gemv each, its argmin taken while
        # the n reduced costs are in cache
        e, cost = np.empty(rows.size, dtype=np.int64), np.empty(rows.size)
        for i, (neg_y, art, on, bl) in enumerate(zip(-y, 1.0 - y * sign, basis,
                                                       use_bland.tolist())):
            np.matmul(neg_y, a, out=red[:n])
            red[n:] = art
            red[on] = 0.0
            # argmin and argmax both return the lowest index on ties
            e[i] = j = np.argmax(red < -_PIVOT_TOL) if bl else np.argmin(red)
            cost[i] = red[j]
        for i in np.flatnonzero(live & (cost >= -_PIVOT_TOL)).tolist():
            live[i] = False
            try:
                slack[rows[i]] = _final_slack(bmat[i], b[i], basis[i] >= n, taken[i])
            except SimplexError as exc:
                errors[int(rows[i])] = str(exc)
        for i in np.flatnonzero(live & (taken >= _MAX_PIVOTS)).tolist():
            live[i] = False
            errors[int(rows[i])] = f"phase-1 simplex hit the pivot cap ({taken[i]} pivots taken)"
        # entering columns: of A, or the artificial sign_i e_i
        a_e = np.where((e < n)[:, None], a[:, np.minimum(e, n - 1)].T, 0.0)
        artificial = np.flatnonzero(e >= n)
        a_e[artificial, e[artificial] - n] = sign[artificial, e[artificial] - n]
        alpha = (binv @ a_e[:, :, None])[:, :, 0]
        ok = alpha > _PIVOT_TOL
        for i in np.flatnonzero(live & ~ok.any(axis=1)).tolist():
            live[i] = False
            errors[int(rows[i])] = f"phase-1 LP unbounded ({taken[i]} pivots taken)"
        # basic values rounded below zero count as zero; ratio ties go to the
        # largest pivot element, which keeps the basis well conditioned, then
        # to the lowest basic index (under Bland's rule: lowest of all ties)
        ratio = np.where(ok, np.maximum(xb, 0.0) / np.where(ok, alpha, 1.0), np.inf)
        ties = ratio <= ratio.min(axis=1, keepdims=True) + _TIE_TOL
        ties &= use_bland[:, None] | (alpha == np.where(ties, alpha, -np.inf).max(
            axis=1, keepdims=True))
        r = np.where(ties, basis, n + m).argmin(axis=1)
        degenerate = np.where(ratio[np.arange(rows.size), r] > _TIE_TOL, 0, degenerate + 1)
        if errors:  # rows above the lowest failing one cannot change the error raised
            live &= rows < min(errors)
        g = np.flatnonzero(live)
        pivots[rows[g]] += 1
        bland[rows[g]] += use_bland[g]
        bmat[g, :, r[g]] = a_e[g]
        basis[g, r[g]] = e[g]
        cb[g, r[g]] = e[g] >= n
        if g.size < rows.size:
            rows, b, sign, bmat, basis, cb, degenerate = (
                v[g] for v in (rows, b, sign, bmat, basis, cb, degenerate))
    if errors:
        row = min(errors)
        raise SimplexError(f"hull query row {row}: {errors[row]}")
    inside = slack <= tol
    n_in = int(np.count_nonzero(inside))
    return HullVerdicts(inside, slack, pivots, bland), ClassificationSummary(n_in, nq - n_in)


def _final_slack(bmat: np.ndarray, b: np.ndarray, artificial: np.ndarray,
                 pivots: int) -> float:
    """The objective of an optimal basis: the sum of its artificial values."""
    # solved, not multiplied by the inverse (backward stable on a near-singular
    # basis); LAPACK factors bmat as it did for the inverse, so it cannot fail
    xb = np.linalg.solve(bmat, b)
    if xb.min() < -_NEGATIVE_TOL * max(1.0, float(np.abs(b).max())):
        raise SimplexError(f"infeasible final basis, a basic value of {xb.min():.3g} "
                           f"({pivots} pivots taken)")
    return float(np.sum(xb[artificial]))


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def write_verdicts_csv(verdicts: HullVerdicts, path: str) -> None:
    """Write one `row,inside,slack` line per verdict (0-based rows)."""
    write_columns(path, "row,inside,slack", [list(map(str, range(len(verdicts)))),
                                             list(map(str, verdicts.inside.astype(int).tolist())),
                                             verdicts.slack])


def write_projection_csv(model: PcaModel, x: np.ndarray, labels,
                         path: str) -> None:
    """Write the 2-component projection as `pc1,pc2,label` for plotting."""
    if model.n_components < 2:
        raise ValueError("projection export needs at least two components")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    labels = list(labels)
    if len(labels) != x.shape[0]:
        raise ValueError("one label per data row required")
    scores = transform(model, x, n_components=2)
    write_columns(path, "pc1,pc2,label", [scores[:, 0], scores[:, 1], labels])
