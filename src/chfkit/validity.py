"""Interpolation-vs-extrapolation classification of query points.

A query is *interpolated* with respect to a training set when it lies
inside the convex hull of the training points, and *extrapolated*
otherwise.  Membership is decided by linear-programming feasibility

    exists lambda >= 0,  sum(lambda) = 1,  sum(lambda_i x_i) = q

solved with a revised phase-1 simplex (Chvatal, *Linear Programming*,
1983, ch. 7).  The (d+1) x n constraint matrix is built once per batch;
each query inverts its (d+1) x (d+1) basis matrix at every pivot and
prices every column with one matrix-vector product.  The entering
column has the most negative reduced cost (Dantzig's rule, lowest index
on ties); after a fixed run of degenerate pivots Bland's rule (Bland,
1977), which cannot cycle, takes over until the objective drops, so
every pivot is deterministic; an LP ending without a sound optimal basis
raises SimplexError.  Facet enumeration of the hull is avoided: in seven
dimensions over tens of thousands of points it explodes combinatorially.

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
    "Separation",
    "SimplexError",
    "HullVerdict",
    "hull_contains",
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
class Separation:
    """Witness that a query lies outside the hull.

    In standardized coordinates, ``normal . x + offset <= 0`` for every
    training point while ``normal . q + offset`` equals the reported
    slack (> 0).  Extracted from the phase-1 dual solution.
    """

    normal: np.ndarray
    offset: float


@dataclass(frozen=True)
class HullVerdict:
    """Membership verdict with its certificate.

    ``slack`` is the optimal phase-1 objective: the L1 residual of the
    best convex combination in standardized coordinates.  Inside
    verdicts carry nonnegative ``weights`` summing to one; outside
    verdicts carry a ``separation`` witness instead.  ``pivots`` counts the
    query's simplex pivots, ``bland_pivots`` those Bland's rule chose.
    """

    inside: bool
    slack: float
    weights: np.ndarray | None = None
    separation: Separation | None = None
    pivots: int = 0
    bland_pivots: int = 0

    def __post_init__(self):
        if self.inside:
            if self.weights is None:
                raise ValueError("inside verdict requires weights")
            w = np.asarray(self.weights, dtype=float)
            if np.any(w < 0.0) or abs(float(np.sum(w)) - 1.0) > 1e-9:
                raise ValueError("weights must be a convex combination")
            object.__setattr__(self, "weights", w)
        elif self.separation is None:
            raise ValueError("outside verdict requires a separation witness")


@dataclass(frozen=True)
class ClassificationSummary:
    n_inside: int
    n_outside: int

    @property
    def n_total(self) -> int:
        return self.n_inside + self.n_outside


def _phase1(a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, int, int]:
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
        # inverted afresh: an updated inverse keeps the error of one
        # ill-conditioned basis in the well-conditioned ones after it
        try:
            binv = np.linalg.inv(bmat)
        except np.linalg.LinAlgError:
            raise SimplexError(f"singular basis ({pivots} pivots taken)") from None
        xb = binv @ b
        y = cb @ binv
        np.matmul(-y, a, out=red[:n])
        red[n:] = 1.0 - y * sign
        red[basis] = 0.0
        use_bland = degenerate >= _DEGENERATE_RUN
        # argmin and argmax both return the lowest index on ties
        e = int(np.argmax(red < -_PIVOT_TOL) if use_bland else np.argmin(red))
        if red[e] >= -_PIVOT_TOL:
            break
        if pivots >= _MAX_PIVOTS:
            raise SimplexError(f"phase-1 simplex hit the pivot cap ({pivots} pivots taken)")
        a_e = a[:, e] if e < n else artificial[:, e - n]
        alpha = binv @ a_e
        ok = alpha > _PIVOT_TOL
        if not ok.any():
            raise SimplexError(f"phase-1 LP unbounded ({pivots} pivots taken)")
        # basic values rounded below zero count as zero; ratio ties go to the
        # largest pivot element, which keeps the basis well conditioned, then
        # to the lowest basic index (under Bland's rule: lowest of all ties)
        ratio = np.where(ok, np.maximum(xb, 0.0) / np.where(ok, alpha, 1.0), np.inf)
        ties = np.flatnonzero(ratio <= ratio.min() + _TIE_TOL)
        if not use_bland:
            ties = ties[alpha[ties] == alpha[ties].max()]
        r = ties[np.argmin(basis[ties])]
        degenerate = 0 if ratio[r] > _TIE_TOL else degenerate + 1
        pivots += 1
        bland += use_bland
        bmat[:, r] = a_e
        basis[r] = e
        cb[r] = float(e >= n)
    # solved, not multiplied by the inverse (backward stable on a near-singular
    # basis); LAPACK factors bmat as it did for the inverse, so it cannot fail
    xb = np.linalg.solve(bmat, b)
    if xb.min() < -_NEGATIVE_TOL * max(1.0, float(np.abs(b).max())):
        raise SimplexError(f"infeasible final basis, a basic value of {xb.min():.3g} "
                           f"({pivots} pivots taken)")
    orig = basis < n
    x = np.zeros(n)
    x[basis[orig]] = xb[orig]
    return float(np.sum(xb[~orig])), x, y, pivots, bland


def hull_contains(train: np.ndarray, query: np.ndarray,
                  tol: float = FEASIBILITY_TOL) -> HullVerdict:
    """Decide whether one query point lies in the hull of the rows of train."""
    return classify_batch(train, np.asarray(query, dtype=float).reshape(1, -1), tol)[0][0]


def classify_batch(train: np.ndarray, queries: np.ndarray,
                   tol: float = FEASIBILITY_TOL, scaler: Scaler | None = None,
                   ) -> tuple[tuple[HullVerdict, ...], ClassificationSummary]:
    """Classify every query row; standardization and A are built once.

    ``scaler`` standardizes both matrices; by default it is fitted to
    ``train``.  Raises SimplexError naming the 0-based query row when a
    query's LP stops without an optimal basis.
    """
    train = np.atleast_2d(np.asarray(train, dtype=float))
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if queries.shape[1] != train.shape[1]:
        raise ValueError("query dimension does not match the training matrix")
    if scaler is None:
        scaler = Scaler.fit(train)
    a = np.vstack([scaler.transform(train).T, np.ones(train.shape[0])])
    verdicts = []
    for row, q in enumerate(scaler.transform(queries)):
        try:
            obj, lam, y, pivots, bland = _phase1(a, np.append(q, 1.0))
        except SimplexError as e:
            raise SimplexError(f"hull query row {row}: {e}") from None
        inside = obj <= tol
        verdicts.append(HullVerdict(
            inside=inside, slack=obj, pivots=pivots, bland_pivots=bland,
            weights=np.maximum(lam, 0.0) if inside else None,
            separation=None if inside else Separation(normal=y[:-1], offset=float(y[-1]))))
    n_in = sum(1 for v in verdicts if v.inside)
    return tuple(verdicts), ClassificationSummary(n_inside=n_in,
                                                  n_outside=len(verdicts) - n_in)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def write_verdicts_csv(verdicts, path: str) -> None:
    """Write one `row,inside,slack` line per verdict (0-based rows)."""
    write_columns(path, "row,inside,slack", [list(map(str, range(len(verdicts)))),
                                             [str(int(v.inside)) for v in verdicts],
                                             [repr(v.slack) for v in verdicts]])


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
