"""Interpolation-vs-extrapolation classification of query points.

A query is *interpolated* with respect to a training set when it lies
inside the convex hull of the training points, and *extrapolated*
otherwise.  Membership is decided by linear-programming feasibility

    exists lambda >= 0,  sum(lambda) = 1,  sum(lambda_i x_i) = q

solved with a phase-1 simplex using Bland's pivoting rule (Bland, 1977),
which is deterministic and cannot cycle.  Facet enumeration of the hull
is deliberately avoided: in seven dimensions over tens of thousands of
points it is combinatorially explosive, while the feasibility LP stays
small and exact.

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

__all__ = [
    "FEASIBILITY_TOL",
    "PcaModel",
    "fit_pca",
    "transform",
    "inverse_transform",
    "Separation",
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


def inverse_transform(model: PcaModel, scores: np.ndarray) -> np.ndarray:
    """Map component scores back to the original feature space."""
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    k = scores.shape[1]
    if not 1 <= k <= model.n_components:
        raise ValueError("score dimension exceeds fitted components")
    return scores @ model.components[:k] + model.mean


# ---------------------------------------------------------------------------
# Convex-hull membership by phase-1 simplex
# ---------------------------------------------------------------------------

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
    verdicts carry a ``separation`` witness instead.
    """

    inside: bool
    slack: float
    weights: np.ndarray | None = None
    separation: Separation | None = None

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


def _phase1_simplex(a: np.ndarray, b: np.ndarray,
                    max_iter: int = 20000) -> tuple[float, np.ndarray, np.ndarray]:
    """Minimize the sum of artificial variables for A x = b, x >= 0.

    Returns (objective, x, y): the primal solution over the original
    columns and the dual vector of the equality constraints.  Bland's
    rule (lowest eligible index for both entering and leaving variable)
    makes every pivot deterministic and excludes cycling.
    """
    m, n = a.shape
    sign = np.where(b < 0.0, -1.0, 1.0)
    a = a * sign[:, None]
    b = b * sign
    # tableau over original + artificial columns, basis starts artificial
    t = np.hstack([a, np.eye(m), b[:, None]])
    basis = np.arange(n, n + m)
    cost = np.concatenate([np.zeros(n), np.ones(m)])
    # reduced costs under the all-artificial identity basis: c_j - 1.A_j
    red = cost - t[:, :-1].sum(axis=0)

    pivot_tol = 1e-12
    for _ in range(max_iter):
        entering = -1
        for j in range(n + m):
            if red[j] < -pivot_tol:
                entering = j
                break
        if entering < 0:
            break
        # ratio test; ties resolved by lowest basic-variable index
        leave = -1
        best = np.inf
        for i in range(m):
            aij = t[i, entering]
            if aij > pivot_tol:
                ratio = t[i, -1] / aij
                if ratio < best - 1e-15 or (
                        abs(ratio - best) <= 1e-15
                        and (leave < 0 or basis[i] < basis[leave])):
                    best = ratio
                    leave = i
        if leave < 0:
            raise ArithmeticError("phase-1 LP unbounded; inconsistent tableau")
        piv = t[leave, entering]
        t[leave] /= piv
        for i in range(m):
            if i != leave and t[i, entering] != 0.0:
                t[i] -= t[i, entering] * t[leave]
        red = red - red[entering] * t[leave, :-1]
        basis[leave] = entering
    else:
        raise ArithmeticError("phase-1 simplex exceeded the iteration limit")

    obj = float(np.sum(t[basis >= n, -1]))
    x = np.zeros(n)
    for i, j in enumerate(basis):
        if j < n:
            x[j] = t[i, -1]
    # dual of the flipped system, mapped back through the row signs
    cols = np.hstack([a, np.eye(m)])[:, basis]
    y = np.linalg.solve(cols.T, cost[basis])
    return obj, x, y * sign


def _standardizer(train: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    return mean, std


def _hull_verdict(train_std: np.ndarray, q_std: np.ndarray,
                  tol: float) -> HullVerdict:
    n, d = train_std.shape
    a = np.vstack([train_std.T, np.ones(n)])
    b = np.concatenate([q_std, [1.0]])
    obj, lam, y = _phase1_simplex(a, b)
    if obj <= tol:
        lam = np.where((lam < 0.0) & (lam > -1e-12), 0.0, lam)
        return HullVerdict(inside=True, slack=obj, weights=lam)
    return HullVerdict(inside=False, slack=obj,
                       separation=Separation(normal=y[:d], offset=float(y[d])))


def hull_contains(train: np.ndarray, query: np.ndarray,
                  tol: float = FEASIBILITY_TOL) -> HullVerdict:
    """Decide whether one query point lies in the hull of the rows of train."""
    train = np.atleast_2d(np.asarray(train, dtype=float))
    query = np.asarray(query, dtype=float).reshape(-1)
    if query.shape[0] != train.shape[1]:
        raise ValueError("query dimension does not match the training matrix")
    mean, std = _standardizer(train)
    return _hull_verdict((train - mean) / std, (query - mean) / std, tol)


def classify_batch(train: np.ndarray, queries: np.ndarray,
                   tol: float = FEASIBILITY_TOL,
                   ) -> tuple[tuple[HullVerdict, ...], ClassificationSummary]:
    """Classify every query row; standardization is computed once."""
    train = np.atleast_2d(np.asarray(train, dtype=float))
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if queries.shape[1] != train.shape[1]:
        raise ValueError("query dimension does not match the training matrix")
    mean, std = _standardizer(train)
    train_std = (train - mean) / std
    verdicts = tuple(_hull_verdict(train_std, (q - mean) / std, tol)
                     for q in queries)
    n_in = sum(1 for v in verdicts if v.inside)
    return verdicts, ClassificationSummary(n_inside=n_in,
                                           n_outside=len(verdicts) - n_in)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def write_verdicts_csv(verdicts, path: str) -> None:
    """Write one `row,inside,slack` line per verdict (0-based rows)."""
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write("row,inside,slack\n")
        for i, v in enumerate(verdicts):
            f.write(f"{i},{int(v.inside)},{v.slack!r}\n")


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
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write("pc1,pc2,label\n")
        for (p1, p2), lab in zip(scores, labels):
            f.write(f"{float(p1)!r},{float(p2)!r},{lab}\n")
