"""Property tests: the revised simplex against the tableau simplex it
replaced.

The oracle below is the earlier phase-1 code: a full tableau rebuilt per
query, every column updated on every pivot, Bland's rule for the
entering column.  The revised simplex prices with Dantzig's rule, so the
two can end on different optimal bases, and they do their arithmetic in
another order.  They must agree:

* on every verdict, unless HiGHS overrules the tableau (below);
* on the slack (the optimal phase-1 objective) within 1e-12 absolute,
  or relative to slacks above 1, whose ulp is larger;
* on the certificates: an outside verdict's separating hyperplane has
  every training point at or below 1e-9 in standardized coordinates,
  and an inside verdict's weights rebuild the query.

The tableau itself can be wrong on near-duplicate training rows (once
it reported slack 91.2 for a query HiGHS finds inside).  Where its
verdict differs from the revised solver's, HiGHS settles the verdict and
the slacks are not compared; the certificates are still checked.

The drawn cases are degenerate on purpose (duplicate training rows,
queries on a vertex or an edge, constant columns, fewer points than
d + 1), which is where the Bland fallback of the revised solver runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from chfkit.mlp import Scaler
from chfkit.validity import FEASIBILITY_TOL, _phase1, classify_batch

SLACK_TOL = 1e-12

# ---------------------------------------------------------------------------
# Oracle: the tableau phase-1 simplex with Bland's rule
# ---------------------------------------------------------------------------


def ref_phase1_simplex(a, b, max_iter=20000):
    """Minimize the sum of artificial variables for A x = b, x >= 0.

    Returns (objective, x, y): the primal solution over the original
    columns and the dual vector of the equality constraints.
    """
    m, n = a.shape
    sign = np.where(b < 0.0, -1.0, 1.0)
    a = a * sign[:, None]
    b = b * sign
    t = np.hstack([a, np.eye(m), b[:, None]])
    basis = np.arange(n, n + m)
    cost = np.concatenate([np.zeros(n), np.ones(m)])
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
    cols = np.hstack([a, np.eye(m)])[:, basis]
    y = np.linalg.solve(cols.T, cost[basis])
    return obj, x, y * sign


def ref_hull(train_std, q_std, tol=FEASIBILITY_TOL):
    """(inside, slack) of one standardized query by the tableau code."""
    a = np.vstack([train_std.T, np.ones(train_std.shape[0])])
    obj, _, _ = ref_phase1_simplex(a, np.concatenate([q_std, [1.0]]))
    return obj <= tol, obj


def highs_inside(train_std, q_std):
    """Whether HiGHS finds convex weights that rebuild the query."""
    n = train_std.shape[0]
    res = linprog(np.zeros(n), A_eq=np.vstack([train_std.T, np.ones(n)]),
                  b_eq=np.concatenate([q_std, [1.0]]), bounds=(0.0, None), method="highs")
    return res.status == 0


# ---------------------------------------------------------------------------
# Degenerate hull instances
# ---------------------------------------------------------------------------

@st.composite
def hull_cases(draw):
    """(train, queries): points on a small integer grid or a binary cube
    (duplicates and constant columns are common) or floats, queries on
    vertices, edges, inside, on the grid and far out."""
    d = draw(st.integers(1, 7))
    n = draw(st.integers(1, 24))
    coord = draw(st.sampled_from([st.integers(-2, 2).map(float),
                                  st.integers(0, 1).map(float),
                                  st.floats(-3.0, 3.0, allow_subnormal=False)]))
    train = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                                   min_size=n, max_size=n)))
    extra = draw(st.lists(st.integers(0, n - 1), max_size=3))
    train = np.vstack([train, train[extra]])  # duplicate rows
    if d > 1 and draw(st.booleans()):
        train[:, draw(st.integers(0, d - 1))] = draw(coord)  # constant column
    n = train.shape[0]
    index = st.integers(0, n - 1)
    queries = []
    for kind in draw(st.lists(st.integers(0, 4), min_size=1, max_size=6)):
        if kind == 0:  # a vertex
            q = train[draw(index)]
        elif kind == 1:  # an edge midpoint
            q = 0.5 * (train[draw(index)] + train[draw(index)])
        elif kind == 2:  # a convex combination with few nonzero weights
            w = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
                         dtype=float)
            q = w @ train / w.sum() if w.sum() > 0 else train[0]
        elif kind == 3:  # a grid point, inside or not
            q = np.array(draw(st.lists(st.integers(-3, 3).map(float),
                                       min_size=d, max_size=d)))
        else:  # far outside
            q = train[draw(index)] + draw(st.sampled_from([-10.0, 10.0]))
        queries.append(q)
    return train, np.array(queries)


def _assert_matches_oracle(train, queries):
    """Classify in one batch; compare each query with the tableau code,
    and check its certificate from ``_phase1`` on the same standardized
    A and b.  Returns the verdicts."""
    scaler = Scaler.fit(train)
    train_std = scaler.transform(train)
    a = np.vstack([train_std.T, np.ones(len(train_std))])
    verdicts, summary = classify_batch(train, queries)
    assert summary.n_total == len(verdicts) == len(queries)
    assert summary.n_inside == np.count_nonzero(verdicts.inside)
    for q, v_in, v_slack, pivots, bland in zip(
            scaler.transform(queries), verdicts.inside.tolist(), verdicts.slack.tolist(),
            verdicts.pivots.tolist(), verdicts.bland_pivots.tolist()):
        inside, slack = ref_hull(train_std, q)
        if v_in != inside:
            assert v_in == highs_inside(train_std, q)
        else:
            # absolute up to 1; beyond, the ulp of the slack is the limit (a
            # near-constant column standardizes a query to some 3e4)
            assert abs(v_slack - slack) <= SLACK_TOL * max(1.0, abs(slack)), (v_slack, slack)
        assert bland <= pivots
        obj, x, y, *counts = _phase1(a, np.append(q, 1.0))
        assert (obj, counts) == (v_slack, [pivots, bland])
        if v_in:
            assert np.max(np.abs(np.maximum(x, 0.0) @ train_std - q)) <= 1e-9
        else:
            normal, offset = y[:-1], y[-1]
            assert np.max(train_std @ normal + offset) <= 1e-9
            assert q @ normal + offset == pytest.approx(v_slack, rel=1e-9)
    return verdicts


@pytest.mark.filterwarnings("ignore:constant feature column")
@settings(max_examples=300)
@given(case=hull_cases())
def test_revised_simplex_matches_tableau_oracle(case):
    _assert_matches_oracle(*case)


def test_bland_fallback_on_degenerate_cube_vertices():
    # vertices of the 7-D unit cube, six of them twice: a query on a
    # vertex or an edge makes long runs of degenerate pivots
    rng = np.random.default_rng(0)
    train = rng.integers(0, 2, (24, 7)).astype(float)
    train = np.vstack([train, train[:6]])
    queries = np.vstack([train[:6], 0.5 * (train[:6] + train[6:12]),
                         train.mean(axis=0), train[0] + 1.0])
    verdicts = _assert_matches_oracle(train, queries)
    assert verdicts.inside.tolist() == [True] * 13 + [False]
    assert verdicts.bland_pivots.sum() > 0


def test_near_duplicate_vertex_query():
    # rows 1 and 3 differ by 8e-9 in one column and the query sits on
    # row 1.  A basis inverse updated by row operations gave weights down
    # to -4e-3 here; one formed afresh, with basic values rounded below
    # zero not clipped in the ratio test, ended on a singular basis.
    train = np.array([
        [0.0, -2.2, 0.2, 0.0, 0.0], [0.0, 1e-05, 3.0, -7.920736484008394e-09, 0.0],
        [0.0, 0.0, 0.0, 1.0, -0.5], [0.0, 1e-05, 3.0, 0.0, 0.0],
        [-2.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.6, -2.0, 0.0],
        [0.0, -0.6, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, -0.6, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 2.0, 0.0],
    ])
    query = np.array([[1e-15, 1e-05, 3.0, -7.920736484008394e-09, 0.0]])
    assert _assert_matches_oracle(train, query).inside.tolist() == [True]


@pytest.mark.filterwarnings("ignore:constant feature column")
def test_highs_settles_a_wrong_tableau_verdict():
    # the query is the midpoint of rows 3 and 4; row 5 is row 3 with one
    # coordinate moved by 1.4e-11, and the tableau ends at slack 6.5e-6
    train = np.array([[0.0, 1.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0],
                      [0.0, 0.0, -1.3589853866966075e-11, 0.0]])
    query = np.array([[0.0, 0.0, 0.5, 0.5]])
    scaler = Scaler.fit(train)
    inside, _ = ref_hull(scaler.transform(train), scaler.transform(query)[0])
    assert not inside
    assert _assert_matches_oracle(train, query).inside.tolist() == [True]
