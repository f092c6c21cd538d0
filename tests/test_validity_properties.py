"""Property tests: the lockstep simplex against the per-query simplex it
replaced, and both against the tableau simplex before them.

``classify_batch`` steps every query's revised simplex together.  On any
batch it must give the per-query oracle's slack, pivots and Bland pivots
bit for bit, or raise the oracle's first error, message and row alike
(tests/simplex_oracle.py).

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

from chfkit import validity
from chfkit.mlp import Scaler
from chfkit.validity import FEASIBILITY_TOL, SimplexError, classify_batch

from simplex_oracle import classify_rows, phase1

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
    and check its certificate from the per-query oracle on the same
    standardized A and b.  Returns the verdicts."""
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
        obj, x, y, *counts = phase1(a, np.append(q, 1.0))
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


# ---------------------------------------------------------------------------
# Lockstep against the per-query oracle
# ---------------------------------------------------------------------------


@st.composite
def cube_cases(draw):
    """(train, queries): vertices of the 7-D unit cube, some twice, with
    vertex, edge-midpoint, centroid and outside queries: long runs of
    degenerate pivots, where Bland's rule takes over."""
    n = draw(st.integers(16, 30))
    train = np.array(draw(st.lists(st.lists(st.integers(0, 1).map(float), min_size=7,
                                            max_size=7), min_size=n, max_size=n)))
    index = st.integers(0, n - 1)
    train = np.vstack([train, train[draw(st.lists(index, min_size=1, max_size=6))]])
    queries = []
    for kind in draw(st.lists(st.integers(0, 3), min_size=1, max_size=8)):
        if kind == 0:
            queries.append(train[draw(index)])
        elif kind == 1:
            queries.append(0.5 * (train[draw(index)] + train[draw(index)]))
        elif kind == 2:
            queries.append(train.mean(axis=0))
        else:
            queries.append(train[draw(index)] + 1.0)
    return train, np.array(queries)


@st.composite
def lockstep_batches(draw):
    """A hull case whose queries (inside, outside, on the boundary) come
    again in the same batch, in a drawn order."""
    train, queries = draw(st.one_of(hull_cases(), cube_cases()))
    again = draw(st.lists(st.integers(0, len(queries) - 1), max_size=4))
    queries = np.vstack([queries, queries[again]])
    return train, queries[draw(st.permutations(range(len(queries))))]


def _assert_lockstep_matches_per_query(train, queries):
    """``classify_batch`` against the per-query oracle: the same slack bits,
    pivots and Bland pivots, or the same first error.  Returns the verdicts,
    or the error's message."""
    try:
        slack, pivots, bland = classify_rows(train, queries)
    except SimplexError as e:
        with pytest.raises(SimplexError) as batch:
            classify_batch(train, queries)
        assert str(batch.value) == str(e)
        return str(e)
    verdicts, _ = classify_batch(train, queries)
    assert verdicts.slack.tobytes() == slack.tobytes()
    assert verdicts.pivots.tolist() == pivots.tolist()
    assert verdicts.bland_pivots.tolist() == bland.tolist()
    return verdicts


@pytest.mark.filterwarnings("ignore:constant feature column")
@settings(max_examples=300)
@given(case=lockstep_batches())
def test_lockstep_matches_per_query_oracle(case):
    _assert_lockstep_matches_per_query(*case)


@pytest.mark.filterwarnings("ignore:constant feature column")
def test_lockstep_runs_blands_rule_beside_dantzig_queries():
    # 7-D cube vertices, some twice, with vertex, edge-midpoint and centroid
    # queries: some queries switch to Bland's rule while others price by
    # Dantzig's in the same steps, and Bland's ratio ties fall to the
    # lowest basic index whatever their pivot elements
    rng = np.random.default_rng(0)
    mixed = 0
    for _ in range(100):
        n = int(rng.integers(12, 30))
        train = rng.integers(0, 2, (n, 7)).astype(float)
        train = np.vstack([train, train[rng.integers(0, n, int(rng.integers(1, 7)))]])
        vertices = train[rng.integers(0, len(train), (6, 2))]
        queries = np.where(rng.integers(0, 3, (6, 1)) == 0, vertices[:, 0],
                           0.5 * (vertices[:, 0] + vertices[:, 1]))
        queries[rng.random(6) < 0.3] = train.mean(axis=0)
        out = _assert_lockstep_matches_per_query(train, queries)
        if not isinstance(out, str):
            mixed += bool(out.bland_pivots.any() and not out.bland_pivots.all())
    assert mixed >= 5


def _near_duplicate_batch(rng):
    """A small hull case with rows copied and one coordinate moved by
    1e-15 to 1e-6, and queries on its vertices, edges, inside and far out:
    the stress family on which about 1% of queries end in SimplexError."""
    d, n = int(rng.integers(2, 8)), int(rng.integers(3, 25))
    kind = int(rng.integers(3))
    if kind == 0:
        train = rng.integers(-2, 3, (n, d)).astype(float)
    elif kind == 1:
        train = rng.integers(0, 2, (n, d)).astype(float)
    else:
        train = rng.uniform(-3.0, 3.0, (n, d))
    k = int(rng.integers(1, 6))
    twins = train[rng.integers(0, n, k)]
    twins[np.arange(k), rng.integers(0, d, k)] += (rng.choice([-1.0, 1.0], k)
                                                   * 10.0 ** rng.uniform(-15.0, -6.0, k))
    train = np.vstack([train, twins])
    pick = lambda: train[rng.integers(len(train))]  # noqa: E731
    queries = []
    for kind in rng.integers(0, 4, int(rng.integers(1, 12))).tolist():
        if kind == 0:
            queries.append(pick())
        elif kind == 1:
            queries.append(0.5 * (pick() + pick()))
        elif kind == 2:
            w = rng.integers(0, 4, len(train)).astype(float)
            queries.append(w @ train / w.sum() if w.sum() else train[0])
        else:
            queries.append(pick() + rng.choice([-10.0, 10.0]))
    return train, np.array(queries)


@pytest.mark.filterwarnings("ignore:constant feature column")
def test_near_duplicate_family_raises_the_oracles_first_error(monkeypatch):
    # a noise-driven swap cycle between two near-twin columns runs to the
    # pivot cap; 500 ends it sooner than 20,000, for both solvers alike
    monkeypatch.setattr(validity, "_MAX_PIVOTS", 500)
    rng = np.random.default_rng(0)
    errors = []
    for _ in range(200):
        out = _assert_lockstep_matches_per_query(*_near_duplicate_batch(rng))
        if isinstance(out, str):
            errors.append(out)
    for kind in ("singular basis", "infeasible final basis", "pivot cap (500"):
        assert any(kind in e for e in errors), kind
