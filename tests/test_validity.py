"""Tests for PCA and convex-hull membership.

The reference results for the random-set membership tests come from
independent LP/geometry implementations (scipy's HiGHS solver and its
Delaunay triangulation) used strictly as test-side oracles.
"""

import numpy as np
import pytest

from chfkit import validity
from chfkit.validity import (
    FEASIBILITY_TOL,
    ClassificationSummary,
    HullVerdicts,
    PcaModel,
    classify_batch,
    fit_pca,
    transform,
    write_projection_csv,
    write_verdicts_csv,
)

from simplex_oracle import classify_rows, phase1, standardized_lp

# mean-zero rows whose population covariance is exactly diag(4, 1, 0.25)
EXACT_COV_DESIGN = np.array([
    [2.0, 1.0, 0.5],
    [2.0, -1.0, -0.5],
    [-2.0, 1.0, -0.5],
    [-2.0, -1.0, 0.5],
])

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def _inside(train, query) -> bool:
    """The verdict of one query point."""
    return bool(classify_batch(train, [query])[0].inside[0])


def _certificate(train, query):
    """(slack, weights, normal, offset) of one query from the per-query
    oracle on the standardized A and b that classify_batch builds: the
    convex weights over the training rows (clipped at zero) and the
    separating hyperplane read from the duals."""
    a, (b,) = standardized_lp(train, [query])
    slack, x, y, _, _ = phase1(a, b)
    return slack, np.maximum(x, 0.0), y[:-1], y[-1]


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

def test_pca_exact_diagonal_covariance():
    m = fit_pca(EXACT_COV_DESIGN)
    assert np.array_equal(m.explained_variance, [4.0, 1.0, 0.25])
    assert np.array_equal(m.components, np.eye(3))
    assert np.array_equal(m.mean, np.zeros(3))


def test_pca_perfectly_correlated_features():
    rng = np.random.default_rng(50)
    t = rng.normal(0.0, 2.0, 40)
    x = np.column_stack([t, 3.0 * t])
    m = fit_pca(x)
    assert m.explained_variance[1] <= 1e-12 * m.explained_variance[0]
    # leading direction is (1, 3)/sqrt(10) with the sign convention
    assert m.components[0] == pytest.approx(
        np.array([1.0, 3.0]) / np.sqrt(10.0), rel=1e-10)


def test_pca_isotropic_equal_variances():
    x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    m = fit_pca(x)
    assert m.explained_variance[0] == m.explained_variance[1] == 0.5


def test_pca_matches_reference_eigensolver():
    # oracle: the general (non-symmetric) eigenvalue routine, plus the
    # eigen-residual of every returned direction
    from scipy.linalg import eigvals

    rng = np.random.default_rng(51)
    x = rng.normal(0.0, 1.0, (300, 7)) @ rng.normal(0.0, 1.0, (7, 7))
    m = fit_pca(x)
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / x.shape[0]
    ref = eigvals(cov)
    assert np.max(np.abs(ref.imag)) < 1e-10
    assert m.explained_variance == pytest.approx(np.sort(ref.real)[::-1], rel=1e-10)
    scale = m.explained_variance[0]
    for lam, v in zip(m.explained_variance, m.components):
        assert np.linalg.norm(cov @ v - lam * v) < 1e-12 * scale


def test_pca_rows_orthonormal():
    rng = np.random.default_rng(52)
    m = fit_pca(rng.uniform(-5.0, 5.0, (120, 9)))
    gram = m.components @ m.components.T
    assert np.max(np.abs(gram - np.eye(9))) < 1e-10


def test_pca_sign_convention():
    rng = np.random.default_rng(53)
    m = fit_pca(rng.normal(0.0, 1.0, (80, 6)))
    for row in m.components:
        assert row[np.argmax(np.abs(row))] > 0.0


def test_pca_full_rank_reconstruction():
    rng = np.random.default_rng(54)
    x = rng.uniform(1.0, 10.0, (60, 5))
    m = fit_pca(x)
    back = transform(m, x) @ m.components + m.mean
    assert np.max(np.abs(back - x) / np.abs(x)) < 1e-9


def test_pca_scores_decorrelated():
    rng = np.random.default_rng(55)
    x = rng.normal(0.0, 3.0, (200, 4)) @ rng.normal(0.0, 1.0, (4, 4))
    m = fit_pca(x)
    s = transform(m, x)
    cov = s.T @ s / s.shape[0]  # scores are already mean-centered
    assert np.allclose(cov, np.diag(m.explained_variance), atol=1e-9)


def test_pca_rank_deficiency_reports_zero_variance():
    rng = np.random.default_rng(56)
    base = rng.normal(0.0, 1.0, (30, 2))
    x = np.column_stack([base, base[:, 0] + base[:, 1]])
    m = fit_pca(x)
    assert m.explained_variance[-1] <= 1e-12 * m.explained_variance[0]
    assert m.explained_variance[-1] >= 0.0


def test_pca_truncated_transform_is_prefix():
    rng = np.random.default_rng(57)
    x = rng.normal(0.0, 1.0, (50, 5))
    m = fit_pca(x)
    full = transform(m, x)
    assert np.array_equal(transform(m, x, n_components=2), full[:, :2])


def test_pca_validation_errors():
    with pytest.raises(ValueError, match="orthonormal"):
        PcaModel(mean=np.zeros(2), components=np.array([[1.0, 1.0], [0.0, 1.0]]),
                 explained_variance=np.array([2.0, 1.0]))
    with pytest.raises(ValueError, match="nonincreasing"):
        PcaModel(mean=np.zeros(2), components=np.eye(2),
                 explained_variance=np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="at least 2 rows"):
        fit_pca(np.ones((1, 3)))


# ---------------------------------------------------------------------------
# Hull membership
# ---------------------------------------------------------------------------

def test_hull_square_center_inside_with_certificate():
    verdicts, _ = classify_batch(UNIT_SQUARE, [[0.5, 0.5]])
    assert verdicts.inside[0]
    assert verdicts.slack[0] <= FEASIBILITY_TOL
    slack, w, _, _ = _certificate(UNIT_SQUARE, [0.5, 0.5])
    assert slack == verdicts.slack[0]
    assert np.all(w >= 0.0)
    assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-9)
    recon = w @ UNIT_SQUARE
    assert recon == pytest.approx([0.5, 0.5], rel=1e-7)


def test_hull_square_far_point_outside():
    verdicts, _ = classify_batch(UNIT_SQUARE, [[2.0, 2.0]])
    assert not verdicts.inside[0]
    assert verdicts.slack[0] > FEASIBILITY_TOL


def test_hull_vertices_count_as_inside():
    for vertex in UNIT_SQUARE:
        assert _inside(UNIT_SQUARE, vertex), vertex
        _, w, _, _ = _certificate(UNIT_SQUARE, vertex)
        assert w @ UNIT_SQUARE == pytest.approx(vertex, abs=1e-9)


def test_hull_edge_midpoint_inside():
    assert _inside(UNIT_SQUARE, [0.5, 0.0])


def test_hull_separation_certificate_is_valid():
    q = np.array([2.0, 2.0])
    slack, _, normal, offset = _certificate(UNIT_SQUARE, q)
    assert slack == classify_batch(UNIT_SQUARE, [q])[0].slack[0]
    mean = UNIT_SQUARE.mean(axis=0)
    std = UNIT_SQUARE.std(axis=0)
    train_side = (UNIT_SQUARE - mean) / std @ normal + offset
    query_side = (q - mean) / std @ normal + offset
    assert np.max(train_side) <= 1e-8
    assert query_side == pytest.approx(slack, rel=1e-9)
    assert query_side > 0.0


def test_hull_inside_weights_reconstruct_random_queries():
    rng = np.random.default_rng(60)
    train = rng.uniform(-3.0, 5.0, (40, 5))
    for _ in range(20):
        lam = rng.dirichlet(np.ones(40))
        q = lam @ train
        assert _inside(train, q)
        _, w, _, _ = _certificate(train, q)
        recon = w @ train
        assert np.max(np.abs(recon - q)) <= 1e-7 * max(1.0, np.max(np.abs(q)))


def test_hull_affine_invariance():
    rng = np.random.default_rng(61)
    train = rng.uniform(0.0, 1.0, (30, 4))
    scale = rng.uniform(0.5, 200.0, 4)
    shift = rng.uniform(-50.0, 50.0, 4)
    for _ in range(15):
        if rng.uniform() < 0.5:
            q = rng.dirichlet(np.ones(30)) @ train
        else:
            q = rng.uniform(-1.0, 2.0, 4)
        a, _ = classify_batch(train, [q])
        b, _ = classify_batch(train * scale + shift, [q * scale + shift])
        assert a.inside[0] == b.inside[0]
        assert b.slack[0] == pytest.approx(a.slack[0], rel=1e-6, abs=1e-9)


def test_hull_single_training_point():
    with pytest.warns(UserWarning, match=r"constant feature column\(s\) \[0, 1\]"):
        assert _inside([[3.0, 4.0]], [3.0, 4.0])
        assert not _inside([[3.0, 4.0]], [3.0, 5.0])


def test_hull_constant_feature_column():
    train = np.array([[0.0, 2.0], [1.0, 2.0], [0.5, 2.0]])
    with pytest.warns(UserWarning, match=r"constant feature column\(s\) \[1\]"):
        assert _inside(train, [0.5, 2.0])
        assert not _inside(train, [0.5, 2.5])


def test_hull_matches_reference_lp_solver():
    from scipy.optimize import linprog

    rng = np.random.default_rng(62)
    for trial in range(50):
        train = rng.uniform(0.0, 1.0, (50, 7))
        kind = trial % 3
        if kind == 0:
            q = rng.dirichlet(np.ones(50)) @ train
        elif kind == 1:
            q = rng.uniform(-1.0, 2.0, 7)
        else:
            q = train[int(rng.integers(50))] + rng.normal(0.0, 0.15, 7)
        mine = _inside(train, q)
        a_eq = np.vstack([train.T, np.ones(50)])
        b_eq = np.concatenate([q, [1.0]])
        ref = linprog(np.zeros(50), A_eq=a_eq, b_eq=b_eq,
                      bounds=(0.0, None), method="highs")
        assert mine == (ref.status == 0), f"trial {trial}"


def test_hull_matches_triangulation_oracle_2d():
    from scipy.spatial import Delaunay

    rng = np.random.default_rng(63)
    train = rng.uniform(0.0, 1.0, (25, 2))
    tri = Delaunay(train)
    # strictly interior combos and clearly exterior points only, so the
    # two implementations' boundary tolerances cannot disagree
    for _ in range(30):
        if rng.uniform() < 0.5:
            lam = rng.dirichlet(np.ones(25)) + 0.002
            lam /= lam.sum()
            q = lam @ train
        else:
            q = rng.uniform(1.5, 3.0, 2)
        assert _inside(train, q) == (tri.find_simplex(q) >= 0)


def test_hull_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        classify_batch(UNIT_SQUARE, [[0.5, 0.5, 0.5]])


def test_hull_verdicts_are_columns():
    verdicts, _ = classify_batch(UNIT_SQUARE, [[0.5, 0.5], [2.0, 2.0], [1.0, 1.0]])
    assert isinstance(verdicts, HullVerdicts) and len(verdicts) == 3
    assert verdicts.inside.tolist() == [True, False, True]
    assert verdicts.inside.tolist() == (verdicts.slack <= FEASIBILITY_TOL).tolist()
    assert np.all(verdicts.bland_pivots <= verdicts.pivots)


def test_hull_pivot_cap_names_the_query_row(monkeypatch):
    monkeypatch.setattr(validity, "_MAX_PIVOTS", 1)
    # the far point is settled in one pivot, the centre needs more
    with pytest.raises(validity.SimplexError,
                       match=r"^hull query row 1: .*pivot cap \(1 pivots taken\)"):
        classify_batch(UNIT_SQUARE, [[3.0, 3.0], [0.5, 0.5]])
    with pytest.raises(ArithmeticError, match="^hull query row 0: "):
        classify_batch(UNIT_SQUARE, [[0.5, 0.5]])


# rows 3 and 4 are near-duplicates of rows 1 and 0, row 5 of row 2
NEAR_TWINS = np.array([
    [0.0, 1.0, -1.0, -2.0], [2.0, 0.0, 2.0, 0.0], [-2.0, 2.0, 0.0, 1.0],
    [2.0, 7.735561045589452e-09, 2.0, 0.0], [0.0, 1.0000000196026806, -1.0, -2.0],
    [-1.9999995152180288, 2.0, 0.0, 1.0],
])


def test_hull_lowest_failing_row_wins_over_an_earlier_failure(monkeypatch):
    # the vertex query on row 2 ends on an infeasible basis after 3 pivots,
    # at the 4th step; the centroid needs 6 pivots, so with a cap of 4 it
    # fails at the 5th.  The lower row's error is the one raised.
    vertex = r"infeasible final basis, a basic value of -\S+ \(3 pivots taken\)$"
    with pytest.raises(validity.SimplexError, match="^hull query row 0: " + vertex):
        classify_batch(NEAR_TWINS, NEAR_TWINS[[2]])
    assert classify_rows(NEAR_TWINS, [NEAR_TWINS.mean(axis=0)])[1].tolist() == [6]
    monkeypatch.setattr(validity, "_MAX_PIVOTS", 4)
    queries = [NEAR_TWINS.mean(axis=0), NEAR_TWINS[2]]
    with pytest.raises(validity.SimplexError) as oracle:
        classify_rows(NEAR_TWINS, queries)
    assert str(oracle.value) == "hull query row 0: phase-1 simplex hit the pivot cap (4 pivots taken)"
    with pytest.raises(validity.SimplexError) as batch:
        classify_batch(NEAR_TWINS, queries)
    assert str(batch.value) == str(oracle.value)


# ---------------------------------------------------------------------------
# Batch classification
# ---------------------------------------------------------------------------

def test_classify_batch_convex_combinations_all_inside():
    rng = np.random.default_rng(64)
    train = rng.uniform(-1.0, 1.0, (30, 3))
    queries = rng.dirichlet(np.ones(30), size=20) @ train
    verdicts, summary = classify_batch(train, queries)
    assert summary == ClassificationSummary(n_inside=20, n_outside=0)
    assert verdicts.inside.all()


def test_classify_batch_training_rows_all_inside():
    rng = np.random.default_rng(65)
    train = rng.uniform(0.0, 10.0, (15, 4))
    verdicts, summary = classify_batch(train, train)
    assert summary.n_inside == 15 and summary.n_outside == 0
    assert verdicts.inside.all()


def test_classify_batch_mixed_counts_and_order():
    rng = np.random.default_rng(66)
    train = rng.uniform(0.0, 1.0, (20, 3))
    inside_q = rng.dirichlet(np.ones(20), size=4) @ train
    outside_q = rng.uniform(5.0, 6.0, (3, 3))
    queries = np.vstack([inside_q[:2], outside_q[:1], inside_q[2:], outside_q[1:]])
    verdicts, summary = classify_batch(train, queries)
    assert verdicts.inside.tolist() == [True, True, False, True, True, False, False]
    assert summary.n_inside == 4 and summary.n_outside == 3


def test_classify_batch_agrees_with_single_calls():
    rng = np.random.default_rng(67)
    train = rng.uniform(0.0, 1.0, (12, 2))
    queries = np.vstack([train[3], [[4.0, 4.0]]])
    verdicts, _ = classify_batch(train, queries)
    for i, q in enumerate(queries):
        single, _ = classify_batch(train, [q])
        assert verdicts.inside[i] == single.inside[0]
        assert verdicts.slack[i] == single.slack[0]


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def test_write_verdicts_csv(tmp_path):
    verdicts, _ = classify_batch(UNIT_SQUARE, [[0.5, 0.5], [2.0, 2.0]])
    p = tmp_path / "verdicts.csv"
    write_verdicts_csv(verdicts, str(p))
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "row,inside,slack"
    r0 = lines[1].split(",")
    r1 = lines[2].split(",")
    assert r0[0] == "0" and r0[1] == "1"
    assert r1[0] == "1" and r1[1] == "0"
    assert r1[2] == repr(verdicts.slack[1].item())


def test_write_projection_csv(tmp_path):
    rng = np.random.default_rng(68)
    x = rng.normal(0.0, 1.0, (10, 4))
    m = fit_pca(x)
    labels = [f"case{i}" for i in range(10)]
    p = tmp_path / "proj.csv"
    write_projection_csv(m, x, labels, str(p))
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "pc1,pc2,label"
    assert len(lines) == 11
    scores = transform(m, x, n_components=2)
    for i, line in enumerate(lines[1:]):
        pc1, pc2, lab = line.split(",")
        assert float(pc1) == scores[i, 0]
        assert float(pc2) == scores[i, 1]
        assert lab == labels[i]


def test_write_projection_needs_two_components(tmp_path):
    m = fit_pca(np.array([[1.0], [2.0], [4.0]]))
    with pytest.raises(ValueError, match="two components"):
        write_projection_csv(m, np.array([[1.0]]), ["a"], str(tmp_path / "x.csv"))
