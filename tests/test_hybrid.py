"""Tests for the base+residual predictor composition."""

from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest

from chfkit import fluid, hybrid
from chfkit.correlations import (
    InletConditions,
    LocalConditions,
    NoCriticalConditionError,
    biasi_dsm,
    bowring_dsm,
    solve_hbm,
)
from chfkit.hybrid import (
    ChfPredictor,
    Prediction,
    build_residual_dataset,
    node_chf,
    predict,
    predict_batch,
)
from chfkit.mlp import DenseLayer, Mlp, Scaler, init_mlp

BENNETT_LIKE = InletConditions(
    diameter=0.01262, heated_length=5.56, pressure=6.895e6,
    mass_flux=1000.0, inlet_subcooling=1.0e5,
)

# inlet quality above 1 at 20 MPa: the heat-balance solve cannot bracket
UNSOLVABLE = InletConditions(
    diameter=0.008, heated_length=2.0, pressure=20.0e6,
    mass_flux=2000.0, inlet_subcooling=-1.2e6,
)


def _const_model(value: float, mode="residual", base_model="bowring") -> Mlp:
    """Network that outputs exactly `value` for every input."""
    return Mlp(
        layers=[DenseLayer(np.zeros((1, 5)), np.array([value]), "identity")],
        input_scaler=Scaler.identity(5),
        output_scaler=Scaler.identity(1),
        mode=mode,
        base_model=base_model,
    )


def _residuals(conds, measured, base):
    """build_residual_dataset on the feature rows of the given conditions."""
    return build_residual_dataset(np.array([astuple(c) for c in conds]).reshape(-1, 5),
                                  measured, base)


# ---------------------------------------------------------------------------
# Predictor validation
# ---------------------------------------------------------------------------

def test_base_kinds_take_no_model():
    ChfPredictor(kind="base_biasi")
    ChfPredictor(kind="base_bowring", solve_mode="dsm")
    with pytest.raises(ValueError, match="takes no model"):
        ChfPredictor(kind="base_biasi", model=_const_model(0.0))


def test_ml_kinds_require_model():
    with pytest.raises(ValueError, match="requires a model"):
        ChfPredictor(kind="pure_ml")
    with pytest.raises(ValueError, match="requires a model"):
        ChfPredictor(kind="hybrid_bowring")


def test_model_metadata_must_match_kind():
    direct = _const_model(1e6, mode="direct", base_model="none")
    residual_bowring = _const_model(0.0)
    residual_biasi = _const_model(0.0, base_model="biasi")

    ChfPredictor(kind="pure_ml", model=direct)
    ChfPredictor(kind="hybrid_bowring", model=residual_bowring)
    ChfPredictor(kind="hybrid_biasi", model=residual_biasi)

    with pytest.raises(ValueError, match="pure_ml requires a direct"):
        ChfPredictor(kind="pure_ml", model=residual_bowring)
    with pytest.raises(ValueError, match="base_model='biasi'"):
        ChfPredictor(kind="hybrid_biasi", model=residual_bowring)
    with pytest.raises(ValueError, match="residual model"):
        ChfPredictor(kind="hybrid_bowring", model=direct)


def test_model_must_take_five_inputs():
    bad = Mlp(
        layers=[DenseLayer(np.zeros((1, 3)), np.zeros(1), "identity")],
        input_scaler=Scaler.identity(3), output_scaler=Scaler.identity(1),
        mode="direct", base_model="none",
    )
    with pytest.raises(ValueError, match="5-vector"):
        ChfPredictor(kind="pure_ml", model=bad)


def test_kind_and_mode_validated():
    with pytest.raises(ValueError, match="kind"):
        ChfPredictor(kind="w3")
    with pytest.raises(ValueError, match="solve_mode"):
        ChfPredictor(kind="base_biasi", solve_mode="direct")


# ---------------------------------------------------------------------------
# Residual dataset construction
# ---------------------------------------------------------------------------

def test_residual_zero_when_measured_equals_base():
    sol = solve_hbm("bowring", BENNETT_LIKE)
    table, report = _residuals([BENNETT_LIKE], [sol.chf], "bowring")
    assert report.n_failed == 0
    ((*_, base, _, residual),) = table.tolist()
    assert base == sol.chf
    assert residual == 0.0


def test_residual_constructed_offset():
    base = solve_hbm("bowring", BENNETT_LIKE).chf
    table, _ = _residuals([BENNETT_LIKE], [base + 1.0e5], "bowring")
    ((*_, base_chf, measured, residual),) = table.tolist()
    assert residual == pytest.approx(1.0e5, rel=1e-9)
    # the defining identity is exact by construction
    assert residual == measured - base_chf


def test_residual_features_are_the_raw_five():
    table, _ = _residuals([BENNETT_LIKE], [2.0e6], "biasi")
    assert table.shape == (1, 8)
    assert table[0, :5].tolist() == [0.01262, 5.56, 6.895e6, 1000.0, 1.0e5]
    assert table[0, 5] == solve_hbm("biasi", BENNETT_LIKE).chf
    assert table[0, 6] == 2.0e6


def test_residual_failures_excluded_and_counted():
    conds = [BENNETT_LIKE] * 4 + [UNSOLVABLE] + [BENNETT_LIKE] * 5
    table, report = _residuals(conds, [2.0e6] * 10, "bowring")
    assert table.shape == (9, 8)
    assert report.n_records == 10
    assert report.n_failed == 1
    ((idx, reason),) = report.failures
    assert idx == 4
    assert "critical" in reason.lower() or "bracket" in reason.lower()


def test_residual_build_propagates_unexpected_errors(monkeypatch):
    # only "no critical condition" becomes a failure row; a fault in the
    # solve itself must not be counted as one
    def broken(*_columns):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(hybrid, "_solve_columns", broken)
    with pytest.raises(ZeroDivisionError):
        _residuals([BENNETT_LIKE], [2.0e6], "bowring")


def test_residual_build_solve_calls_do_not_grow_with_rows():
    # one saturation-state call and one column solve per build, whatever
    # the number of rows (distinct pressures, one unsolvable row)
    counts = []
    for n in (30, 300):
        conds = [UNSOLVABLE] + [replace(BENNETT_LIKE, pressure=5.0e6 + 1.0e4 * i)
                                for i in range(n - 1)]
        with mock.patch.object(hybrid, "_solve_columns", wraps=hybrid._solve_columns) as solve, \
                mock.patch.object(fluid, "saturation_state",
                                  wraps=fluid.saturation_state) as sat:
            table, report = _residuals(conds, [2.0e6] * n, "bowring")
        assert len(table) == n - 1 and report.n_failed == 1
        counts.append((solve.call_count, sat.call_count))
    assert counts[0] == counts[1] == (1, 1)


def test_residual_build_rejects_invalid_inlet_conditions():
    # the same error InletConditions raises for the first bad record
    x = np.array([astuple(BENNETT_LIKE)] * 3)
    x[1, 2], x[2, 0] = 25.0e6, 0.0
    with pytest.raises(ValueError, match="pressure 25000000.0 Pa outside saturation range"):
        build_residual_dataset(x, [2.0e6] * 3, "bowring")


def test_build_residual_dataset_validates_base():
    with pytest.raises(ValueError, match="base"):
        build_residual_dataset(np.empty((0, 5)), [], "w3")


@pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 6)])
def test_feature_matrix_must_have_five_columns(shape):
    with pytest.raises(ValueError, match=r"\(n, 5\) model-feature matrix"):
        build_residual_dataset(np.ones(shape), np.ones(shape[0]), "bowring")
    with pytest.raises(ValueError, match=r"\(n, 5\) model-feature matrix"):
        predict_batch(ChfPredictor(kind="base_bowring"), np.ones(shape))


# ---------------------------------------------------------------------------
# predict: inlet-conditions surface
# ---------------------------------------------------------------------------

def test_base_predictions_bitwise_equal_correlation_solve():
    for kind, corr in (("base_biasi", "biasi"), ("base_bowring", "bowring")):
        p = ChfPredictor(kind=kind)
        pred = predict(p, BENNETT_LIKE)
        sol = solve_hbm(corr, BENNETT_LIKE)
        assert pred.value == sol.chf
        assert pred.base_chf == sol.chf
        assert pred.ml_residual == 0.0
        assert pred.base_solution is not None
        assert pred.base_solution.iterations == sol.iterations


def test_hybrid_with_zero_model_reduces_to_base():
    p = ChfPredictor(kind="hybrid_bowring", model=_const_model(0.0))
    base = ChfPredictor(kind="base_bowring")
    for dh in (5.0e4, 2.0e5, 4.0e5):
        c = InletConditions(diameter=0.01, heated_length=3.0, pressure=10.0e6,
                            mass_flux=2000.0, inlet_subcooling=dh)
        assert predict(p, c).value == predict(base, c).value


def test_hybrid_perfect_corrector_recovers_measurement():
    base = solve_hbm("bowring", BENNETT_LIKE).chf
    measured = 1.1 * base  # within a factor of two: the residual is exact
    r = measured - base
    p = ChfPredictor(kind="hybrid_bowring", model=_const_model(r))
    assert predict(p, BENNETT_LIKE).value == measured


def test_hybrid_decomposition_exact():
    p = ChfPredictor(kind="hybrid_biasi",
                     model=_const_model(-3.7e5, base_model="biasi"))
    pred = predict(p, BENNETT_LIKE)
    assert pred.value == pred.base_chf + pred.ml_residual
    assert pred.ml_residual == -3.7e5
    assert pred.base_chf == solve_hbm("biasi", BENNETT_LIKE).chf


def test_pure_ml_and_hybrid_finite_positive():
    pure = ChfPredictor(kind="pure_ml",
                        model=_const_model(2.5e6, mode="direct", base_model="none"))
    hyb = ChfPredictor(kind="hybrid_bowring", model=_const_model(1.0e5))
    a = predict(pure, BENNETT_LIKE)
    b = predict(hyb, BENNETT_LIKE)
    assert a.value > 0 and np.isfinite(a.value)
    assert b.value > 0 and np.isfinite(b.value)
    assert a.base_chf is None and a.ml_residual is None
    assert b.value == b.base_chf + b.ml_residual


def test_hbm_failure_propagates_for_base_and_hybrid_only():
    with pytest.raises(NoCriticalConditionError):
        predict(ChfPredictor(kind="base_bowring"), UNSOLVABLE)
    with pytest.raises(NoCriticalConditionError):
        predict(ChfPredictor(kind="hybrid_bowring", model=_const_model(0.0)), UNSOLVABLE)
    pure = ChfPredictor(kind="pure_ml",
                        model=_const_model(1.0e6, mode="direct", base_model="none"))
    assert predict(pure, UNSOLVABLE).value == 1.0e6


# ---------------------------------------------------------------------------
# node_chf in dsm mode: local-conditions surface
# ---------------------------------------------------------------------------

def _at_quality(p: ChfPredictor, quality: float) -> float:
    """node_chf of one node at the given local quality."""
    h_fg = fluid.saturation_state(BENNETT_LIKE.pressure).h_fg
    return node_chf(p, BENNETT_LIKE, h_fg, (BENNETT_LIKE.heated_length,), (quality,))[0]


def test_local_base_matches_dsm_functions_bitwise():
    for kind, fn in (("base_biasi", biasi_dsm), ("base_bowring", bowring_dsm)):
        p = ChfPredictor(kind=kind, solve_mode="dsm")
        for x in (-0.1, 0.0, 0.25, 0.7):
            want = fn(LocalConditions(diameter=BENNETT_LIKE.diameter,
                                      pressure=BENNETT_LIKE.pressure,
                                      mass_flux=BENNETT_LIKE.mass_flux,
                                      quality=x))
            assert _at_quality(p, x) == want


def test_local_quality_clipped_to_validity_window():
    p = ChfPredictor(kind="base_bowring", solve_mode="dsm")
    assert _at_quality(p, -0.9) == _at_quality(p, -0.5)
    assert _at_quality(p, 1.3) == _at_quality(p, 1.0)


def test_local_hybrid_decomposition():
    p = ChfPredictor(kind="hybrid_bowring", model=_const_model(2.0e5), solve_mode="dsm")
    local = LocalConditions(diameter=BENNETT_LIKE.diameter, pressure=BENNETT_LIKE.pressure,
                            mass_flux=BENNETT_LIKE.mass_flux, quality=0.4)
    assert _at_quality(p, 0.4) == bowring_dsm(local) + 2.0e5


def test_local_pure_ml_ignores_quality():
    p = ChfPredictor(kind="pure_ml",
                     model=_const_model(3.0e6, mode="direct", base_model="none"),
                     solve_mode="dsm")
    assert _at_quality(p, 0.1) == _at_quality(p, 0.9) == 3.0e6


def test_trained_residual_model_roundtrip():
    # a genuinely trained (tiny) corrector should reduce error on its
    # own training points versus the bare correlation
    rng = np.random.default_rng(21)
    cases, measured = [], []
    for _ in range(30):
        c = InletConditions(
            diameter=float(rng.uniform(0.005, 0.015)),
            heated_length=float(rng.uniform(1.0, 4.0)),
            pressure=float(rng.uniform(3.0e6, 15.0e6)),
            mass_flux=float(rng.uniform(500.0, 4000.0)),
            inlet_subcooling=float(rng.uniform(2.0e4, 4.0e5)),
        )
        cases.append(c)
        measured.append(solve_hbm("bowring", c).chf * (1.0 + 0.15))
    table, report = _residuals(cases, measured, "bowring")
    assert report.n_failed == 0

    from chfkit.mlp import TrainConfig, train

    x, y = table[:, :5], table[:, 7]
    in_sc = Scaler.fit(x)
    out_sc = Scaler.fit(y.reshape(-1, 1))
    net = init_mlp(5, (8,), "tanh", seed=1, input_scaler=in_sc, output_scaler=out_sc,
                   mode="residual", base_model="bowring")
    fitted, _ = train(net, in_sc.transform(x), out_sc.transform(y.reshape(-1, 1))[:, 0],
                      TrainConfig(epochs=200, batch_size=8, lr0=3e-3, seed=2))
    hyb = ChfPredictor(kind="hybrid_bowring", model=fitted)
    base = ChfPredictor(kind="base_bowring")
    err_h = [abs(predict(hyb, c).value - m) / m for c, m in zip(cases, measured)]
    err_b = [abs(predict(base, c).value - m) / m for c, m in zip(cases, measured)]
    assert np.mean(err_h) < 0.3 * np.mean(err_b)
