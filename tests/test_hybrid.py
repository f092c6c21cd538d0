"""Tests for the base+residual predictor composition."""

from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest

from chfkit import fluid, hybrid
from chfkit.correlations import (
    InletConditions,
    NoCriticalConditionError,
    solve_hbm,
)
from chfkit.hybrid import (
    ChfPredictor,
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
    ChfPredictor(kind="base_bowring")
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
    with pytest.raises(TypeError, match="solve_mode"):
        ChfPredictor(kind="base_biasi", solve_mode="dsm")


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
        sol = solve_hbm(corr, BENNETT_LIKE)
        assert predict(p, BENNETT_LIKE) == sol.chf
        pred = predict_batch(p, [astuple(BENNETT_LIKE)])
        assert pred.value[0] == pred.base.chf[0] == sol.chf
        assert pred.ml_residual[0] == 0.0
        assert pred.base.quality_excursion[0] == sol.quality_excursion


def test_hybrid_with_zero_model_reduces_to_base():
    p = ChfPredictor(kind="hybrid_bowring", model=_const_model(0.0))
    base = ChfPredictor(kind="base_bowring")
    for dh in (5.0e4, 2.0e5, 4.0e5):
        c = InletConditions(diameter=0.01, heated_length=3.0, pressure=10.0e6,
                            mass_flux=2000.0, inlet_subcooling=dh)
        assert predict(p, c) == predict(base, c)


def test_hybrid_perfect_corrector_recovers_measurement():
    base = solve_hbm("bowring", BENNETT_LIKE).chf
    measured = 1.1 * base  # within a factor of two: the residual is exact
    r = measured - base
    p = ChfPredictor(kind="hybrid_bowring", model=_const_model(r))
    assert predict(p, BENNETT_LIKE) == measured


def test_hybrid_decomposition_exact():
    p = ChfPredictor(kind="hybrid_biasi",
                     model=_const_model(-3.7e5, base_model="biasi"))
    pred = predict_batch(p, [astuple(BENNETT_LIKE)])
    assert pred.value[0] == pred.base.chf[0] + pred.ml_residual[0]
    assert pred.ml_residual[0] == -3.7e5
    assert pred.base.chf[0] == solve_hbm("biasi", BENNETT_LIKE).chf
    assert predict(p, BENNETT_LIKE) == pred.value[0]


def test_pure_ml_and_hybrid_finite_positive():
    pure = ChfPredictor(kind="pure_ml",
                        model=_const_model(2.5e6, mode="direct", base_model="none"))
    hyb = ChfPredictor(kind="hybrid_bowring", model=_const_model(1.0e5))
    a = predict_batch(pure, [astuple(BENNETT_LIKE)])
    b = predict_batch(hyb, [astuple(BENNETT_LIKE)])
    assert a.value[0] > 0 and np.isfinite(a.value[0])
    assert b.value[0] > 0 and np.isfinite(b.value[0])
    assert a.base is None and not a.failed[0]
    assert b.value[0] == b.base.chf[0] + b.ml_residual[0]


def test_hbm_failure_propagates_for_base_and_hybrid_only():
    with pytest.raises(NoCriticalConditionError):
        predict(ChfPredictor(kind="base_bowring"), UNSOLVABLE)
    with pytest.raises(NoCriticalConditionError):
        predict(ChfPredictor(kind="hybrid_bowring", model=_const_model(0.0)), UNSOLVABLE)
    pure = ChfPredictor(kind="pure_ml",
                        model=_const_model(1.0e6, mode="direct", base_model="none"))
    assert predict(pure, UNSOLVABLE) == 1.0e6


def test_failed_rows_read_nan_and_keep_their_error():
    p = ChfPredictor(kind="hybrid_bowring", model=_const_model(1.0e5))
    pred = predict_batch(p, [astuple(BENNETT_LIKE), astuple(UNSOLVABLE)])
    assert len(pred) == 2 and pred.failed.tolist() == [False, True]
    assert pred.value[0] == predict(p, BENNETT_LIKE) and np.isnan(pred.value[1])
    with pytest.raises(NoCriticalConditionError) as exc:
        predict(p, UNSOLVABLE)
    assert str(pred.base.error(1)) == str(exc.value)


def _overflowing_model(mode="residual", base_model="bowring") -> Mlp:
    """Finite parameters whose forward pass overflows: a relu layer of
    1e308 weights on raw inputs of order 1e6."""
    return Mlp(
        layers=[DenseLayer(np.full((1, 5), 1e308), np.zeros(1), "relu"),
                DenseLayer(np.ones((1, 1)), np.zeros(1), "identity")],
        input_scaler=Scaler.identity(5),
        output_scaler=Scaler.identity(1),
        mode=mode,
        base_model=base_model,
    )


@pytest.mark.parametrize("kind", ["pure_ml", "hybrid_bowring"])
def test_non_finite_network_output_fails_the_row(kind):
    model = (_overflowing_model("direct", "none") if kind == "pure_ml"
             else _overflowing_model())
    p = ChfPredictor(kind=kind, model=model)
    pred = predict_batch(p, [astuple(BENNETT_LIKE)])
    assert pred.failed.tolist() == [True] and np.isnan(pred.value[0])
    assert str(pred.error(0)) == "non-finite network output (inf)"
    with pytest.raises(FloatingPointError, match=r"^non-finite network output \(inf\)$"):
        predict(p, BENNETT_LIKE)
    h_fg = fluid.saturation_state(BENNETT_LIKE.pressure).h_fg
    (chf,) = node_chf(p, [(BENNETT_LIKE, (1.0, 2.0))], {BENNETT_LIKE.pressure: h_fg})
    assert np.isnan(chf).all()


# ---------------------------------------------------------------------------
# node_chf: every node rated as the exit of a tube of its own length
# ---------------------------------------------------------------------------

def test_node_chf_is_the_prediction_at_each_node_length():
    p = ChfPredictor(kind="hybrid_bowring", model=_const_model(2.0e5))
    heights = (1.0, 3.0, BENNETT_LIKE.heated_length)
    want = [predict(p, replace(BENNETT_LIKE, heated_length=z)) for z in heights]
    h_fg = {BENNETT_LIKE.pressure: fluid.saturation_state(BENNETT_LIKE.pressure).h_fg,
            UNSOLVABLE.pressure: fluid.saturation_state(UNSOLVABLE.pressure).h_fg}
    chf, unsolvable = node_chf(p, [(BENNETT_LIKE, heights), (UNSOLVABLE, (1.0, 2.0))], h_fg)
    assert chf.tolist() == want
    assert unsolvable.shape == (2,) and np.isnan(unsolvable).all()
    assert node_chf(p, [], h_fg) == []


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
    err_h = [abs(predict(hyb, c) - m) / m for c, m in zip(cases, measured)]
    err_b = [abs(predict(base, c) - m) / m for c, m in zip(cases, measured)]
    assert np.mean(err_h) < 0.3 * np.mean(err_b)
