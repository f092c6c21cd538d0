"""Property tests: the batched inlet-conditions predictor against the
per-row reference.

The reference below is the earlier implementation, kept as the oracle:
every row makes its own heat-balance solve (with its own saturation
state) and its own single-row network call.  Every row of the
``Predictions`` columns must reproduce it to the bit: the value, the
base solve's fields and the residual, or on a failed row a NaN value and
the error's message.
"""

import math
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chfkit import fluid
from chfkit.correlations import HbmSolution, InletConditions, solve_hbm
from chfkit.data import MODEL_FEATURES, TABLE1_ENVELOPE
from chfkit.hybrid import PREDICTOR_KINDS, ChfPredictor, Predictions, predict, predict_batch
from chfkit.mlp import Scaler, forward, init_mlp

# ---------------------------------------------------------------------------
# Reference: one solve and one network call per row
# ---------------------------------------------------------------------------


def _ref_predict(p: ChfPredictor, c: InletConditions) -> tuple:
    """(value, base CHF, residual, HbmSolution) of one row; the base
    fields are None for pure_ml."""
    feats = (c.diameter, c.heated_length, c.pressure, c.mass_flux, c.inlet_subcooling)
    if p.kind == "pure_ml":
        r = forward(p.model, feats)
        return r, None, r, None
    sol = solve_hbm("biasi" if p.kind.endswith("biasi") else "bowring", c)
    if p.kind.startswith("base_"):
        return sol.chf, sol.chf, 0.0, sol
    r = forward(p.model, feats)
    return sol.chf + r, sol.chf, r, sol


def _outcome(result) -> str:
    """repr of a result (every field to the bit), or an error's type and
    message."""
    if isinstance(result, Exception):
        return f"{type(result).__name__}: {result}"
    return repr(result)


def _ref_outcome(p: ChfPredictor, c: InletConditions, value_only: bool = False) -> str:
    try:
        out = _ref_predict(p, c)
    except Exception as e:  # noqa: BLE001 - the outcome records any error
        return _outcome(e)
    return _outcome(out[0] if value_only else out)


def _row_outcomes(out: Predictions) -> list[str]:
    """Each row of the columns as ``_ref_predict`` would give it."""
    rows = []
    for i, failed in enumerate(out.failed.tolist()):
        value, r = out.value[i].item(), out.ml_residual[i].item()
        if failed:
            assert math.isnan(value)
            rows.append(_outcome(out.base.error(i)))
        elif out.base is None:
            rows.append(_outcome((value, None, r, None)))
        else:
            b = out.base
            sol = HbmSolution(b.chf[i].item(), b.critical_quality[i].item(), 0,
                              b.residual[i].item(), b.quality_excursion[i].item())
            rows.append(_outcome((value, b.chf[i].item(), r, sol)))
    return rows


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

# input scaler that maps the envelope to roughly unit range, so the
# small networks below give residuals that vary from row to row
_ENVELOPE_SCALER = Scaler(
    mean=np.array([np.mean(TABLE1_ENVELOPE[k]) for k in MODEL_FEATURES]),
    std=np.array([np.ptp(TABLE1_ENVELOPE[k]) for k in MODEL_FEATURES]),
)


def _predictor(kind: str, seed: int) -> ChfPredictor:
    if kind.startswith("base_"):
        return ChfPredictor(kind=kind)
    if kind == "pure_ml":
        mode, base, out = "direct", "none", Scaler(np.array([3.0e6]), np.array([2.0e6]))
    else:
        mode, base, out = "residual", kind.split("_")[1], Scaler(np.array([0.0]),
                                                                 np.array([5.0e5]))
    model = init_mlp(5, (4,), "tanh", seed=seed, input_scaler=_ENVELOPE_SCALER,
                     output_scaler=out, mode=mode, base_model=base)
    return ChfPredictor(kind=kind, model=model)


def _envelope(name: str):
    return st.floats(*TABLE1_ENVELOPE[name])


# a few fixed pressures make repeats within a batch likely; 1 bar with a
# two-phase inlet leaves Biasi unsolvable, 200 bar leaves Bowring so
_ROWS = st.builds(
    InletConditions,
    diameter=_envelope("diameter"),
    heated_length=_envelope("heated_length"),
    pressure=st.one_of(st.sampled_from([1.0e5, 7.0e6, 1.9e7, 2.0e7]),
                       st.floats(fluid.P_SAT_MIN, fluid.P_CRITICAL)),
    mass_flux=_envelope("mass_flux"),
    inlet_subcooling=st.floats(-2.0e6, 1.0e6),
)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

def test_model_features_are_the_inlet_condition_fields():
    # the columns of predict_batch's feature matrix are these fields, in order
    assert tuple(InletConditions.__dataclass_fields__) == MODEL_FEATURES


@pytest.mark.parametrize("kind", PREDICTOR_KINDS)
@settings(max_examples=25)
@given(batch=st.lists(_ROWS, max_size=24), seed=st.integers(0, 2**16))
def test_predict_batch_matches_per_row_reference(kind, batch, seed):
    pred = _predictor(kind, seed)
    with mock.patch.object(fluid, "saturation_state",
                           wraps=fluid.saturation_state) as sat:
        fast = predict_batch(pred, np.array([astuple(c) for c in batch]).reshape(-1, 5))
    # one array call over the distinct pressures, none for pure_ml
    if kind == "pure_ml" or not batch:
        assert sat.call_count == 0
    else:
        ((pressures,), _) = sat.call_args
        assert sat.call_count == 1
        assert sorted(pressures.tolist()) == sorted({c.pressure for c in batch})
    assert len(fast) == len(batch)
    assert _row_outcomes(fast) == [_ref_outcome(pred, c) for c in batch]

    # the one-row form returns the value or raises the error
    for c in batch[:3]:
        try:
            one = _outcome(predict(pred, c))
        except Exception as e:  # noqa: BLE001
            one = _outcome(e)
        assert one == _ref_outcome(pred, c, value_only=True)
