"""Property tests: the array channel march and the closed-form critical
power against the per-node reference loop and a reference bisection.

The reference is ``channel_oracle``, the earlier implementation: every
node is rated by its own heat-balance solve plus a single-row network
call, and the critical-power search re-solves the whole channel at every
bisection step until |min DNBR - 1| < 1e-6.  The march must reproduce it
to the bit; the closed-form critical flux (the smallest node CHF) must
land within the bisection's tolerance of its result.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import channel_oracle
from chfkit.channel import BracketError, ChannelCase, find_critical_power, solve_channel
from chfkit.data import TABLE1_ENVELOPE
from chfkit.hybrid import PREDICTOR_KINDS, ChfPredictor
from chfkit.mlp import Scaler, init_mlp


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

# input scaler that maps the envelope to roughly unit range, so the
# small networks below give residuals that vary from node to node
_ENVELOPE_SCALER = Scaler(
    mean=np.array([np.mean(TABLE1_ENVELOPE[k]) for k in
                   ("diameter", "heated_length", "pressure", "mass_flux",
                    "inlet_subcooling")]),
    std=np.array([np.ptp(TABLE1_ENVELOPE[k]) for k in
                  ("diameter", "heated_length", "pressure", "mass_flux",
                   "inlet_subcooling")]),
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


_CASES = st.builds(
    ChannelCase,
    diameter=_envelope("diameter"),
    heated_length=_envelope("heated_length"),
    pressure=_envelope("pressure"),
    mass_flux=_envelope("mass_flux"),
    inlet_subcooling=_envelope("inlet_subcooling"),
    wall_heat_flux=st.one_of(st.just(0.0), st.floats(1.0e4, 1.0e7)),
    n_axial=st.integers(2, 40),
)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", PREDICTOR_KINDS)
@settings(max_examples=12)
@given(case=_CASES, seed=st.integers(0, 2**16),
       lo=st.floats(0.05, 0.95), hi=st.floats(1.05, 20.0))
def test_fast_march_and_search_match_reference(kind, case, seed, lo, hi):
    pred = _predictor(kind, seed)
    profile = solve_channel(case, pred)
    ref = channel_oracle.solve_channel(case, pred)
    assert profile.case == ref.case
    # repr compares every field to the bit, -0.0 against 0.0 included;
    # a failed node is NaN here and None in the reference
    for name in (f.name for f in fields(ref) if f.name != "case"):
        got = [None if math.isnan(v) else v for v in getattr(profile, name).tolist()]
        assert repr(got) == repr(list(getattr(ref, name))), name

    # bracket around the smallest raw node CHF (zero wall flux keeps the
    # raw values), so that most searches run; some still do not straddle
    raw = channel_oracle.solve_channel(replace(case, wall_heat_flux=0.0), pred).chf_local
    q_c = min((c for c in raw if c > 0.0), default=1.0e6)
    bracket = (lo * q_c, hi * q_c)
    try:
        ref_q, ref_nodes = channel_oracle.bisect_critical_power(case, pred, bracket)
    except BracketError as ref:
        with pytest.raises(BracketError) as fast:
            find_critical_power(profile, bracket)
        assert repr((fast.value.dnbr_lo, fast.value.dnbr_hi)) == \
            repr((ref.dnbr_lo, ref.dnbr_hi))
        return
    r = find_critical_power(profile, bracket)
    # the bisection stops at |min(chf) / q - 1| < 1e-6
    assert abs(r.wall_heat_flux - ref_q) < 1e-6 * ref_q
    # the reference's limiting node, or another node its DNBRs tie with
    assert r.limiting_node in ref_nodes
    assert r.min_dnbr == 1.0
    at_q = solve_channel(replace(case, wall_heat_flux=r.wall_heat_flux), pred)
    assert abs(at_q.min_dnbr - 1.0) <= 1e-15
