"""Property tests: the batched channel march and the closed-form critical
power against the per-node reference loop and a reference bisection.

The reference below is the earlier implementation, kept as the oracle:
every node is rated by its own heat-balance solve plus a single-row
network call, and the critical-power search re-solves the whole channel
at every bisection step until |min DNBR - 1| < 1e-6.  The march must
reproduce it to the bit; the closed-form critical flux (the smallest
node CHF) must land within the bisection's tolerance of its result.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chfkit import fluid
from chfkit.channel import (
    AxialProfile,
    BracketError,
    ChannelCase,
    find_critical_power,
    solve_channel,
)
from chfkit.correlations import InletConditions, NoCriticalConditionError, solve_hbm
from chfkit.data import TABLE1_ENVELOPE
from chfkit.hybrid import PREDICTOR_KINDS, ChfPredictor
from chfkit.mlp import Scaler, forward, init_mlp

# ---------------------------------------------------------------------------
# Reference: one solve and one network row per node, one channel solve per step
# ---------------------------------------------------------------------------


def _ref_exit_chf(p: ChfPredictor, c: InletConditions) -> float:
    """CHF of a tube whose exit is the node: its own solve, its own network row."""
    feats = (c.diameter, c.heated_length, c.pressure, c.mass_flux, c.inlet_subcooling)
    if p.kind == "pure_ml":
        return forward(p.model, feats)
    chf = solve_hbm("biasi" if p.kind.endswith("biasi") else "bowring", c).chf
    if p.kind.startswith("base_"):
        return chf
    return chf + forward(p.model, feats)


def _ref_solve_channel(case: ChannelCase, pred: ChfPredictor) -> AxialProfile:
    sat = fluid.saturation_state(case.pressure)
    h_in = sat.h_f - case.inlet_subcooling
    g, d, q = case.mass_flux, case.diameter, case.wall_heat_flux
    n, length = case.n_axial, case.heated_length
    heights = tuple(length if i == n - 1 else (i + 0.5) * length / n for i in range(n))
    enthalpies = tuple(h_in + 4.0 * q * z / (g * d) for z in heights)
    qualities = tuple((h - sat.h_f) / sat.h_fg for h in enthalpies)

    dnbr, chf_local, flagged, raw = [], [], [], []
    for i, z in enumerate(heights):
        try:
            chf = _ref_exit_chf(pred, case.inlet_conditions(heated_length=z))
        except NoCriticalConditionError:
            raw.append(None)
            flagged.append(i)
            dnbr.append(0.0)
            chf_local.append(0.0)
            continue
        raw.append(chf)
        if q == 0.0:
            dnbr.append(math.inf)
            chf_local.append(chf)
            continue
        if chf <= 0.0:
            flagged.append(i)
            dnbr.append(0.0)
            chf_local.append(0.0)
            continue
        ratio = chf / q
        dnbr.append(ratio)
        chf_local.append(ratio * q)
    return AxialProfile(
        case=case, heights=heights, enthalpies=enthalpies, qualities=qualities,
        dnbr=tuple(dnbr), chf_local=tuple(chf_local), flagged_nodes=tuple(flagged),
        node_chf=tuple(raw),
    )


def _ref_critical_power(case, pred, bracket, tol=1e-6, max_iter=100):
    """(flux, nodes at the minimum DNBR) of the reference bisection, from
    the profile of its last step; the first of those nodes is its
    limiting node."""
    q_lo, q_hi = bracket

    def min_dnbr_at(q):
        return _ref_solve_channel(replace(case, wall_heat_flux=q), pred)

    lo_prof = min_dnbr_at(q_lo)
    hi_prof = min_dnbr_at(q_hi)
    if not (lo_prof.min_dnbr > 1.0 > hi_prof.min_dnbr):
        raise BracketError("bracket does not straddle the critical condition",
                           lo_prof.min_dnbr, hi_prof.min_dnbr)
    for _ in range(max_iter):
        q_mid = 0.5 * (q_lo + q_hi)
        best = min_dnbr_at(q_mid)
        if abs(best.min_dnbr - 1.0) < tol:
            break
        if best.min_dnbr > 1.0:
            q_lo = q_mid
        else:
            q_hi = q_mid
    else:
        raise AssertionError(f"reference bisection did not converge on {bracket}")
    return q_mid, tuple(i for i, d in enumerate(best.dnbr) if d == best.min_dnbr)


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
    # repr compares every field to the bit, -0.0 against 0.0 included
    assert repr(profile) == repr(_ref_solve_channel(case, pred))

    # bracket around the smallest raw node CHF (zero wall flux keeps the
    # raw values), so that most searches run; some still do not straddle
    raw = _ref_solve_channel(replace(case, wall_heat_flux=0.0), pred).chf_local
    q_c = min((c for c in raw if c > 0.0), default=1.0e6)
    bracket = (lo * q_c, hi * q_c)
    try:
        ref_q, ref_nodes = _ref_critical_power(case, pred, bracket)
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
