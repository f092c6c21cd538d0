"""Tests for the 1-D heated-channel solver: enthalpy march, node
convention, DNBR policies, CHF extraction and critical-power search."""

import math
from dataclasses import replace

import numpy as np
import pytest

from chfkit import fluid
from chfkit.channel import (
    AxialProfile,
    BracketError,
    ChannelCase,
    extract_chf,
    find_critical_power,
    solve_channel,
)
from chfkit.correlations import InletConditions, heat_balance_quality, solve_hbm
from chfkit.hybrid import ChfPredictor
from chfkit.mlp import DenseLayer, Mlp, Scaler

BENNETT_CASE = ChannelCase(
    diameter=0.01262, heated_length=5.56, pressure=6.895e6,
    mass_flux=1000.0, inlet_subcooling=1.0e5, wall_heat_flux=5.0e5,
)


def _const_predictor(value: float) -> ChfPredictor:
    model = Mlp(
        layers=[DenseLayer(np.zeros((1, 5)), np.array([value]), "identity")],
        input_scaler=Scaler.identity(5), output_scaler=Scaler.identity(1),
        mode="direct", base_model="none",
    )
    return ChfPredictor(kind="pure_ml", model=model)


def _neg_residual_predictor(offset: float, solve_mode="hbm") -> ChfPredictor:
    model = Mlp(
        layers=[DenseLayer(np.zeros((1, 5)), np.array([offset]), "identity")],
        input_scaler=Scaler.identity(5), output_scaler=Scaler.identity(1),
        mode="residual", base_model="bowring",
    )
    return ChfPredictor(kind="hybrid_bowring", model=model, solve_mode=solve_mode)


# ---------------------------------------------------------------------------
# Geometry and the enthalpy march
# ---------------------------------------------------------------------------

def test_node_heights_centers_with_exit_pinned():
    case = replace(BENNETT_CASE, heated_length=2.0, n_axial=4)
    prof = solve_channel(case, _const_predictor(3.0e6))
    assert prof.heights == (0.25, 0.75, 1.25, 2.0)


def test_outlet_enthalpy_closed_form():
    prof = solve_channel(BENNETT_CASE, _const_predictor(3.0e6))
    h_in = fluid.saturation_state(BENNETT_CASE.pressure).h_f - BENNETT_CASE.inlet_subcooling
    want = h_in + 4.0 * BENNETT_CASE.wall_heat_flux * BENNETT_CASE.heated_length / (
        BENNETT_CASE.mass_flux * BENNETT_CASE.diameter)
    assert prof.enthalpies[-1] == want  # same closed form, bit-exact


def test_exit_quality_is_heat_balance_at_full_length():
    prof = solve_channel(BENNETT_CASE, _const_predictor(3.0e6))
    c = BENNETT_CASE.inlet_conditions()
    want = heat_balance_quality(BENNETT_CASE.wall_heat_flux, c)
    assert prof.qualities[-1] == pytest.approx(want, rel=1e-12)


def test_profile_monotone_for_positive_flux():
    prof = solve_channel(BENNETT_CASE, _const_predictor(3.0e6))
    assert all(a < b for a, b in zip(prof.enthalpies, prof.enthalpies[1:]))
    assert all(a < b for a, b in zip(prof.qualities, prof.qualities[1:]))
    assert len(prof.heights) == BENNETT_CASE.n_axial


def test_node_to_node_rises_telescope_to_outlet_rise():
    prof = solve_channel(BENNETT_CASE, _const_predictor(3.0e6))
    h_in = fluid.saturation_state(BENNETT_CASE.pressure).h_f - BENNETT_CASE.inlet_subcooling
    rises = [prof.enthalpies[0] - h_in] + [
        b - a for a, b in zip(prof.enthalpies, prof.enthalpies[1:])
    ]
    total = 4.0 * BENNETT_CASE.wall_heat_flux * BENNETT_CASE.heated_length / (
        BENNETT_CASE.mass_flux * BENNETT_CASE.diameter)
    assert sum(rises) == pytest.approx(total, rel=1e-12)


# ---------------------------------------------------------------------------
# DNBR policies
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("solve_mode", ["hbm", "dsm"])
def test_min_dnbr_at_exit_for_base_bowring(solve_mode):
    pred = ChfPredictor(kind="base_bowring", solve_mode=solve_mode)
    prof = solve_channel(BENNETT_CASE, pred)
    assert prof.flagged_nodes == ()
    assert prof.min_dnbr_node == BENNETT_CASE.n_axial - 1
    assert prof.min_dnbr > 0.0
    assert prof.dnbr[0] > prof.dnbr[-1]


def test_nonpositive_chf_clamped_and_flagged():
    # a residual large and negative enough to drive every node's CHF
    # below zero
    prof = solve_channel(BENNETT_CASE, _neg_residual_predictor(-1.0e9))
    assert prof.flagged_nodes == tuple(range(BENNETT_CASE.n_axial))
    assert set(prof.dnbr) == {0.0}
    assert set(prof.chf_local) == {0.0}
    assert extract_chf(prof, 3) == 0.0


def test_no_critical_condition_nodes_flagged():
    case = replace(BENNETT_CASE, pressure=20.0e6, inlet_subcooling=-1.2e6)
    prof = solve_channel(case, ChfPredictor(kind="base_bowring"))
    assert prof.flagged_nodes == tuple(range(case.n_axial))
    assert set(prof.dnbr) == {0.0}


def test_zero_wall_flux_sentinel():
    case = replace(BENNETT_CASE, wall_heat_flux=0.0)
    prof = solve_channel(case, _const_predictor(3.0e6))
    assert set(prof.dnbr) == {math.inf}
    assert prof.flagged_nodes == ()
    assert set(prof.enthalpies) == {prof.enthalpies[0]}  # no heating
    assert set(prof.chf_local) == {3.0e6}  # raw predictor value kept
    assert extract_chf(prof, 0) == 3.0e6


def test_dnbr_values_hbm_match_per_node_solves():
    pred = ChfPredictor(kind="base_bowring")
    case = replace(BENNETT_CASE, n_axial=5)
    prof = solve_channel(case, pred)
    for i, z in enumerate(prof.heights):
        chf = solve_hbm("bowring", case.inlet_conditions(heated_length=z)).chf
        assert prof.dnbr[i] == chf / case.wall_heat_flux


# ---------------------------------------------------------------------------
# CHF extraction
# ---------------------------------------------------------------------------

def test_extract_chf_equals_stored_local_chf():
    pred = ChfPredictor(kind="base_bowring", solve_mode="dsm")
    prof = solve_channel(BENNETT_CASE, pred)
    for i in range(len(prof.dnbr)):
        assert extract_chf(prof, i) == prof.chf_local[i]
        assert extract_chf(prof, i) == prof.dnbr[i] * BENNETT_CASE.wall_heat_flux


def test_extract_chf_at_unit_dnbr_gives_wall_flux():
    case = replace(BENNETT_CASE, wall_heat_flux=3.0e6)
    prof = solve_channel(case, _const_predictor(3.0e6))
    assert set(prof.dnbr) == {1.0}
    assert extract_chf(prof, 7) == 3.0e6


def test_extract_chf_bounds():
    prof = solve_channel(BENNETT_CASE, _const_predictor(3.0e6))
    with pytest.raises(IndexError, match="out of range"):
        extract_chf(prof, BENNETT_CASE.n_axial)
    with pytest.raises(IndexError, match="out of range"):
        extract_chf(prof, -1)


# ---------------------------------------------------------------------------
# Critical-power search
# ---------------------------------------------------------------------------

def test_critical_power_constant_predictor_analytic():
    res = find_critical_power(BENNETT_CASE, _const_predictor(3.0e6), (1.0e6, 9.0e6))
    assert res.wall_heat_flux == pytest.approx(3.0e6, rel=1e-6)
    assert abs(res.min_dnbr - 1.0) < 1e-6
    assert res.iterations <= 100


def test_march_and_search_share_one_saturation_state(monkeypatch):
    pressures = []
    sat = fluid.saturation_state
    monkeypatch.setattr(fluid, "saturation_state", lambda p: pressures.append(p) or sat(p))
    case = replace(BENNETT_CASE, pressure=7.0e6)
    pred = ChfPredictor(kind="base_bowring")
    solve_channel(case, pred)
    find_critical_power(case, pred, (4.0e5, 4.0e6))
    assert pressures == [7.0e6]


def test_critical_power_constant_predictor_ignores_mass_flux():
    pred = _const_predictor(3.0e6)
    a = find_critical_power(BENNETT_CASE, pred, (1.0e6, 9.0e6))
    b = find_critical_power(replace(BENNETT_CASE, mass_flux=2000.0), pred, (1.0e6, 9.0e6))
    assert a.wall_heat_flux == b.wall_heat_flux


def test_critical_power_matches_fine_grid_scan():
    # quality feedback makes min-DNBR strictly decreasing in wall flux,
    # so the crossing is unique; a dense scan brackets the same root
    pred = ChfPredictor(kind="base_bowring", solve_mode="dsm")
    lo, hi = 4.0e5, 4.0e6
    res = find_critical_power(BENNETT_CASE, pred, (lo, hi))
    assert abs(res.min_dnbr - 1.0) < 1e-6

    qs = np.linspace(lo, hi, 2001)
    mins = [solve_channel(replace(BENNETT_CASE, wall_heat_flux=q), pred).min_dnbr
            for q in qs]
    # strictly decreasing until the nonpositive-CHF clamp pins it at 0
    assert all(a >= b for a, b in zip(mins, mins[1:]))
    assert all(a > b for a, b in zip(mins, mins[1:]) if a > 0.0)
    crossing = next(i for i in range(len(qs) - 1) if mins[i] > 1.0 >= mins[i + 1])
    step = qs[1] - qs[0]
    assert qs[crossing] - step <= res.wall_heat_flux <= qs[crossing + 1] + step
    assert res.limiting_node == BENNETT_CASE.n_axial - 1


def test_critical_power_reports_no_convergence():
    pred = ChfPredictor(kind="base_bowring")
    lo, hi = 4.0e5, 4.0e6
    done = find_critical_power(BENNETT_CASE, pred, (lo, hi))
    assert done.converged
    assert done.wall_heat_flux == 0.5 * (done.bracket[0] + done.bracket[1])

    res = find_critical_power(BENNETT_CASE, pred, (lo, hi), max_iter=3)
    assert not res.converged
    assert res.iterations == 3
    assert abs(res.min_dnbr - 1.0) >= 1e-6
    q_lo, q_hi = res.bracket
    assert q_hi - q_lo == (hi - lo) / 8
    assert res.wall_heat_flux in res.bracket
    # the final bracket still straddles the critical condition
    at = [solve_channel(replace(BENNETT_CASE, wall_heat_flux=q), pred).min_dnbr
          for q in res.bracket]
    assert at[0] > 1.0 > at[1]


def test_critical_power_bad_bracket_reports_endpoint_dnbrs():
    pred = _const_predictor(3.0e6)
    with pytest.raises(BracketError) as exc:
        find_critical_power(BENNETT_CASE, pred, (1.0e5, 2.0e5))  # both DNBR > 1
    assert exc.value.dnbr_lo > 1.0 and exc.value.dnbr_hi > 1.0
    with pytest.raises(ValueError, match="bracket"):
        find_critical_power(BENNETT_CASE, pred, (2.0e6, 1.0e6))


# ---------------------------------------------------------------------------
# Grid convergence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("solve_mode", ["hbm", "dsm"])
def test_exit_dnbr_independent_of_node_count(solve_mode):
    pred = ChfPredictor(kind="base_bowring", solve_mode=solve_mode)
    coarse = solve_channel(replace(BENNETT_CASE, n_axial=60), pred)
    fine = solve_channel(replace(BENNETT_CASE, n_axial=240), pred)
    # the exit node is pinned to z = L, so its state cannot depend on
    # the grid at all
    assert coarse.dnbr[-1] == fine.dnbr[-1]
    assert coarse.qualities[-1] == fine.qualities[-1]


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_case_validation():
    with pytest.raises(ValueError, match="diameter"):
        replace(BENNETT_CASE, diameter=0.0)
    with pytest.raises(ValueError, match="wall_heat_flux"):
        replace(BENNETT_CASE, wall_heat_flux=-1.0)
    with pytest.raises(ValueError, match="n_axial"):
        replace(BENNETT_CASE, n_axial=1)
    for bad in (60.9, 60.0, math.inf, math.nan, "60"):
        with pytest.raises(ValueError, match="n_axial must be an integer"):
            replace(BENNETT_CASE, n_axial=bad)
    assert replace(BENNETT_CASE, n_axial=np.int64(20)).n_axial == 20
    with pytest.raises(ValueError, match="finite"):
        replace(BENNETT_CASE, inlet_subcooling=math.nan)
