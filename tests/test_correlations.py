"""Correlation anchors, branch logic, and heat-balance solver behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chfkit import correlations, fluid
from chfkit.correlations import (
    BIASI_LOW_FLOW_LIMIT,
    HBM_FLUX_BRACKET,
    HbmSolution,
    InletConditions,
    NoCriticalConditionError,
    bowring_inlet,
    heat_balance_quality,
    solve_hbm,
)
from chfkit.data import TABLE1_ENVELOPE

from one_row import dsm

# Hand-evaluated anchors, frozen.  Each was computed by spelling out the
# published closed forms in plain arithmetic, independent of the module.
BIASI_LOW_QUALITY_ANCHOR = 4186701.511570968     # D=10mm G=1000 p=70bar x=0.2
BIASI_HIGH_QUALITY_ANCHOR = 969260.7210429655    # D=10mm G=1500 p=70bar x=0.7
BOWRING_ANCHOR = 716708.4814284045               # D=12.62mm L=5.56m p=6.895MPa G=1000 dh=100kJ/kg


def _inlet(d=0.01262, l=5.56, p=6.895e6, g=1000.0, dh=1.0e5) -> InletConditions:
    return InletConditions(
        diameter=d, heated_length=l, pressure=p, mass_flux=g, inlet_subcooling=dh
    )


# ---------------------------------------------------------------------------
# Biasi
# ---------------------------------------------------------------------------

def test_biasi_low_quality_anchor():
    c = dict(diameter=0.01, pressure=7.0e6, mass_flux=1000.0, quality=0.2)
    assert dsm("biasi", **c) == pytest.approx(BIASI_LOW_QUALITY_ANCHOR, rel=1e-12)


def test_biasi_high_quality_anchor():
    c = dict(diameter=0.01, pressure=7.0e6, mass_flux=1500.0, quality=0.7)
    assert dsm("biasi", **c) == pytest.approx(BIASI_HIGH_QUALITY_ANCHOR, rel=1e-12)


def test_biasi_branch_crossover():
    # at low quality the low-quality branch governs; at high quality the
    # high-quality branch takes over
    low = dict(diameter=0.01, pressure=7.0e6, mass_flux=1500.0, quality=0.2)
    q_low_branch = 2.764e7 * 1500.0 ** (-1 / 6) * (
        1.468 * (0.7249 + 0.099 * 70.0 * math.exp(-0.032 * 70.0)) * 1500.0 ** (-1 / 6) - 0.2
    )
    assert dsm("biasi", **low) == pytest.approx(q_low_branch, rel=1e-12)
    high = dict(diameter=0.01, pressure=7.0e6, mass_flux=1500.0, quality=0.7)
    q_high_branch = 15.048e7 * 1500.0 ** (-0.6) * (
        -1.159 + 0.149 * 70.0 * math.exp(-0.019 * 70.0) + 9.0 * 70.0 / (10.0 + 70.0**2)
    ) * 0.3
    assert dsm("biasi", **high) == pytest.approx(q_high_branch, rel=1e-12)


def test_biasi_low_flow_uses_high_quality_branch_only():
    # at the 300 kg/m2s limit the low-quality branch would dominate at
    # x=0 but must be ignored
    h70 = -1.159 + 0.149 * 70.0 * math.exp(-0.019 * 70.0) + 9.0 * 70.0 / (10.0 + 70.0**2)
    q2_only = 15.048e7 * 300.0 ** (-0.6) * h70
    c = dict(diameter=0.01, pressure=7.0e6, mass_flux=300.0, quality=0.0)
    assert dsm("biasi", **c) == pytest.approx(q2_only, rel=1e-12)
    # just above the limit the branch maximum returns
    c2 = dict(diameter=0.01, pressure=7.0e6, mass_flux=300.0 + 1e-6, quality=0.0)
    assert dsm("biasi", **c2) > dsm("biasi", **c)


def test_biasi_diameter_exponent_switch():
    # D >= 1 cm uses n=0.4, below it n=0.6
    for d, n in ((0.012, 0.4), (0.008, 0.6)):
        c = dict(diameter=d, pressure=7.0e6, mass_flux=2000.0, quality=0.1)
        f70 = 0.7249 + 0.099 * 70.0 * math.exp(-0.032 * 70.0)
        q_low = 2.764e7 * (100.0 * d) ** (-n) * 2000.0 ** (-1 / 6) * (
            1.468 * f70 * 2000.0 ** (-1 / 6) - 0.1
        )
        h70 = -1.159 + 0.149 * 70.0 * math.exp(-0.019 * 70.0) + 9.0 * 70.0 / (10.0 + 70.0**2)
        q_high = 15.048e7 * (100.0 * d) ** (-n) * 2000.0 ** (-0.6) * h70 * 0.9
        assert dsm("biasi", **c) == pytest.approx(max(q_low, q_high), rel=1e-12)


def test_biasi_decreasing_in_quality():
    qs = [
        dsm("biasi", diameter=0.01, pressure=7.0e6, mass_flux=1500.0, quality=x)
        for x in np.linspace(-0.2, 0.95, 40)
    ]
    assert all(a > b for a, b in zip(qs, qs[1:]))


def test_biasi_nonpositive_returned_raw():
    # near-atmospheric pressure the high-quality pressure term is
    # negative; a low-flow case then yields a nonpositive value which
    # must come back unclamped
    c = dict(diameter=0.01, pressure=1.0e5, mass_flux=200.0, quality=0.5)
    assert dsm("biasi", **c) < 0.0


# ---------------------------------------------------------------------------
# Bowring
# ---------------------------------------------------------------------------

def test_bowring_inlet_anchor():
    assert bowring_inlet(_inlet()) == pytest.approx(BOWRING_ANCHOR, rel=1e-12)


def test_bowring_inlet_independent_arithmetic():
    # re-derive the anchor case inline: at 6.895 MPa the reduced
    # pressure is 1 and all four pressure functions collapse to 1
    h_fg = fluid.saturation_state(6.895e6).h_fg
    d, g, l, dh = 0.01262, 1000.0, 5.56, 1.0e5
    a = 2.317 * (h_fg * d * g / 4.0) / (1.0 + 0.0143 * math.sqrt(d) * g)
    cc = 0.077 * d * g / (1.0 + 0.347 * (g / 1356.0) ** 1.5)
    expected = (a + 0.25 * d * g * dh) / (cc + l)
    assert bowring_inlet(_inlet()) == pytest.approx(expected, rel=1e-12)


def test_bowring_dsm_zero_quality_matches_inlet_limit():
    # pick the subcooling that zeroes the exit quality; the inlet form
    # must then equal the local form at x=0
    c0 = _inlet(dh=0.0)
    h_fg = fluid.saturation_state(c0.pressure).h_fg

    def exit_quality(q):
        return 4.0 * q * c0.heated_length / (c0.mass_flux * c0.diameter * h_fg)

    # iterate: dh such that x(L)=0 means h_in = h_f - 4qL/(GD) at the
    # resulting q; solve the closed form directly instead
    local = dict(diameter=c0.diameter, pressure=c0.pressure,
                 mass_flux=c0.mass_flux, quality=0.0)
    q_local = dsm("bowring", **local)
    dh = 4.0 * q_local * c0.heated_length / (c0.mass_flux * c0.diameter)
    c = _inlet(dh=dh)
    assert bowring_inlet(c) == pytest.approx(q_local, rel=1e-9)


def test_bowring_dsm_inlet_equivalence():
    # evaluating the local form at the heat-balance quality of the
    # inlet-form flux reproduces that flux exactly (length cancels)
    for dh in (2.0e4, 1.0e5, 4.0e5):
        c = _inlet(dh=dh)
        q = bowring_inlet(c)
        x = heat_balance_quality(q, c)
        local = dict(diameter=c.diameter, pressure=c.pressure,
                     mass_flux=c.mass_flux, quality=x)
        assert dsm("bowring", **local) == pytest.approx(q, rel=1e-9)


def test_bowring_pressure_functions_continuous_at_reference():
    lo = bowring_inlet(_inlet(p=6.895e6 - 1.0))
    hi = bowring_inlet(_inlet(p=6.895e6 + 1.0))
    assert hi == pytest.approx(lo, rel=1e-5)


def test_bowring_decreasing_in_quality():
    qs = [
        dsm("bowring", diameter=0.0126, pressure=10.0e6, mass_flux=2000.0, quality=x)
        for x in np.linspace(-0.3, 0.9, 30)
    ]
    assert all(a > b for a, b in zip(qs, qs[1:]))


# ---------------------------------------------------------------------------
# Heat-balance quality
# ---------------------------------------------------------------------------

def test_heat_balance_quality_formula():
    c = _inlet()
    h_fg = fluid.saturation_state(c.pressure).h_fg
    q = 1.0e6
    expected = 4.0 * q * c.heated_length / (c.mass_flux * c.diameter * h_fg) \
        - c.inlet_subcooling / h_fg
    assert heat_balance_quality(q, c) == expected
    # partial length
    expected_half = 4.0 * q * 2.78 / (c.mass_flux * c.diameter * h_fg) \
        - c.inlet_subcooling / h_fg
    assert heat_balance_quality(q, c, length=2.78) == expected_half


def test_heat_balance_quality_zero_flux():
    c = _inlet(dh=2.0e5)
    h_fg = fluid.saturation_state(c.pressure).h_fg
    assert heat_balance_quality(0.0, c) == -2.0e5 / h_fg


# ---------------------------------------------------------------------------
# solve_hbm
# ---------------------------------------------------------------------------

def test_solve_hbm_biasi_round_trip():
    c = _inlet()
    sol = solve_hbm("biasi", c)
    assert isinstance(sol, HbmSolution)
    assert abs(sol.residual) <= 1.0
    assert sol.iterations == 0
    # critical quality is the heat balance evaluated at the answer
    assert sol.critical_quality == heat_balance_quality(sol.chf, c)
    # pushing x_cr back through the direct form reproduces the flux
    local = dict(diameter=c.diameter, pressure=c.pressure,
                 mass_flux=c.mass_flux, quality=sol.critical_quality)
    assert dsm("biasi", **local) == pytest.approx(sol.chf, rel=1e-6)


def test_solve_hbm_bowring_matches_inlet_form():
    rng = np.random.default_rng(11)
    for _ in range(50):
        c = _inlet(
            d=rng.uniform(0.004, 0.016),
            l=rng.uniform(0.5, 6.0),
            p=rng.uniform(1.0e6, 18.0e6),
            g=rng.uniform(500.0, 5000.0),
            dh=rng.uniform(1.0e4, 5.0e5),
        )
        sol = solve_hbm("bowring", c)
        assert abs(sol.residual) <= 1.0
        assert sol.chf == pytest.approx(bowring_inlet(c), rel=1e-3)


def test_solve_hbm_biasi_dsm_consistency_sampled():
    rng = np.random.default_rng(12)
    for _ in range(50):
        c = _inlet(
            d=rng.uniform(0.005, 0.015),
            l=rng.uniform(1.0, 4.0),
            p=rng.uniform(3.0e6, 15.0e6),
            g=rng.uniform(700.0, 4000.0),
            dh=rng.uniform(2.0e4, 4.0e5),
        )
        sol = solve_hbm("biasi", c)
        assert abs(sol.residual) <= 1.0
        assert not sol.quality_excursion
        local = dict(diameter=c.diameter, pressure=c.pressure,
                     mass_flux=c.mass_flux, quality=sol.critical_quality)
        # the round-trip defect is exactly the solver residual
        assert dsm("biasi", **local) == pytest.approx(sol.chf - sol.residual, rel=1e-12)
        assert abs(dsm("biasi", **local) - sol.chf) <= max(1.0, 1e-6 * sol.chf)


def test_solve_hbm_quality_excursion_flagged():
    # two-phase inlet at 190 bar: the heat balance meets Biasi past x = 1
    c = _inlet(d=0.01, l=3.0, p=19.0e6, g=3000.0, dh=-9.0e5)
    sol = solve_hbm("biasi", c)
    assert sol.critical_quality > 1.0
    assert sol.quality_excursion
    assert _bisection_hbm("biasi", c).quality_excursion


def test_solve_hbm_skips_negative_slope_branch():
    # at 1 bar Biasi's H(p) < 0, and at this length the high-quality
    # branch's residual falls with the flux while the bracket test passes:
    # its own root lies above the bracket and must not be taken
    c = _inlet(d=0.01, l=2.83, p=1.0e5, g=400.0, dh=1.0e5)
    h_fg = fluid.saturation_state(c.pressure).h_fg
    k = 4.0 * c.heated_length / (c.mass_flux * c.diameter * h_fg)
    alpha_high = correlations._branches(
        "biasi", *(np.array([v]) for v in (c.diameter, c.mass_flux, c.pressure)))[1][0].item()
    assert 1.0 + alpha_high * k < 0.0
    sol = solve_hbm("biasi", c)
    assert abs(sol.residual) <= 1e-3
    assert sol.chf == pytest.approx(_bisection_hbm("biasi", c).chf, abs=1.0)


def test_solve_hbm_no_critical_condition():
    # inlet already beyond dryout: quality above 1 at zero flux makes
    # both Biasi branches negative over the whole bracket
    c = _inlet(p=20.0e6, dh=-1.2e6)
    with pytest.raises(NoCriticalConditionError) as err:
        solve_hbm("biasi", c)
    assert err.value.bracket == HBM_FLUX_BRACKET
    assert len(err.value.residuals) == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_solve_hbm_nonfinite_correlation_raises(monkeypatch, bad):
    # no valid InletConditions gives a non-finite branch coefficient
    monkeypatch.setattr(correlations, "_branches",
                        lambda *_args: ((np.array([bad]), 1.0, np.array([True])),))
    with pytest.raises(NoCriticalConditionError, match="non-finite"):
        solve_hbm("biasi", _inlet())


def test_solve_hbm_unknown_name():
    with pytest.raises(ValueError):
        solve_hbm("groeneveld", _inlet())


def test_biasi_low_flow_constant_exported():
    assert BIASI_LOW_FLOW_LIMIT == 300.0


# The bisection that solve_hbm used before its closed form, on the raw
# correlation formulas: the reference oracle for the property test.

def _one_row(fn, *args: float):
    """A column function of the module on one row, as floats."""
    out = fn(*(np.array([a]) for a in args))
    return tuple(v.item() for v in out) if isinstance(out, tuple) else out.item()


def _oracle_flux(name: str, c: InletConditions, x: float, h_fg: float) -> float:
    d, g, p_pa = c.diameter, c.mass_flux, c.pressure
    if name == "bowring":
        a, cc = _one_row(correlations._bowring_ac, d, g, p_pa, h_fg)
        return (a - 0.25 * d * g * h_fg * x) / cc
    p_bar = p_pa / 1e5
    scale = (100.0 * d) ** (-(0.4 if d >= 0.01 else 0.6))
    q_high = (15.048e7 * scale * g ** (-0.6)
              * _one_row(correlations._biasi_pressure_h, p_bar) * (1.0 - x))
    if g <= BIASI_LOW_FLOW_LIMIT:
        return q_high
    q_low = 2.764e7 * scale * g ** (-1.0 / 6.0) * (
        1.468 * _one_row(correlations._biasi_pressure_f, p_bar) * g ** (-1.0 / 6.0) - x
    )
    return max(q_low, q_high)


def _bisection_hbm(name: str, c: InletConditions) -> HbmSolution:
    h_fg = fluid.saturation_state(c.pressure).h_fg
    gd = c.mass_flux * c.diameter

    def quality(q: float) -> float:
        return 4.0 * q * c.heated_length / (gd * h_fg) - c.inlet_subcooling / h_fg

    def residual(q: float) -> float:
        r = q - _oracle_flux(name, c, quality(q), h_fg)
        if not math.isfinite(r):
            raise NoCriticalConditionError(f"non-finite residual at {q!r} W/m2",
                                           HBM_FLUX_BRACKET, (r, r))
        return r

    q_lo, q_hi = HBM_FLUX_BRACKET
    r_lo, r_hi = residual(q_lo), residual(q_hi)
    if r_lo >= 0.0 or r_hi <= 0.0:
        raise NoCriticalConditionError("correlation does not cross the heat-balance line",
                                       (q_lo, q_hi), (r_lo, r_hi))
    q_mid = 0.5 * (q_lo + q_hi)
    r_mid = residual(q_mid)
    iterations = 1
    while abs(r_mid) > 1.0 and iterations < 200:
        if r_mid > 0.0:
            q_hi = q_mid
        else:
            q_lo = q_mid
        q_mid = 0.5 * (q_lo + q_hi)
        r_mid = residual(q_mid)
        iterations += 1
    if abs(r_mid) > 1.0:
        raise NoCriticalConditionError("bisection did not converge", (q_lo, q_hi),
                                       (r_mid, r_mid))
    x_cr = quality(q_mid)
    return HbmSolution(chf=q_mid, critical_quality=x_cr, iterations=iterations,
                       residual=r_mid,
                       quality_excursion=not -0.5 <= x_cr <= 1.0)


def _envelope_floats(name: str):
    lo, hi = TABLE1_ENVELOPE[name]
    return st.floats(lo, hi)


@settings(max_examples=1000)
@given(
    name=st.sampled_from(["biasi", "bowring"]),
    d=_envelope_floats("diameter"),
    length=_envelope_floats("heated_length"),
    p=st.floats(fluid.P_SAT_MIN, fluid.P_CRITICAL),
    g=_envelope_floats("mass_flux"),
    dh=_envelope_floats("inlet_subcooling"),
)
def test_solve_hbm_closed_form_matches_bisection(name, d, length, p, g, dh):
    c = _inlet(d=d, l=length, p=p, g=g, dh=dh)
    try:
        ref = _bisection_hbm(name, c)
    except NoCriticalConditionError:
        with pytest.raises(NoCriticalConditionError):
            solve_hbm(name, c)
        return
    sol = solve_hbm(name, c)
    assert abs(sol.residual) <= 1e-3
    assert sol.critical_quality == heat_balance_quality(sol.chf, c)
    # with x_cr far past 1 the residual's slope is small, so the
    # bisection's |r| <= 1 stop leaves the flux looser than 1 W/m2
    if not (sol.quality_excursion or ref.quality_excursion):
        assert abs(sol.chf - ref.chf) <= 1.0


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(diameter=-0.01, heated_length=1.0, pressure=7e6, mass_flux=1e3, inlet_subcooling=1e5),
        dict(diameter=0.01, heated_length=0.0, pressure=7e6, mass_flux=1e3, inlet_subcooling=1e5),
        dict(diameter=0.01, heated_length=1.0, pressure=30e6, mass_flux=1e3, inlet_subcooling=1e5),
        dict(diameter=0.01, heated_length=1.0, pressure=7e6, mass_flux=0.0, inlet_subcooling=1e5),
    ],
)
def test_inlet_conditions_validation(kwargs):
    with pytest.raises(ValueError):
        InletConditions(**kwargs)


_INLET_KWARGS = dict(diameter=0.01, heated_length=1.0, pressure=7e6,
                    mass_flux=1e3, inlet_subcooling=1e5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(_INLET_KWARGS))
def test_inlet_conditions_reject_nonfinite(name, bad):
    with pytest.raises(ValueError, match=name):
        InletConditions(**dict(_INLET_KWARGS, **{name: bad}))


def test_inlet_conditions_negative_subcooling_allowed():
    c = _inlet(dh=-5.0e5)
    assert c.inlet_subcooling == -5.0e5
