"""Water-property checks against the published IF97 verification tables."""

import math

import numpy as np
import pytest

from chfkit import fluid

from one_row import enthalpy_region2, saturation_pressure, saturation_temperature

# Release verification values: (callable, args, expected).  Saturation
# pressures/temperatures and Region 1/2 enthalpies, all quoted to the
# nine significant digits of the standard's computer-program checks.
RELEASE_VALUES = [
    (saturation_pressure, (300.0,), 0.353658941e-2 * 1e6),
    (saturation_pressure, (500.0,), 0.263889776e1 * 1e6),
    (saturation_pressure, (600.0,), 0.123443146e2 * 1e6),
    (saturation_temperature, (0.1e6,), 0.372755919e3),
    (saturation_temperature, (1.0e6,), 0.453035632e3),
    (saturation_temperature, (10.0e6,), 0.584149488e3),
    (fluid.enthalpy_region1, (3.0e6, 300.0), 0.115331273e3 * 1e3),
    (fluid.enthalpy_region1, (80.0e6, 300.0), 0.184142828e3 * 1e3),
    (fluid.enthalpy_region1, (3.0e6, 500.0), 0.975542239e3 * 1e3),
    (enthalpy_region2, (0.0035e6, 300.0), 0.254991145e4 * 1e3),
    (enthalpy_region2, (0.0035e6, 700.0), 0.333568375e4 * 1e3),
    (enthalpy_region2, (30.0e6, 700.0), 0.263149474e4 * 1e3),
]

# Regression anchor computed by this implementation after the release
# values above were verified; pins the latent heat used by heat-balance
# work at the 1000-psia reference pressure.
H_FG_6895_KPA = 1511915.856332773


@pytest.mark.parametrize("fn,args,expected", RELEASE_VALUES)
def test_release_verification_values(fn, args, expected):
    got = fn(*args)
    # expected carries 9 significant digits; allow half an ulp of the
    # ninth digit expressed as a relative bound
    assert got == pytest.approx(expected, rel=5e-9)


def test_saturation_round_trip():
    rng = np.random.default_rng(20240817)
    for p in rng.uniform(fluid.P_SAT_MIN + 1.0, fluid.P_CRITICAL - 1.0, 1000):
        t = saturation_temperature(p)
        assert fluid.T_SAT_MIN <= t <= fluid.T_CRITICAL
        t2 = saturation_temperature(saturation_pressure(t))
        assert abs(t2 - t) < 1e-6


def test_saturation_state_consistency():
    for p in (0.1e6, 1.0e6, 6.895e6, 15.0e6, 20.0e6):
        s = fluid.saturation_state(p)
        assert s.pressure == p
        assert s.h_fg == s.h_g - s.h_f
        assert s.h_f > 0.0 and s.h_g > s.h_f


def test_latent_heat_reference_pressure():
    s = fluid.saturation_state(6.895e6)
    assert s.h_fg == pytest.approx(H_FG_6895_KPA, rel=1e-12)
    assert s.h_fg == pytest.approx(1.51e6, rel=1e-2)


def test_latent_heat_strictly_decreasing():
    ps = np.linspace(0.1e6, 20.0e6, 300)
    h_fg = [fluid.saturation_state(p).h_fg for p in ps]
    assert all(a > b for a, b in zip(h_fg, h_fg[1:]))
    assert all(h > 0.0 for h in h_fg)


def test_subcooling_zero_at_saturation():
    p = 7.0e6
    t_sat = saturation_temperature(p)
    assert fluid.subcooling_from_inlet_temp(p, t_sat) == 0.0


def test_subcooling_positive_below_saturation():
    p = 7.0e6
    t_sat = saturation_temperature(p)
    dh = fluid.subcooling_from_inlet_temp(p, t_sat - 30.0)
    # roughly cp * dT for liquid water
    assert 100e3 < dh < 250e3


def test_subcooling_superheated_inlet_rejected():
    p = 7.0e6
    t_sat = saturation_temperature(p)
    with pytest.raises(fluid.FluidRangeError):
        fluid.subcooling_from_inlet_temp(p, t_sat + 1.0)


def test_inlet_temp_subcooling_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = rng.uniform(0.5e6, 18.0e6)
        t_sat = saturation_temperature(p)
        t_in = rng.uniform(300.0, t_sat - 0.5)
        dh = fluid.subcooling_from_inlet_temp(p, t_in)
        t_back = fluid.inlet_temp_from_subcooling(p, dh)
        assert abs(t_back - t_in) < 1e-6


def test_inlet_temp_negative_subcooling_rejected():
    with pytest.raises(fluid.FluidRangeError):
        fluid.inlet_temp_from_subcooling(7.0e6, -1.0)


@pytest.mark.parametrize(
    "fn,args",
    [
        (saturation_pressure, (272.0,)),
        (saturation_pressure, (650.0,)),
        (saturation_temperature, (500.0,)),
        (saturation_temperature, (23.0e6,)),
        (fluid.enthalpy_region1, (-1.0, 300.0)),
        (fluid.enthalpy_region1, (101e6, 300.0)),
        (fluid.enthalpy_region1, (1e6, 1100.0)),
    ],
)
def test_domain_errors_name_the_interval(fn, args):
    with pytest.raises(fluid.FluidRangeError) as err:
        fn(*args)
    # the message carries the offending value and the valid interval
    assert "[" in str(err.value) or "(" in str(err.value)


def test_enthalpy_monotone_in_temperature():
    p = 10.0e6
    ts = np.linspace(280.0, saturation_temperature(p) - 0.1, 100)
    hs = [fluid.enthalpy_region1(p, t) for t in ts]
    assert all(a < b for a, b in zip(hs, hs[1:]))


def test_latent_heat_vanishing_scale_toward_critical():
    # h_f/h_g above ~16.5 MPa are basic-equation extrapolations, so the
    # gap keeps shrinking toward the critical point without closing
    h1 = fluid.saturation_state(20.0e6).h_fg
    h2 = fluid.saturation_state(21.5e6).h_fg
    h3 = fluid.saturation_state(22.05e6).h_fg
    assert h1 > h2 > h3 > 0.0
    assert h3 < 0.3 * fluid.saturation_state(10.0e6).h_fg


def test_constant_exports():
    assert math.isclose(fluid.P_CRITICAL, 22.064e6)
    assert math.isclose(fluid.T_CRITICAL, 647.096)
